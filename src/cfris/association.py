"""Pilot assignment and dynamic cooperation clustering.

UEs are processed in index order. Each UE appoints the AP with the largest
large-scale coefficient as its master; the first tau_p UEs get mutually
orthogonal pilots and every later UE takes the pilot with the least co-pilot
interference at its master AP, skipping pilots already claimed by another
UE with the same master whenever possible (keeps at most one master claim
per (AP, pilot)). Each AP then serves, on every pilot in use, its master
claimant if one exists and otherwise the co-pilot UE with the largest
large-scale coefficient; master relations are always kept.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Association:
    pilot_of: np.ndarray          # (K,) pilot index per UE
    master_ap: np.ndarray         # (K,) master AP per UE
    serving_matrix: np.ndarray    # (L, K) bool, AP l serves UE k

    @property
    def num_ues(self):
        return self.serving_matrix.shape[1]

    @property
    def serving_sets(self):
        """M_k: the serving APs of each UE, derived from serving_matrix."""
        return [list(np.where(col)[0]) for col in self.serving_matrix.T]

    @property
    def served_sets(self):
        """D_l: the UEs each AP serves, derived from serving_matrix."""
        return [list(np.where(row)[0]) for row in self.serving_matrix]

    def pmmse_partners(self, k):
        """UEs sharing at least one serving AP with UE k (includes k)."""
        rows = self.serving_matrix[self.serving_matrix[:, k], :]
        return list(np.where(rows.any(axis=0))[0])


def assign_pilots_and_clusters(real, cfg):
    beta = real.beta
    K, L = beta.shape
    tau_p = cfg.tau_p
    master = np.argmax(beta, axis=1)
    pilot_of = np.full(K, -1, dtype=int)
    for k in range(K):
        if k < tau_p:
            pilot_of[k] = k
            continue
        interference = np.zeros(tau_p)
        for i in range(k):
            interference[pilot_of[i]] += beta[i, master[k]]
        blocked = {pilot_of[i] for i in range(k) if master[i] == master[k]}
        candidates = [t for t in range(tau_p) if t not in blocked]
        if not candidates:
            candidates = list(range(tau_p))
        # argmin with ties broken by lowest pilot index
        pilot_of[k] = min(candidates, key=lambda t: (interference[t], t))

    serving = np.zeros((L, K), dtype=bool)
    for l in range(L):
        for t in np.unique(pilot_of):
            claimants = np.where((master == l) & (pilot_of == t))[0]
            if claimants.size:
                serving[l, claimants] = True
            else:
                copilots = np.where(pilot_of == t)[0]
                serving[l, copilots[np.argmax(beta[copilots, l])]] = True
    serving[master, np.arange(K)] = True

    return Association(pilot_of, master, serving)
