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
    """Pilots in UE order, then serving as array code over the (tau_p, K) pilot one-hot."""
    beta = real.beta
    K, L = beta.shape
    tau_p = cfg.tau_p
    master = np.argmax(beta, axis=1)
    pilot_of = np.arange(K)                 # UE k < tau_p keeps pilot k
    for k in range(tau_p, K):
        # summed in UE order, as a per-UE loop would, so ties resolve the same way
        interference = np.bincount(pilot_of[:k], weights=beta[:k, master[k]], minlength=tau_p)
        blocked = np.zeros(tau_p, dtype=bool)
        blocked[pilot_of[:k][master[:k] == master[k]]] = True
        if not blocked.all():
            interference[blocked] = np.inf
        pilot_of[k] = np.argmin(interference)   # ties go to the lowest pilot index

    # per (pilot, AP): the strongest co-pilot UE (first index on ties), unless a master claims it
    onehot = pilot_of == np.arange(tau_p)[:, None]                          # (tau_p, K)
    strongest = np.argmax(np.where(onehot[:, :, None], beta, -np.inf), axis=1)   # (tau_p, L)
    claimed = np.zeros((tau_p, L), dtype=bool)
    claimed[pilot_of, master] = True
    t, l = np.nonzero(onehot.any(axis=1)[:, None] & ~claimed)
    serving = np.zeros((L, K), dtype=bool)
    serving[l, strongest[t, l]] = True
    serving[master, np.arange(K)] = True

    return Association(pilot_of, master, serving)
