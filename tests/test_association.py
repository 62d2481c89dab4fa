import numpy as np
import pytest

from cfris.association import assign_pilots_and_clusters
from cfris.config import SimConfig
from cfris.network import NetworkRealization, generate_realization


def make_realization(beta):
    beta = np.asarray(beta, dtype=float)
    K, L = beta.shape
    return NetworkRealization(
        ap_positions=np.zeros((L, 2)),
        ue_positions=np.zeros((K, 2)),
        beta=beta,
        shadowing_db=np.zeros((K, L)),
    )


def cfg_for(beta, tau_p):
    K, L = np.asarray(beta).shape
    return SimConfig(L=L, K=K, M=2, N=4, tau_p=tau_p, ris_rows=2, ris_cols=2)


class TestHandTraced:
    """Fully hand-worked 3-AP / 4-UE / 2-pilot instance."""

    beta = [
        [10.0, 1.0, 1.0],
        [1.0, 10.0, 1.0],
        [8.0, 2.0, 1.0],
        [1.0, 9.0, 3.0],
    ]

    def assoc(self):
        return assign_pilots_and_clusters(make_realization(self.beta), cfg_for(self.beta, 2))

    def test_masters(self):
        assert self.assoc().master_ap.tolist() == [0, 1, 0, 1]

    def test_pilots(self):
        # UE2 cannot reuse pilot 0 (already claimed at master AP 0 by UE0);
        # UE3 cannot reuse pilot 1 (claimed at master AP 1 by UE1)
        assert self.assoc().pilot_of.tolist() == [0, 1, 1, 0]

    def test_served_sets(self):
        assoc = self.assoc()
        assert sorted(assoc.served_sets[0]) == [0, 2]
        assert sorted(assoc.served_sets[1]) == [1, 3]
        # AP 2 has no master claimants: strongest co-pilot UE per pilot
        assert sorted(assoc.served_sets[2]) == [1, 3]

    def test_serving_sets(self):
        assoc = self.assoc()
        assert assoc.serving_sets[0] == [0]
        assert assoc.serving_sets[1] == [1, 2]
        assert assoc.serving_sets[2] == [0]
        assert assoc.serving_sets[3] == [1, 2]

    def test_pmmse_partners(self):
        assoc = self.assoc()
        assert assoc.pmmse_partners(0) == [0, 2]
        assert assoc.pmmse_partners(1) == [1, 3]
        assert assoc.pmmse_partners(2) == [0, 2]
        assert assoc.pmmse_partners(3) == [1, 3]


class TestEdgeCases:
    def test_single_ue(self):
        beta = [[1.0, 2.0]]
        assoc = assign_pilots_and_clusters(make_realization(beta), cfg_for(beta, 1))
        assert assoc.pilot_of.tolist() == [0]
        assert assoc.master_ap.tolist() == [1]
        # both APs serve the only UE (strongest co-pilot rule)
        assert assoc.serving_matrix.all()

    def test_more_pilots_than_ues(self):
        beta = [[1.0], [2.0]]
        assoc = assign_pilots_and_clusters(make_realization(beta), cfg_for(beta, 5))
        assert assoc.pilot_of.tolist() == [0, 1]  # no pilot is shared

    def test_all_ues_same_master_forced_reuse(self):
        # 3 UEs, 2 pilots, one AP: reuse is unavoidable; the third UE takes
        # the pilot with the least accumulated interference at the master
        beta = [[10.0], [9.0], [8.0]]
        assoc = assign_pilots_and_clusters(make_realization(beta), cfg_for(beta, 2))
        assert assoc.pilot_of.tolist() == [0, 1, 1]  # 9 < 10
        assert assoc.master_ap.tolist() == [0, 0, 0]
        # masters always serve, even with a shared pilot
        assert assoc.serving_matrix.all()


class TestProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_invariants_on_random_drops(self, seed):
        cfg = SimConfig(L=12, K=15, M=2, N=4, tau_p=4, ris_rows=2, ris_cols=2)
        real = generate_realization(cfg, np.random.default_rng(seed))
        assoc = assign_pilots_and_clusters(real, cfg)

        assert np.all((assoc.pilot_of >= 0) & (assoc.pilot_of < 4))
        # first tau_p UEs hold mutually orthogonal pilots
        assert sorted(assoc.pilot_of[:4].tolist()) == [0, 1, 2, 3]
        # master is the strongest AP and always serves
        assert np.array_equal(assoc.master_ap, np.argmax(real.beta, axis=1))
        assert np.all(assoc.serving_matrix[assoc.master_ap, np.arange(cfg.K)])
        # every UE is served by at least one AP; every AP serves someone
        assert np.all(assoc.serving_matrix.any(axis=0))
        assert np.all(assoc.serving_matrix.any(axis=1))

        for l in range(cfg.L):
            served = np.where(assoc.serving_matrix[l])[0]
            pilots, counts = np.unique(assoc.pilot_of[served], return_counts=True)
            # every pilot in use appears among AP l's served UEs
            assert set(pilots) == set(np.unique(assoc.pilot_of))
            # duplicates on a pilot only happen through forced master claims
            for t, c in zip(pilots, counts):
                if c > 1:
                    dupes = served[assoc.pilot_of[served] == t]
                    assert np.all(assoc.master_ap[dupes] == l)

        # set views agree with the matrix
        for k in range(cfg.K):
            assert assoc.serving_sets[k] == list(np.where(assoc.serving_matrix[:, k])[0])
            assert k in assoc.pmmse_partners(k)



def loop_reference(beta, tau_p):
    """The per-UE and per-(AP, pilot) loops the array code replaced, written out."""
    K, L = beta.shape
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
        candidates = [t for t in range(tau_p) if t not in blocked] or list(range(tau_p))
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
    return pilot_of, serving


class TestAgainstLoopReference:
    @pytest.mark.parametrize("seed, kind", enumerate(["integer", "continuous", "unused_pilots", "one_master"]))
    def test_bit_equal_on_random_beta(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            K, L, tau_p = int(rng.integers(1, 25)), int(rng.integers(1, 12)), int(rng.integers(1, 12))
            if kind == "integer":              # small integers force ties in both argmins
                beta = rng.integers(1, 4, size=(K, L)).astype(float)
            elif kind == "continuous":
                beta = rng.exponential(size=(K, L))
            elif kind == "unused_pilots":      # K < tau_p
                K = int(rng.integers(1, tau_p + 1))
                tau_p += 1
                beta = rng.integers(1, 3, size=(K, L)).astype(float)
            else:                              # K > tau_p, every pilot claimed at AP 0
                K = tau_p + int(rng.integers(1, 8))
                beta = rng.uniform(size=(K, L))
                beta[:, 0] += 10.0
            assoc = assign_pilots_and_clusters(make_realization(beta), cfg_for(beta, tau_p))
            pilot_of, serving = loop_reference(beta, tau_p)
            assert assoc.pilot_of.dtype == pilot_of.dtype and np.array_equal(assoc.pilot_of, pilot_of)
            assert np.array_equal(assoc.serving_matrix, serving)
