"""Benchmark workloads: the SimConfig each one hands to the program.

Every workload is a fixed drop geometry, a scenario list and a block count.
The seed given on the command line becomes ``SimConfig.seed`` unchanged, so
the program receives nothing but the config built here.

- ``dense``: the paper's default drop. K <= tau_p, so DCC makes every AP
  serve every UE and all UEs form one (serving set, partner set) group; the
  SE kernel dominates, ``no_ris_large`` most of all.
- ``crowded``: twice the APs and UEs on the same area with the scenarios of
  acceptance criterion 3. K > tau_p, so UEs get their own serving and
  partner sets; the arrays and the correlation build are the largest. Not
  listed in BENCHMARK.json: one run costs about 50 s for a single window
  per thread count, and its throughput spreads too much between runs on a
  shared 2-core machine (README). It runs by hand with the same command.
- ``longterm``: the crowded geometry with the two RIS scenarios and a
  handful of blocks, so the per-drop statistics (N-grid correlation, phase
  optimisation, estimator bank) dominate and the SE kernel is small.
"""

from dataclasses import dataclass, replace

from cfris import SimConfig

_TINY_DENSE = dict(L=6, K=3, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=3)
_TINY_CROWDED = dict(L=8, K=5, M=2, N=4, ris_rows=2, ris_cols=2, tau_p=3)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict         # SimConfig fields that define the drop
    scenarios: tuple
    checked: tuple      # scenarios whose first drop is replayed against the reference path
    drops: int          # drops per pass; even, so both workers of the threads=2 pass stay busy
    pass_s: float       # nominal seconds of one threads=1 plus one threads=2 pass, 2-core machine
    tiny: dict          # the same structure at toy size, for the warm-up and the smoke test

    def repeats(self, seconds):
        """How many times each timed pass runs so that all of them take about ``seconds``.

        The count depends on ``seconds`` only, never on measured speed, so
        a seed always yields the same operations.
        """
        return max(1, round(seconds / self.pass_s))

    def config(self, seed):
        return SimConfig(**self.sizes, mc_setups=self.drops, seed=seed)

    def shrunk(self):
        return replace(self, sizes=self.tiny, pass_s=0.1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            sizes=dict(L=50, K=10, M=4, N=36, tau_p=10, mc_channel_realizations=100),
            scenarios=("ris_optimized", "ris_random", "no_ris_small", "no_ris_large"),
            checked=("ris_optimized", "no_ris_small"),
            drops=2,
            pass_s=18.5,
            tiny=dict(_TINY_DENSE, mc_channel_realizations=4),
        ),
        Workload(
            name="crowded",
            sizes=dict(L=100, K=20, M=4, N=36, tau_p=10, mc_channel_realizations=50),
            scenarios=("ris_optimized", "no_ris_small", "no_ris_large"),
            checked=("ris_optimized", "no_ris_small"),
            drops=2,
            pass_s=42.0,
            tiny=dict(_TINY_CROWDED, mc_channel_realizations=4),
        ),
        Workload(
            name="longterm",
            sizes=dict(L=100, K=20, M=4, N=36, tau_p=10, mc_channel_realizations=4),
            scenarios=("ris_optimized", "ris_random"),
            checked=("ris_optimized", "ris_random"),
            drops=2,
            pass_s=6.0,
            tiny=dict(_TINY_CROWDED, mc_channel_realizations=2),
        ),
    )
}
