"""Spans and counters around the calls into each cfris module.

The program itself holds no timing code. ``instrument`` swaps the public
functions that ``run_experiment`` reaches for wrappers that record a span
(name, start, end, parent) or bump a counter, and puts the originals back on
exit. Spans stay in memory until ``dump``. A span's self time is its
duration minus the durations of its direct children; since the traced pass
is single-threaded, children never overlap.
"""

import functools
import json
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import cfris.estimation
import cfris.experiment
import cfris.network
import cfris.ris


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """Spans and counters of one single-threaded traced pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = Counter()    # calls per counted function
        self.blocks = 0            # coherence blocks the SE kernels sampled
        self.associations = []     # every Association the pass produced
        self._open = []
        self._grid = None          # last N-grid correlation array
        self._mode = None          # last phase-selection mode
        self._scenario = weakref.WeakKeyDictionary()   # EffectiveStats -> scenario

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self):
        """Total self time per span name, in seconds."""
        total = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts), "blocks": self.blocks}, handle)

    def cost_estimate(self, n=20000):
        """Seconds the recorded spans and counted calls added, from a timed loop of empty ones."""
        probe = Tracer()
        noop = _counted(probe, "noop", lambda: None)
        start = time.perf_counter()
        for _ in range(n):
            with probe.span("noop"):
                pass
        middle = time.perf_counter()
        for _ in range(n):
            noop()
        end = time.perf_counter()
        return (len(self.spans) * (middle - start) + sum(self.counts.values()) * (end - middle)) / n


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def instrument(tracer):
    """Context manager that routes the cfris calls of a run through ``tracer``."""
    exp, net, ris = cfris.experiment, cfris.network, cfris.ris
    stats_cls = cfris.estimation.EffectiveStats

    assign = exp.assign_pilots_and_clusters
    correlation = exp.spatial_correlation_matrices
    select = exp.select_long_term_config
    bank_init = stats_cls.__init__
    sample = stats_cls.sample_pilot_statistics
    kernel = exp.block_batched_se

    def traced_assign(real, cfg):
        with tracer.span("association.assign"):
            assoc = assign(real, cfg)
        tracer.associations.append(assoc)
        return assoc

    def traced_correlation(real, cfg, element_positions):
        grid = np.array_equal(element_positions, net.ris_grid_positions(cfg))
        with tracer.span("network.correlation_grid" if grid else "network.correlation_array"):
            r = correlation(real, cfg, element_positions)
        if grid:
            tracer._grid = r
        return r

    def traced_select(stats, assoc, cfg, mode="optimized", rng=None):
        tracer._mode = mode
        with tracer.span(f"ris.select_{mode}"):
            return select(stats, assoc, cfg, mode=mode, rng=rng)

    def traced_bank_init(self, R, fronts, pilot_of, cfg):
        with tracer.span("estimation.bank"):
            bank_init(self, R, fronts, pilot_of, cfg)
        if fronts is not None:
            tracer._scenario[self] = f"ris_{tracer._mode}"
        else:
            tracer._scenario[self] = "no_ris_large" if R is tracer._grid else "no_ris_small"

    def traced_sample(self, rng, blocks):
        tracer.blocks += blocks
        with tracer.span("estimation.pilot_sampling"):
            return sample(self, rng, blocks)

    def traced_kernel(stats, *args, **kwargs):
        with tracer.span("experiment.se_kernel." + tracer._scenario.get(stats, "unknown")):
            return kernel(stats, *args, **kwargs)

    return patched([
        (exp, "front_channels", _timed(tracer, "experiment.front_channels", exp.front_channels)),
        (exp, "generate_realization", _timed(tracer, "network.realization", exp.generate_realization)),
        (exp, "assign_pilots_and_clusters", traced_assign),
        (exp, "spatial_correlation_matrices", traced_correlation),
        (net, "build_spatial_correlation",
         _counted(tracer, "correlation_calls", net.build_spatial_correlation)),
        (exp, "select_long_term_config", traced_select),
        (ris, "hermitian_eig", _timed(tracer, "ris.eig", ris.hermitian_eig)),
        (ris, "quadratic_objective", _counted(tracer, "quadratic_objective", ris.quadratic_objective)),
        (ris, "constrained_power_iteration",
         _counted(tracer, "power_iteration_runs", ris.constrained_power_iteration)),
        (stats_cls, "__init__", traced_bank_init),
        (stats_cls, "sample_pilot_statistics", traced_sample),
        (stats_cls, "effective_estimates",
         _timed(tracer, "estimation.estimates", stats_cls.effective_estimates)),
        (exp, "block_batched_se", traced_kernel),
    ])
