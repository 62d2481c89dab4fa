"""Monte Carlo orchestration, CDF aggregation, and report I/O.

Four scenarios are supported: the RIS-integrated array with optimized or
random phase-shifts, and conventional arrays with M or N antennas. The
RIS scenarios and the N-antenna baseline share the identical correlation
matrices per realization, so their comparison is paired. Every random
stream is derived from (seed, purpose, realization, scenario) counters,
which makes the output independent of the worker count.
"""

import csv
import numbers
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .association import assign_pilots_and_clusters
from .config import config_text, load_config
from .estimation import EffectiveStats, effective_front
from .exceptions import CfrisError, ConfigError, ModelError
from .linalg import hermitian_gram, one_blas_thread, tril_inv
from .network import (
    ChannelStats,
    active_array_positions,
    build_ap_ris_channels,
    generate_realization,
    ris_grid_positions,
    spatial_correlation_matrices,
)
from .ris import select_long_term_config

# scenario -> (element layout of its correlation stack, phase mode or None without a RIS);
# a scenario's index seeds its phase and block streams, so reordering changes every SE
_SCENARIO_TABLE = {
    "ris_optimized": (ris_grid_positions, "optimized"),
    "ris_random": (ris_grid_positions, "random"),
    "no_ris_small": (active_array_positions, None),
    "no_ris_large": (ris_grid_positions, None),
}
SCENARIOS = tuple(_SCENARIO_TABLE)
COMBINERS = ("pmmse", "mmse")

# stream tags for counter-based seeding
_TAG_NETWORK = 1
_TAG_BLOCKS = 2
_TAG_PHASES = 3
_TAG_FRONT = 4

_BLOCK_CHUNK = 16   # blocks per kernel chunk, one alive at a time: it bounds memory only, since
                    # every chunk continues one block stream and the sum over blocks runs in block order


@dataclass
class ExperimentSpec:
    cfg: object
    scenarios: tuple = SCENARIOS
    combiner: str = "pmmse"
    threads: int = 1

    def validate(self):
        self.cfg.validate()
        if not self.scenarios:
            raise ConfigError("scenarios", "a run needs at least one scenario")
        for name in self.scenarios:
            if name not in _SCENARIO_TABLE:
                raise ConfigError("scenarios", f"unknown scenario {name!r}")
            if self.scenarios.count(name) > 1:
                raise ConfigError("scenarios", f"scenario {name!r} listed twice")
        if self.combiner not in COMBINERS:
            raise ConfigError("combiner", f"unknown combiner {self.combiner!r}")
        if isinstance(self.threads, bool) or not isinstance(self.threads, numbers.Integral) or self.threads < 1:
            raise ConfigError("threads", f"must be an integer of at least 1, got {self.threads!r}")
        if self.threads > 1 and not hasattr(os, "fork"):
            raise ConfigError("threads", "more than one worker needs os.fork, which this platform lacks")
        return self


@dataclass
class SeReport:
    scenarios: list
    se: dict            # scenario -> (mc_setups, K) per-UE SE, bit/s/Hz
    config: object = None   # the run's SimConfig

    def samples(self, scenario):
        return self.se[scenario].reshape(-1)

    def cdf(self, scenario):
        values = np.sort(self.samples(scenario))
        probs = np.arange(1, values.size + 1) / values.size
        return values, probs

    def median(self, scenario):
        return float(np.median(self.samples(scenario)))

    def percentile(self, scenario, q):
        return float(np.percentile(self.samples(scenario), q))


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def front_channels(cfg):
    """Fixed per-AP front matrices, seeded by (seed, AP index) only."""
    return build_ap_ris_channels(cfg, [_rng(cfg.seed, _TAG_FRONT, l) for l in range(cfg.L)])


def block_batched_se(stats, assoc, cfg, rng, combiner="pmmse", n_blocks=None):
    """Per-UE spectral efficiency averaged over coherence blocks.

    On UE k's serving APs the combiner solves (Lambda + G G^H) v = ghat_k,
    Lambda being the partners' block-diagonal error-plus-noise blocks and G
    = [sqrt(eta) ghat_i] over the partners. Each group of UEs with one serving
    set takes one pass per chunk of blocks: it whitens each AP block once for
    all K UEs, Lambda = C C^H and W = C^-1 sqrt(eta) ghat, and reads P = W^H W
    (G^H Lambda^-1 G over the partners) as W's real Gram (linalg.hermitian_gram).
    S = I + P with the non-partners' rows and columns masked to zero, so y, UE
    k's column of S^-1, is zero off the partners and v = C^-H W y up to a scale
    the SINR ignores: G^H v = P y, the signal is q_k^2 and the other partners'
    power plus v^H Lambda v is y_k q_k, where y_k = [S^-1]_kk and q_k = [P
    S^-1]_kk = 1 - y_k, formed as a product. SINR_k = q_k^2 / (y_k q_k + eps_k),
    eps_k being the non-partners' power plus v^H Delta v (Delta = eta sum F_i
    over them): (P y)_i = (C^-1 sqrt(eta) ghat_i)^H u with u = W y = C^H v, so
    non-partner i's power is |(P y)_i|^2, and u is formed only for u^H D u, D
    = C^-1 Delta C^-H. A lone group on every AP (K <= tau_p, or L = 1) writes W over the
    estimates' memory, any other group into one fresh array. Each chunk of blocks is drawn, then evaluated.
    """
    if n_blocks is None:
        n_blocks = cfg.mc_channel_realizations
    K, m, eta, sigma2 = stats.K, stats.m, cfg.data_power_w, cfg.noise_power_w

    def f_sum(ues, idx):   # sum of F[i, idx] over ues, one term at a time in the order .sum(axis=0) adds them
        return sum((stats.F[i].take(idx, axis=0) for i in ues[1:]), stats.F[ues[0]].take(idx, axis=0))
    groups = {}
    for k, serving in enumerate(assoc.serving_sets):
        groups.setdefault(tuple(serving), []).append(k)
    plan = []
    for serving, members in groups.items():
        # P-MMSE partners are the UEs on a serving AP, so one serving set has one partner set
        partners = assoc.pmmse_partners(members[0]) if combiner == "pmmse" else range(K)
        idx, partner = np.array(serving), np.isin(np.arange(K), partners)
        others = list(np.flatnonzero(~partner))
        c_inv = tril_inv(np.linalg.cholesky(eta * f_sum(partners, idx) + sigma2 * np.eye(m)))   # Lambda = C C^H
        delta_w = (c_inv @ (eta * f_sum(others, idx)) @ c_inv.conj().swapaxes(1, 2)
                   if others else None)                    # D = C^-1 Delta C^-H
        c_inv *= np.sqrt(eta)                              # the plan keeps only sqrt(eta) C^-1
        # a whole axis is a slice, so the block loop views the estimates instead of copying them
        plan.append((slice(None) if idx.size == stats.L else idx, np.outer(partner, partner), others,
                     c_inv, delta_w, members))

    sum_log = np.zeros(K)
    for start in range(0, n_blocks, _BLOCK_CHUNK):
        # each chunk continues the one block stream; its draws are passed on, not kept, so one chunk is alive at a time
        b = min(_BLOCK_CHUNK, n_blocks - start)
        _add_chunk_log_sinr(sum_log, stats, plan, stats.sample_pilot_statistics(rng, b))
    return (cfg.tau_c - cfg.tau_p) / cfg.tau_c * sum_log / n_blocks


def _add_chunk_log_sinr(sum_log, stats, plan, w):
    """Add each UE's log2(1 + SINR) over the chunk of blocks whose pilot draws are w to sum_log, block by block.

    The chunk's estimates are formed over w, and they and the products live
    in this frame only, so the caller frees them with w.
    """
    K, m, b = stats.K, stats.m, w.shape[0]
    ghat = stats.effective_estimates(w)   # (b, L, m, K)
    log_sinr = np.empty((b, K))           # C order: row i holds block i's log2(1 + SINR)
    for idx, mask, others, c_inv, delta_w, members in plan:
        # W = sqrt(eta) C^-1 ghat on the serving APs for all K UEs, (b, d, K), block by block, over the estimates'
        # memory in a lone group on every AP, their only reader (a view: each block's estimates are contiguous)
        w = (ghat.transpose(0, 3, 1, 2).reshape(b, -1).reshape(b, -1, K) if len(plan) == 1 and isinstance(idx, slice)
             else np.empty((b, c_inv.shape[0] * m, K), complex))
        for i in range(b):
            w[i] = (c_inv @ ghat[i, idx]).reshape(-1, K)
        p = hermitian_gram(w)                               # P = W^H W, (b, K, K)
        # S = I + P over the partner pairs, identity on the non-partners: S^-1 is zero off the partners
        y = np.linalg.inv(np.where(mask, p, 0) + np.eye(K))[..., members]   # members' columns of S^-1, (b, K, n)
        y_k, q_k = np.einsum("bnn->bn", y[:, members]).real, np.einsum("bnp,bpn->bn", p[:, members], y).real
        eps = 0.0
        if others:
            eps = np.sum(np.abs(p[:, others] @ y) ** 2, axis=1)   # the non-partners' power |(P y)_i|^2
            ub = (w @ y).reshape(b, c_inv.shape[0], m, -1)      # u = W y = C^H v for the members' combiners v
            eps += np.sum(ub.conj() * (delta_w @ ub), axis=(1, 2)).real
        # a Gram that underflows to 0 gives q_k = 0: SINR 0, not 0/0
        sinr = np.divide(q_k**2, y_k * q_k + eps, out=np.zeros_like(q_k), where=q_k != 0)
        log_sinr[:, members] = np.log2(1.0 + sinr)
    for row in log_sinr:   # in block order, so the sum is the same for any chunk size
        sum_log += row


def _run_setup(cfg, scenarios, combiner, fronts, setup_idx):
    """All scenarios for one network realization; returns (n_scen, K). A layout's correlation
    stack is built for the first scenario that reads it and kept until the drop ends."""
    real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, setup_idx))
    assoc = assign_pilots_and_clusters(real, cfg)
    stacks = {}
    out = np.empty((len(scenarios), cfg.K))
    for j, name in enumerate(scenarios):
        layout, mode = _SCENARIO_TABLE[name]
        scen_id = SCENARIOS.index(name)
        if layout not in stacks:
            stacks[layout] = spatial_correlation_matrices(real, cfg, layout(cfg))
        front = None
        if mode is not None:
            psi = select_long_term_config(ChannelStats(stacks[layout], fronts), assoc, cfg, mode=mode,
                                          rng=_rng(cfg.seed, _TAG_PHASES, setup_idx, scen_id))
            front = effective_front(fronts, psi)
        try:
            stats = EffectiveStats(stacks[layout], front, assoc.pilot_of, cfg)
            out[j] = block_batched_se(stats, assoc, cfg, _rng(cfg.seed, _TAG_BLOCKS, setup_idx, scen_id),
                                      combiner=combiner)
        except np.linalg.LinAlgError as exc:   # a singular matrix, from the drop's values
            raise ModelError(f"setup {setup_idx}, scenario {name}: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(out[j]))
        if bad.size:
            raise ModelError(f"setup {setup_idx}, scenario {name}: non-finite SE for UE {bad[0]}")
    return out


def run_experiment(spec):
    spec.validate()
    cfg = spec.cfg
    scenarios = list(spec.scenarios)
    fronts = front_channels(cfg) if any(_SCENARIO_TABLE[name][1] for name in scenarios) else None
    # more workers than usable CPUs would only queue, each holding a copy-on-write heap
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(spec.threads, cfg.mc_setups, cpus)
    with one_blas_thread():
        se = _run_setups((cfg, scenarios, spec.combiner, fronts), cfg.mc_setups, workers)
    return SeReport(scenarios, dict(zip(scenarios, np.stack(se, axis=1))), cfg)


def _run_setups(job, n, workers):
    """_run_setup(*job, i) for i < n, in order: the caller runs setups 0, workers, 2 workers, ... and workers - 1
    forked processes the rest. An error is the first failing setup's, as with one worker."""
    if workers == 1:
        return [_run_setup(*job, i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    out, caller_error = [None] * n, None
    pool = ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"))   # keeps the caller's module state
    try:
        futures = {i: pool.submit(_run_setup, *job, i) for i in range(n) if i % workers}
        for i in range(0, n, workers):
            try:
                out[i] = _run_setup(*job, i)
            except Exception as exc:   # only a child's earlier setup can have failed first
                caller_error, n = exc, i
                break
        for i in filter(futures.__contains__, range(n)):
            try:
                out[i] = futures[i].result()
            except BrokenExecutor as exc:
                raise CfrisError(f"setup {i}: its worker process died ({exc})") from exc
    finally:
        pool.shutdown(cancel_futures=True)
    if caller_error is not None:
        raise caller_error
    return out


def emit_report(report, out_dir):
    """Write the sample CSV, one CDF CSV per scenario, and the manifest; remove any other scenario's CDF CSV.

    Floats are serialized with repr, so parsing the files reproduces the
    in-memory report exactly; the manifest is a config file that
    load_config reads back into the same SimConfig. Returns the list of
    written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    for stale in (os.path.join(out_dir, f"cdf_{name}.csv") for name in SCENARIOS if name not in report.scenarios):
        if os.path.exists(stale):   # left by an earlier run into out_dir
            os.remove(stale)
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(config_text(report.config))
    paths = [manifest_path, _write_csv(
        os.path.join(out_dir, "se_samples.csv"), ["scenario", "realization", "ue", "se"],
        ([name, setup, ue, repr(float(value))] for name in report.scenarios
         for (setup, ue), value in np.ndenumerate(report.se[name])))]
    for name in report.scenarios:
        values, probs = report.cdf(name)
        paths.append(_write_csv(os.path.join(out_dir, f"cdf_{name}.csv"), ["se", "cdf"],
                                ([repr(float(value)), repr(float(prob))] for value, prob in zip(values, probs))))
    return paths


def _write_csv(path, header, rows):
    """Write a CSV file at path, the header row and then rows; returns path."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(chain([header], rows))
    return path


def load_report(out_dir):
    """Rebuild a SeReport from an emitted output directory.

    ``config`` is the manifest read by load_config, so it is validated, and
    it fixes every scenario's grid at (mc_setups, K); the scenarios are
    those of ``se_samples.csv`` in order of first appearance. A row with a
    missing or unparsable field, a scenario outside SCENARIOS, an SE that is not
    finite and non-negative, or a cell off the grid raises CfrisError naming its line and scenario;
    unless each scenario's (realization, ue) cells cover the grid exactly
    once, CfrisError names the scenario and the first missing or repeated
    cell. A file without a sample row raises CfrisError naming the file.
    """
    config = load_config(os.path.join(out_dir, "manifest.txt"))
    setups, ues = config.mc_setups, config.K
    data_path = os.path.join(out_dir, "se_samples.csv")
    rows = {}
    with open(data_path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            try:   # a missing column raises KeyError, a short row reads None
                name, entry = row["scenario"], (int(row["realization"]), int(row["ue"]), float(row["se"]))
                if name not in SCENARIOS:
                    raise ValueError(f"unknown scenario {name!r}")
                if not 0 <= entry[2] < float("inf"):
                    raise ValueError(f"SE {row['se']} is not a finite non-negative number")
            except (KeyError, TypeError, ValueError) as exc:
                raise CfrisError(f"{data_path}: row {reader.line_num}, scenario {row.get('scenario')}: "
                                 f"malformed sample ({exc!r})") from exc
            if not (0 <= entry[0] < setups and 0 <= entry[1] < ues):
                raise CfrisError(f"{data_path}: row {reader.line_num}, scenario {name}: realization {entry[0]}, "
                                 f"ue {entry[1]} lies off the manifest's {setups} x {ues} grid")
            rows.setdefault(name, []).append(entry)
    if not rows:   # an empty or header-only file, as a truncated output directory leaves
        raise CfrisError(f"{data_path}: no samples")
    se = {}
    for name, entries in rows.items():
        setup, ue, value = zip(*entries)
        count = Counter(zip(setup, ue))
        cell = next((c for c in (divmod(i, ues) for i in range(setups * ues)) if count[c] != 1), None)
        if cell is not None:
            raise CfrisError(f"{data_path}: scenario {name}: realization {cell[0]}, ue {cell[1]} is "
                             f"{'missing' if count[cell] == 0 else 'repeated'}")
        se[name] = np.empty((setups, ues))
        se[name][setup, ue] = value
    return SeReport(scenarios=list(rows), se=se, config=config)
