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
import threading
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .association import assign_pilots_and_clusters
from .config import load_config
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

_BLOCK_CHUNK = 16   # blocks per kernel chunk, two alive while the next is drawn: it bounds memory only, since
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
    estimates' memory, any other group into one fresh array. This thread draws the first chunk of blocks;
    a helper thread draws chunk i + 1 while this thread evaluates chunk i, and is joined before the call returns
    or raises.
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
    sizes = [min(_BLOCK_CHUNK, n_blocks - start) for start in range(0, n_blocks, _BLOCK_CHUNK)]
    w = stats.sample_pilot_statistics(rng, sizes[0])   # nothing to overlap the first chunk's draw with
    for b in sizes[1:]:
        # chunk i + 1 is filled after chunk i's fill was joined, so the chunks continue one block stream
        draw = _ChunkDraw(stats, rng, b)
        try:
            _add_chunk_log_sinr(sum_log, stats, plan, w)
        finally:
            draw.join()
        w = draw.result()   # drops chunk i, so at most two chunks are alive
    _add_chunk_log_sinr(sum_log, stats, plan, w)
    return (cfg.tau_c - cfg.tau_p) / cfg.tau_c * sum_log / n_blocks


class _ChunkDraw(threading.Thread):
    """A helper thread that fills a chunk of b blocks with the block stream's pilot draws.

    The calling thread allocates the chunk, so once freed it returns to that
    thread's malloc arena. The helper does no BLAS; result() joins it and
    re-raises on the calling thread what the fill raised.
    """

    def __init__(self, stats, rng, b):
        super().__init__(name="cfris-pilot-draw")
        self.w = np.empty((b, stats.tau_p, stats.L, stats.m), complex)
        self._fill, self._rng, self._error = stats.fill_pilot_statistics, rng, None
        self.start()

    def run(self):
        try:
            self._fill(self._rng, self.w)
        except Exception as error:
            self._error = error

    def result(self):
        self.join()
        if self._error is not None:
            raise self._error
        return self.w


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
        with np.errstate(invalid="ignore"):   # a Gram that underflows to 0 gives q_k = 0: SINR 0, not 0/0
            sinr = q_k**2 / (y_k * q_k + eps)
        sinr[q_k == 0] = 0.0
        log_sinr[:, members] = np.log2(1.0 + sinr)
    for row in log_sinr:   # in block order, so the sum is the same for any chunk size
        sum_log += row


def _run_setup(cfg, scenarios, combiner, fronts, setup_idx):
    """All scenarios for one network realization; returns (n_scen, K). A layout's correlation
    stack is built for the first scenario that reads it and freed after the last one's bank."""
    real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, setup_idx))
    assoc = assign_pilots_and_clusters(real, cfg)
    layouts = [_SCENARIO_TABLE[name][0] for name in scenarios]
    stacks = {}
    out = np.empty((len(scenarios), cfg.K))
    for j, name in enumerate(scenarios):
        layout, mode = _SCENARIO_TABLE[name]
        scen_id = SCENARIOS.index(name)
        if layout not in stacks:
            stacks[layout] = spatial_correlation_matrices(real, cfg, layout(cfg))
        r = stacks[layout] if layout in layouts[j + 1:] else stacks.pop(layout)
        front = None
        if mode is not None:
            psi = select_long_term_config(ChannelStats(r, fronts), assoc, cfg, mode=mode,
                                          rng=_rng(cfg.seed, _TAG_PHASES, setup_idx, scen_id))
            front = effective_front(fronts, psi)
        try:
            stats = EffectiveStats(r, front, assoc.pilot_of, cfg)
            del r
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
    """Write the sample CSV, one CDF CSV per scenario, and the manifest.

    Floats are serialized with repr, so parsing the files reproduces the
    in-memory report exactly; the manifest is a config file that
    load_config reads back into the same SimConfig. Returns the list of
    written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as handle:
        for key, value in asdict(report.config).items():
            handle.write(f"{key} = {value}\n")
    paths.append(manifest_path)

    data_path = os.path.join(out_dir, "se_samples.csv")
    with open(data_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario", "realization", "ue", "se"])
        for name in report.scenarios:
            values = report.se[name]
            for setup in range(values.shape[0]):
                for ue in range(values.shape[1]):
                    writer.writerow([name, setup, ue, repr(float(values[setup, ue]))])
    paths.append(data_path)

    for name in report.scenarios:
        cdf_path = os.path.join(out_dir, f"cdf_{name}.csv")
        values, probs = report.cdf(name)
        with open(cdf_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["se", "cdf"])
            for value, prob in zip(values, probs):
                writer.writerow([repr(float(value)), repr(float(prob))])
        paths.append(cdf_path)
    return paths


def load_report(out_dir):
    """Rebuild a SeReport from an emitted output directory.

    ``config`` is the manifest read by load_config, so it is validated, and
    it fixes every scenario's grid at (mc_setups, K); the scenarios are
    those of ``se_samples.csv`` in order of first appearance. A row with a
    missing or unparsable field, or off the grid, raises CfrisError naming
    its line and scenario; unless each scenario's (realization, ue) cells
    cover the grid exactly once, CfrisError names the scenario and the
    first missing or repeated cell.
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
            except (KeyError, TypeError, ValueError) as exc:
                raise CfrisError(f"{data_path}: row {reader.line_num}, scenario {row.get('scenario')}: "
                                 f"malformed sample ({exc!r})") from exc
            if not (0 <= entry[0] < setups and 0 <= entry[1] < ues):
                raise CfrisError(f"{data_path}: row {reader.line_num}, scenario {name}: realization {entry[0]}, "
                                 f"ue {entry[1]} lies off the manifest's {setups} x {ues} grid")
            rows.setdefault(name, []).append(entry)
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
