"""Monte Carlo orchestration, CDF aggregation, and report I/O.

Four scenarios are supported: the RIS-integrated array with optimized or
random phase-shifts, and conventional arrays with M or N antennas. The
RIS scenarios and the N-antenna baseline share the identical correlation
matrices per realization, so their comparison is paired. Every random
stream is derived from (seed, purpose, realization, scenario) counters,
which makes the output independent of thread scheduling.
"""

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .association import assign_pilots_and_clusters
from .config import parse_config_text
from .estimation import EffectiveStats, effective_front
from .exceptions import ConfigError, ModelError
from .network import (
    ChannelStats,
    active_array_positions,
    build_ap_ris_channel,
    generate_realization,
    ris_grid_positions,
    spatial_correlation_matrices,
)
from .ris import select_long_term_config

SCENARIOS = ("ris_optimized", "ris_random", "no_ris_small", "no_ris_large")
_SCENARIO_ID = {name: i for i, name in enumerate(SCENARIOS)}

# stream tags for counter-based seeding
_TAG_NETWORK = 1
_TAG_BLOCKS = 2
_TAG_PHASES = 3
_TAG_FRONT = 4

_BLOCK_CHUNK = 32


@dataclass
class ExperimentSpec:
    cfg: object
    scenarios: tuple = SCENARIOS
    combiner: str = "pmmse"
    threads: int = 1

    def validate(self):
        self.cfg.validate()
        for name in self.scenarios:
            if name not in _SCENARIO_ID:
                raise ConfigError("scenarios", f"unknown scenario {name!r}")
        if self.combiner not in ("pmmse", "mmse"):
            raise ConfigError("combiner", f"unknown combiner {self.combiner!r}")
        if self.threads < 1:
            raise ConfigError("threads", "need at least one worker thread")
        return self


@dataclass
class SeReport:
    scenarios: list
    se: dict            # scenario -> (mc_setups, K) per-UE SE, bit/s/Hz
    config: dict = field(default_factory=dict)

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
    return np.stack(
        [build_ap_ris_channel(cfg, _rng(cfg.seed, _TAG_FRONT, l)) for l in range(cfg.L)]
    )


def block_batched_se(stats, assoc, cfg, rng, combiner="pmmse", n_blocks=None):
    """Per-UE spectral efficiency averaged over coherence blocks.

    On UE k's serving APs the combiner solves (Lambda + G G^H) v = ghat_k,
    Lambda being the partners' block-diagonal error-plus-noise blocks and G
    = [sqrt(eta) ghat_i] over the partners. With S = I + P, P = G^H Lambda^-1
    G and y UE k's column of S^-1, v = Lambda^-1 G y up to a scale the SINR
    ignores, so G^H v = P y: the signal is q_k^2 and the other partners' power
    plus v^H Lambda v is y_k q_k, where y_k = [S^-1]_kk and q_k = [P S^-1]_kk =
    1 - y_k, formed as a product. SINR_k = q_k^2 / (y_k q_k + eps_k); only
    eps_k, the non-partners' power plus v^H Delta v (Delta = eta sum F_i over
    them), needs v. Each group of UEs with one serving and partner set takes
    one pass per chunk of blocks; one without non-partners forms no v.
    """
    if n_blocks is None:
        n_blocks = cfg.mc_channel_realizations
    K, m, eta, sigma2 = stats.K, stats.m, cfg.data_power_w, cfg.noise_power_w
    groups = {}
    for k, serving in enumerate(assoc.serving_sets):
        partners = assoc.pmmse_partners(k) if combiner == "pmmse" else range(K)
        groups.setdefault((tuple(serving), tuple(partners)), []).append(k)
    plan = []
    for (serving, partners), members in groups.items():
        idx, part = np.array(serving), np.array(partners)
        others = sorted(set(range(K)) - set(partners))
        lam = eta * stats.F[np.ix_(part, idx)].sum(axis=0) + sigma2 * np.eye(m)
        delta = eta * stats.F[np.ix_(others, idx)].sum(axis=0) if others else None
        # a whole axis is a slice, so the block loop views the estimates instead of copying them
        plan.append((slice(None) if idx.size == stats.L else idx, slice(None) if not others else part, others,
                     np.linalg.inv(lam), delta, members, [partners.index(k) for k in members]))

    sum_log = np.zeros(K)
    for start in range(0, n_blocks, _BLOCK_CHUNK):
        b = min(_BLOCK_CHUNK, n_blocks - start)
        ghat = stats.effective_estimates(stats.sample_pilot_statistics(rng, b))  # (b, L, m, K)
        for idx, part, others, lam_inv, delta, members, cols in plan:
            gh = ghat[:, idx].reshape(b, -1, K)                # serving blocks stacked, (b, d, K)
            g = np.sqrt(eta) * gh[..., part]                   # G, (b, d, p)
            a = (lam_inv @ g.reshape(b, lam_inv.shape[0], m, -1)).reshape(g.shape)
            p = g.conj().swapaxes(1, 2) @ a                    # P = G^H Lambda^-1 G, (b, p, p)
            y = np.linalg.inv(p + np.eye(p.shape[1]))[..., cols]   # members' columns of S^-1, (b, p, n)
            y_k, q_k = np.einsum("bnn->bn", y[:, cols]).real, np.einsum("bnp,bpn->bn", p[:, cols], y).real
            eps = 0.0
            if others:
                v = a @ y                                      # members' combiners, (b, d, n)
                vb = v.reshape(b, lam_inv.shape[0], m, -1)
                eps = eta * np.sum(np.abs(v.conj().swapaxes(1, 2) @ gh[..., others]) ** 2, axis=2)
                eps += np.sum(vb.conj() * (delta @ vb), axis=(1, 2)).real
            sum_log[members] += np.log2(1.0 + q_k**2 / (y_k * q_k + eps)).sum(axis=0)
    return (cfg.tau_c - cfg.tau_p) / cfg.tau_c * sum_log / n_blocks


def _run_setup(cfg, scenarios, combiner, fronts, setup_idx):
    """All scenarios for one network realization; returns (n_scen, K)."""
    real = generate_realization(cfg, _rng(cfg.seed, _TAG_NETWORK, setup_idx))
    assoc = assign_pilots_and_clusters(real, cfg)

    grid_scenarios = {"ris_optimized", "ris_random", "no_ris_large"}
    r_grid = None
    if grid_scenarios & set(scenarios):
        r_grid = spatial_correlation_matrices(real, cfg, ris_grid_positions(cfg))
    r_small = None
    if "no_ris_small" in scenarios:
        r_small = spatial_correlation_matrices(real, cfg, active_array_positions(cfg))

    out = np.empty((len(scenarios), cfg.K))
    for j, name in enumerate(scenarios):
        scen_id = _SCENARIO_ID[name]
        if name == "no_ris_small":
            stats = EffectiveStats(r_small, None, assoc.pilot_of, cfg)
        elif name == "no_ris_large":
            stats = EffectiveStats(r_grid, None, assoc.pilot_of, cfg)
        else:
            mode = "optimized" if name == "ris_optimized" else "random"
            psi = select_long_term_config(
                ChannelStats(r_grid, fronts),
                assoc,
                cfg,
                mode=mode,
                rng=_rng(cfg.seed, _TAG_PHASES, setup_idx, scen_id),
            )
            stats = EffectiveStats(r_grid, effective_front(fronts, psi), assoc.pilot_of, cfg)
        rng_blocks = _rng(cfg.seed, _TAG_BLOCKS, setup_idx, scen_id)
        out[j] = block_batched_se(stats, assoc, cfg, rng_blocks, combiner=combiner)
        bad = np.flatnonzero(~np.isfinite(out[j]))
        if bad.size:
            raise ModelError(f"setup {setup_idx}, scenario {name}: non-finite SE for UE {bad[0]}")
    return out


def run_experiment(spec):
    spec.validate()
    cfg = spec.cfg
    scenarios = list(spec.scenarios)
    needs_fronts = bool({"ris_optimized", "ris_random"} & set(scenarios))
    fronts = front_channels(cfg) if needs_fronts else None

    def worker(setup_idx):
        return _run_setup(cfg, scenarios, spec.combiner, fronts, setup_idx)

    # map re-raises the first failing setup's error and cancels the pending ones
    with ThreadPoolExecutor(max_workers=spec.threads) as pool:
        se = np.stack(list(pool.map(worker, range(cfg.mc_setups))), axis=1)   # (n_scen, setups, K)

    report = SeReport(
        scenarios=scenarios,
        se={name: se[j] for j, name in enumerate(scenarios)},
        config=cfg.as_dict(),
    )
    return report


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
        for key, value in report.config.items():
            handle.write(f"{key} = {value}\n")
    paths.append(manifest_path)

    if report.scenarios:
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

    The manifest is a config file, so ``config`` holds typed values; the
    scenarios are those of ``se_samples.csv`` in order of first appearance.
    """
    with open(os.path.join(out_dir, "manifest.txt"), "r", encoding="utf-8") as handle:
        config = parse_config_text(handle.read())
    data_path = os.path.join(out_dir, "se_samples.csv")
    if not os.path.exists(data_path):
        return SeReport(scenarios=[], se={}, config=config)

    rows = {}
    with open(data_path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            rows.setdefault(row["scenario"], []).append(
                (int(row["realization"]), int(row["ue"]), float(row["se"]))
            )
    se = {}
    for name, entries in rows.items():
        setup, ue, value = zip(*entries)
        se[name] = np.empty((1 + max(setup), 1 + max(ue)))
        se[name][setup, ue] = value
    return SeReport(scenarios=list(rows), se=se, config=config)
