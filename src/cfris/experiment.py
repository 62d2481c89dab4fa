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
                raise ValueError(f"unknown scenario {name!r}")
        if self.combiner not in ("pmmse", "mmse"):
            raise ValueError(f"unknown combiner {self.combiner!r}")
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

    Runs the combining chain for all blocks of one (realization, scenario)
    at once. The combiner solve uses the block-diagonal structure of the
    error-plus-noise covariance (Woodbury identity with the low-rank
    estimate outer products), which is algebraically identical to the
    direct subspace solve in receiver.py.
    """
    if n_blocks is None:
        n_blocks = cfg.mc_channel_realizations
    K, m = stats.K, stats.m
    eta = np.full(K, cfg.data_power_w)
    sigma2 = cfg.noise_power_w
    eye = np.eye(m)

    per_ue = []
    for k, serving in enumerate(assoc.serving_sets):
        idx = np.asarray(serving, dtype=int)
        partners = (
            np.asarray(assoc.pmmse_partners(k), dtype=int)
            if combiner == "pmmse"
            else np.arange(K)
        )
        lam = np.tensordot(eta[partners], stats.F[partners][:, idx], axes=(0, 0))
        lam += sigma2 * eye
        per_ue.append((idx, partners, np.linalg.inv(lam)))
    f_total = np.tensordot(eta, stats.F, axes=(0, 0))  # (L, m, m)

    sum_log = np.zeros(K)
    done = 0
    while done < n_blocks:
        b = min(_BLOCK_CHUNK, n_blocks - done)
        z = stats.sample_pilot_statistics(rng, b)
        ghat = stats.effective_estimates(z)  # (b, L, m, K)
        for k, (idx, partners, lam_inv) in enumerate(per_ue):
            gh = ghat[:, idx]                               # (b, mk, m, K)
            gs = gh[..., partners] * np.sqrt(eta[partners])
            a = np.einsum("lmn,blns->blms", lam_inv, gs)
            s = np.einsum("blms,blmt->bst", gs.conj(), a)
            ns = s.shape[-1]
            s[:, np.arange(ns), np.arange(ns)] += 1.0
            u = np.einsum("lmn,bln->blm", lam_inv, gh[..., k])
            w = np.einsum("blms,blm->bs", gs.conj(), u)
            c = np.linalg.solve(s, w[..., None])[..., 0]
            v = u - np.einsum("blms,bs->blm", a, c)        # combiner, serving blocks
            cross = np.einsum("blm,blmi->bi", v.conj(), gh)
            power = eta * np.abs(cross) ** 2
            signal = power[:, k]
            interference = power.sum(axis=1) - signal
            z_term = np.einsum("blm,lmn,bln->b", v.conj(), f_total[idx], v).real
            noise = sigma2 * np.einsum("blm,blm->b", v.conj(), v).real
            sinr = signal / (interference + z_term + noise)
            sum_log[k] += np.log2(1.0 + sinr).sum()
        done += b
    prefactor = (cfg.tau_c - cfg.tau_p) / cfg.tau_c
    return prefactor * sum_log / n_blocks


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
            eff = np.stack([effective_front(fronts[l], psi[l]) for l in range(cfg.L)])
            stats = EffectiveStats(r_grid, eff, assoc.pilot_of, cfg)
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

    se = np.empty((len(scenarios), cfg.mc_setups, cfg.K))

    def worker(setup_idx):
        return setup_idx, _run_setup(cfg, scenarios, spec.combiner, fronts, setup_idx)

    if spec.threads > 1 and cfg.mc_setups > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            for setup_idx, result in pool.map(worker, range(cfg.mc_setups)):
                se[:, setup_idx] = result
    else:
        for setup_idx in range(cfg.mc_setups):
            se[:, setup_idx] = worker(setup_idx)[1]

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
