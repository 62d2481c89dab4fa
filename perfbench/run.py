"""Drops-per-second benchmark of cfris through the ``cfris run`` path.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

One run builds the workload's SimConfig from ``--seed``, then makes two
kinds of timed pass over the same drops, in alternation: ``run_experiment`` +
``emit_report`` at ``threads=1`` and at ``threads=2``. ``--seconds`` sets how
often each pass repeats (see workloads.py); a metric is the median pass.
Set-up is timed in fresh processes. The correctness checks in checks.py run
after the timed passes. With ``--trace 1`` a third, single-threaded pass
runs under the span tracer of spans.py and the per-layer metrics replace the
end-to-end ones. The last line of standard output is the JSON result.
"""

import os
import sys

# One BLAS thread per worker: with OpenBLAS's default of one thread per core,
# threads=2 would run 4 threads on 2 cores. Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import cfris  # noqa: E402
from cfris import ExperimentSpec, emit_report, run_experiment  # noqa: E402
from checks import failed_evaluations, first_drop_checks  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15

# per-layer metric -> span whose self time per drop it reports
LAYER_SPANS = {
    "network.correlation_grid_s": "network.correlation_grid",
    "network.correlation_array_s": "network.correlation_array",
    "network.realization_s": "network.realization",
    "association.assign_s": "association.assign",
    "ris.select_optimized_s": "ris.select_optimized",
    "ris.select_random_s": "ris.select_random",
    "ris.eig_s": "ris.eig",
    "estimation.bank_s": "estimation.bank",
    "estimation.pilot_sampling_s": "estimation.pilot_sampling",
    "estimation.estimates_s": "estimation.estimates",
    "experiment.se_kernel_s.ris_optimized": "experiment.se_kernel.ris_optimized",
    "experiment.se_kernel_s.ris_random": "experiment.se_kernel.ris_random",
    "experiment.se_kernel_s.no_ris_small": "experiment.se_kernel.no_ris_small",
    "experiment.se_kernel_s.no_ris_large": "experiment.se_kernel.no_ris_large",
    "experiment.report_s": "experiment.report",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return "unknown"


def print_environment(workload, cfg, args, repeats):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"workload {workload.name}: seed {args.seed}, {cfg.mc_setups} drops per pass, {repeats} pass(es) "
          f"per thread count, L={cfg.L} K={cfg.K} M={cfg.M} N={cfg.N} tau_p={cfg.tau_p}, "
          f"{cfg.mc_channel_realizations} blocks per drop, scenarios {','.join(workload.scenarios)}")
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} (OpenBLAS runs {blas_threads()}), "
          f"numpy {np.__version__}, {blas['name']} {blas.get('version', '?')}, "
          f"nproc {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}")


def probe_setup(workload, seed):
    """Seconds from the start of a fresh process until the workload is ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}: {line!r}")
    return elapsed


def run_pass(cfg, scenarios, threads, out_dir, tracer=None):
    """One ``cfris run``: run_experiment then emit_report; returns (seconds, report)."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    spec = ExperimentSpec(cfg=cfg, scenarios=scenarios, threads=threads)
    start = time.perf_counter()
    with span("experiment.run"):
        report = run_experiment(spec)
    with span("experiment.report"):
        emit_report(report, out_dir)
    return time.perf_counter() - start, report


def layer_metrics(tracer, drops, t1_s, t2_s):
    self_s = tracer.self_times()
    per_drop = {name: value / drops for name, value in self_s.items()}
    groups = [
        len({(tuple(a.serving_sets[k]), tuple(a.pmmse_partners(k))) for k in range(a.num_ues)})
        for a in tracer.associations
    ]
    values = {metric: (per_drop.get(span, 0.0), "s/drop") for metric, span in LAYER_SPANS.items()}
    values.update({
        "network.correlation_calls": (tracer.counts["correlation_calls"] / drops, "calls/drop"),
        "association.ue_groups": (float(np.mean(groups)), "groups/drop"),
        "ris.power_iterations": (
            (tracer.counts["quadratic_objective"] - tracer.counts["power_iteration_runs"]) / drops,
            "iter/drop",
        ),
        "experiment.se_kernel_s": (
            sum(v for name, v in per_drop.items() if name.startswith("experiment.se_kernel.")),
            "s/drop",
        ),
        "experiment.se_blocks": (tracer.blocks / drops, "blocks/drop"),
        "experiment.parallel_efficiency": (t1_s / (2.0 * t2_s), "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, per_drop


def print_trace_summary(tracer, per_drop, drops, untraced_s, traced_s):
    traced = traced_s / drops
    cost = tracer.cost_estimate()
    print(f"self time per drop in the traced single-threaded pass ({drops} drops, {traced:.4f} s/drop):")
    for name, value in sorted(per_drop.items(), key=lambda item: -item[1]):
        print(f"  {name:40s} {value:10.4f} s/drop {100.0 * value / traced:6.1f} %")
    print(f"self times sum to {sum(per_drop.values()):.4f} s/drop, the whole traced pass; experiment.run is "
          f"run_experiment's own code between the module calls")
    print(f"tracing overhead: traced pass {traced_s:.3f} s vs untraced median {untraced_s:.3f} s "
          f"({100.0 * (traced_s / untraced_s - 1.0):+.1f} %); the {len(tracer.spans)} spans and "
          f"{sum(tracer.counts.values())} counted calls cost about {cost:.4f} s ({100.0 * cost / traced_s:.2f} %)")


def main(argv=None, workloads=WORKLOADS):
    args = parse_args(argv)
    if not os.path.abspath(cfris.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"cfris was imported from {cfris.__file__}, not from this checkout")
    workload = workloads[args.workload]
    cfg = workload.config(args.seed)
    drops, scenarios, repeats = workload.drops, workload.scenarios, workload.repeats(args.seconds)
    print_environment(workload, cfg, args, repeats)

    work = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    try:
        # Untimed warm-up. The toy-sized pass loads every code path. Freeing
        # one 30 MB block raises glibc's mmap threshold, as the first large
        # free of a drop does anyway; without it the first timed pass alone
        # pays fresh-page faults for every large temporary (about 15 % on
        # longterm) that the later drops of a long run do not.
        run_pass(workload.shrunk().config(args.seed), scenarios, 1, work)
        np.ones(30 << 20, dtype=np.uint8)
        t1 = [run_pass(cfg, scenarios, 1, work)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # before any threads=2
        t2 = [run_pass(cfg, scenarios, 2, work)]
        for _ in range(repeats - 1):
            # alternate, so that a slow spell of the shared machine hits both kinds of pass
            t1.append(run_pass(cfg, scenarios, 1, work))
            t2.append(run_pass(cfg, scenarios, 2, work))
        t1_s = statistics.median(seconds for seconds, _ in t1)
        t2_s = statistics.median(seconds for seconds, _ in t2)

        first_failed, lines = first_drop_checks(cfg, workload.checked)
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES))
        baseline = t1[0][1]
        others = [report for _, report in t1[1:] + t2]   # must match the baseline bit for bit
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                traced_s, traced = run_pass(cfg, scenarios, 1, work, tracer)
            others.append(traced)
            tracer.dump(os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line)
    attempted = (1 + len(others)) * drops * len(scenarios)
    failed = failed_evaluations(baseline, None, first_failed) + sum(
        failed_evaluations(report, baseline) for report in others
    )
    print(f"operations: {attempted} (drop, scenario) SE evaluations checked, {failed} failed")
    print("pass seconds: threads=1 " + " ".join(f"{s:.3f}" for s, _ in t1)
          + ", threads=2 " + " ".join(f"{s:.3f}" for s, _ in t2))

    if args.trace:
        metrics, per_drop = layer_metrics(tracer, drops, t1_s, t2_s)
        print_trace_summary(tracer, per_drop, drops, t1_s, traced_s)
    else:
        metrics = {
            "drops_per_s.t1": {"value": drops / t1_s, "unit": "drops/s"},
            "drops_per_s.t2": {"value": drops / t2_s, "unit": "drops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
