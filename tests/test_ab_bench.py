"""The claim rule of tools/ab_bench.py (quartiles and the verdict) and its BENCH_<workload>.json entries, without
git or perfbench."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import ab_bench  # noqa: E402

BASE = [10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5]   # quartiles 11.125 / 12.25 / 13.375


def test_quartiles_of_one_value():
    assert ab_bench.quartiles([3.5]) == (3.5, 3.5, 3.5)


def test_quartiles_of_several_values():
    assert ab_bench.quartiles(BASE) == pytest.approx((11.125, 12.25, 13.375), rel=1e-15)
    assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)   # unsorted input


def test_gain_at_nine_of_ten_wins_and_a_median_past_the_iqr():
    bq = ab_bench.quartiles(BASE)
    iqr = bq[2] - bq[0]
    nq = (bq[0] + 3.0, bq[1] + 1.01 * iqr, bq[2] + 3.0)
    assert ab_bench.verdict(bq, nq, wins=9, pairs=10, higher=True, bound=0.25) == "gain"
    # lower is better: the same distance below the base median
    nq = (bq[0] - 3.0, bq[1] - 1.01 * iqr, bq[2] - 3.0)
    assert ab_bench.verdict(bq, nq, wins=9, pairs=10, higher=False, bound=0.25) == "gain"


def test_no_gain_when_the_median_moves_less_than_the_iqr():
    bq = ab_bench.quartiles(BASE)
    nq = (bq[0], bq[1] + 0.99 * (bq[2] - bq[0]), bq[2])
    assert ab_bench.verdict(bq, nq, wins=10, pairs=10, higher=True, bound=0.25) == "unresolved"


def test_no_gain_at_eight_of_ten_wins():
    bq = ab_bench.quartiles(BASE)
    nq = tuple(q * 1.2 for q in bq)   # well past the IQR, yet only 8 wins
    assert ab_bench.verdict(bq, nq, wins=8, pairs=10, higher=True, bound=0.25) == "unresolved"


@pytest.mark.parametrize("higher", [True, False], ids=["higher_is_better", "lower_is_better"])
def test_worse_only_beyond_the_bound(higher):
    bq = (9.0, 10.0, 11.0)
    sign = -1.0 if higher else 1.0   # the worse direction

    def at(move):
        return ab_bench.verdict(bq, tuple(q + sign * move for q in bq), wins=0, pairs=10, higher=higher, bound=0.25)

    assert at(2.6) == "worse"        # 26 % of the base median
    assert at(2.4) == "unresolved"   # 24 %


def _run(t1, t2):
    metrics = {"drops_per_s.t1": t1, "drops_per_s.t2": t2, "peak_rss_mb": 70.0, "setup_s": 0.5}
    return {"metrics": {name: {"value": value} for name, value in metrics.items()}, "blas": "OPENBLAS_NUM_THREADS=1"}


ENTRY_KEYS = {"revision", "commit", "dirty", "date", "python", "numpy", "nproc", "blas", "pairs", "seconds", "seeds",
              "metrics", "t2_over_t1", "drop_peak_mib", "se_samples_sha256"}


def test_bench_entries_are_appended_and_earlier_ones_kept(tmp_path):
    metrics = [{"name": name} for name in ("drops_per_s.t1", "drops_per_s.t2", "peak_rss_mb", "setup_s")]
    args = ab_bench.parse_args(["HEAD", "--workload", "dense", "--pairs", "3", "--seconds", "5"])
    facts = {"drop_peak_bytes": 3 * 2**20, "se_samples_sha256": "ab" * 32, "numpy": "2.0.0"}
    runs = [_run(4.0, 6.0), _run(5.0, 8.0), _run(6.0, 10.2)]   # .t2/.t1 1.5, 1.6, 1.7
    base = ab_bench.side_entry("HEAD~1", "c" * 40, False, args, metrics, runs, facts)
    assert set(base) == ENTRY_KEYS
    assert base["metrics"]["drops_per_s.t1"] == {"q1": 4.5, "median": 5.0, "q3": 5.5}
    assert set(base["metrics"]) == {m["name"] for m in metrics}
    assert base["t2_over_t1"] == 1.6 and base["drop_peak_mib"] == 3.0 and base["pairs"] == 3
    assert (base["seconds"], base["seeds"]) == (5.0, [1, 2, 3, 4])

    path = tmp_path / "BENCH_dense.json"
    path.write_text('[{"revision": "earlier", "kept": [1.0, 2.5]}]\n')
    new = ab_bench.side_entry("working tree", "d" * 40, True, args, metrics, runs[:1], facts)
    ab_bench.append_entries(str(path), [base, new])
    ab_bench.append_entries(str(path), [new])
    entries = json.loads(path.read_text())
    assert entries == [{"revision": "earlier", "kept": [1.0, 2.5]}, base, new, new]
    ab_bench.append_entries(str(tmp_path / "BENCH_longterm.json"), [base])   # a missing file is created
    assert json.loads((tmp_path / "BENCH_longterm.json").read_text()) == [base]
