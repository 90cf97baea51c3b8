"""Quick-mode checks of the benchmark ledger.

Run from the repository root (about 20 s)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ledger  # noqa: E402

#: counts that depend only on the stream, never on timing or batching
STREAM_COUNTS = ("labeler.labels_per_event", "tree.inbag_updates_per_label",
                 "tree.oob_scores_per_label", "tree.scores_per_event",
                 "tree.nodes_end", "tree.replacements")


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    docs = []
    for i in range(2):
        path = tmp_path_factory.mktemp(f"quick{i}") / "ledger.json"
        assert ledger.main(["run", "--quick", "-o", str(path)]) == 0
        docs.append(json.loads(path.read_text()))
    return docs


def test_quick_artifact_validates(quick_runs):
    for doc in quick_runs:
        # quick windows last milliseconds, too short to hold the closure
        # limit the full-size runs are held to
        problems = [p for p in ledger.validate_artifact(doc) if "closure" not in p]
        assert problems == []
        assert [r["workload"] for r in doc["runs"]] == list(ledger.WORKLOAD_NAMES)


def test_traced_and_untraced_episodes_agree(quick_runs):
    for run in quick_runs[0]["runs"]:
        # correctness compares every plain, timed and count episode
        assert run["correct"], run["problems"]
        assert run["episodes"]["plain"] >= 1
        assert run["episodes"]["timed"] >= 1
        assert run["episodes"]["count"] == 1


def test_exact_counters_repeat_across_runs(quick_runs):
    first, second = quick_runs
    for a, b in zip(first["runs"], second["runs"]):
        assert a["check"] == b["check"]
        counts = [m.name for m in ledger.PER_LAYER if m.unit == "count"]
        if a["workload"] == "gateway-tcp":
            # flush boundaries follow arrival timing; stream counts do not
            counts = list(STREAM_COUNTS)
        for name in counts:
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_benchmark_json_validates():
    doc = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
    assert ledger.validate_benchmark(doc) == []


def test_benchmark_json_rejects_unknown_metric():
    doc = json.loads((ledger.ROOT / "BENCHMARK.json").read_text())
    doc["per_layer"].append({"name": "made.up", "unit": "us", "better": "lower"})
    assert ledger.validate_benchmark(doc) != []


def test_compare_verdicts():
    events = next(m for m in ledger.END_TO_END if m.name == "events_per_s")
    bound = ledger.BOUNDS["exact-paper"]["events_per_s"]
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def verdict(change):
        return ledger.verdict(events, bound, parent, change)[0]

    assert verdict([v * 1.2 for v in parent]) == "improved"
    assert verdict([v * 0.8 for v in parent]) == "regressed"
    assert verdict([v * 0.98 for v in parent]) == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert ledger.verdict(events, bound, noisy, [v * 0.9 for v in noisy])[0] == "unresolved"


def test_checkout_without_library_fails_without_result(tmp_path):
    bench = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(ledger.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ledger.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/ledger.py", "run", "--workload",
         "exact-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
