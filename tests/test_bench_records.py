"""Checks of the benchmark records (``BENCH_*.json`` at the repository root).

Each record holds every run of one before/after comparison.  The names it
uses are checked against ``BENCHMARK.json`` only; the benchmark code is not
imported.
"""

import json
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
METRICS = END_TO_END | {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record(path):
    record = json.loads(path.read_text())
    assert {"change", "command", "host", "method", "claim", "runs"} <= record.keys()
    for run in record["runs"]:
        assert run["side"] in ("parent", "change"), run
        assert run["workload"] in WORKLOADS, run
        assert run["result"]["correct"] is True, run
        assert set(run["result"]["metrics"]) <= METRICS, run

    workload, metric = record["claim"].split()
    assert workload in WORKLOADS and metric in END_TO_END
    # untraced pairs of the claimed workload that ran both sides, per seed;
    # a record may number its pairs afresh in each batch
    sides = defaultdict(set)
    for run in record["runs"]:
        if run["workload"] == workload and not run["trace"]:
            sides[run["seed"], run.get("batch"), run["pair"]].add(run["side"])
    pairs = Counter(seed for (seed, _, _), both in sides.items() if len(both) == 2)
    assert max(pairs.values(), default=0) >= 10, pairs
