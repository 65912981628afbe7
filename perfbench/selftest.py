"""Self-tests of the benchmark itself (not of autcrit).

    python3 perfbench/selftest.py

Checks that relabelling keeps every group's order and summary, that a
flipped ``observed`` and a surviving group are caught, that the tracer
fires on every name it wraps and restores every name it patched, that
the speed-corrected clock ticks, never goes back and stops cleanly, and
that the workloads and the metric names printed by ``run.py`` are
exactly those in ``BENCHMARK.json``.  Takes about a minute; prints one PASS line per check
and exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A stray bound would turn brute-force confirmations into skipped rows.
os.environ.pop("AUTCRIT_AUT_BOUND", None)
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speedclock  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import autcrit_modules  # noqa: E402

SEEDS = (1, 7)
SAMPLE = ("D8oQ8", "C9:C9", "Q8xC4", "C3wrC3", "M16", "D16xC2", "C9xC3")


def check_relabelling(ref) -> None:
    specs = {s.name: s for s in wl.specs_for("corpus")}
    for seed in SEEDS:
        for name in SAMPLE:
            spec = specs[name]
            base = wl.catalog.permutation_generators(spec)
            gens = wl.relabel_permutations(base, len(base[0]), wl._rng(seed, name))
            assert gens != base, f"{name}: seed {seed} left the generators unchanged"
            table = wl.relabel_table(wl.catalog.eval_recipe(spec.recipe).table,
                                     wl._rng(seed, name))
            assert table[0][0] != 0, f"{name}: identity still at index 0"
            for g in (wl.groups.FiniteGroup.from_permutation_generators(gens),
                      wl.formats.parse_group_text(wl.cayley_text(table))):
                assert g.n == ref[name]["order"], f"{name}: order {g.n}"
                summary = wl.report.group_summary(g, spec.prime)
                assert summary == ref[name]["summary"], f"{name}: {summary}"
    print(f"PASS relabelling keeps order and group_summary ({len(SAMPLE)} groups, "
          f"seeds {SEEDS})")


def check_flip_caught(ref) -> None:
    specs = [s for s in wl.specs_for("corpus") if s.name in ("D8", "Q8")]
    inputs = wl.make_inputs("corpus", 1)
    gens = {s.name: inputs[1][s.name] for s in specs}
    render = wl.report.reports_to_json_lines

    def flipped(reports):
        lines = render(reports).splitlines()
        row = json.loads(lines[0])
        row["observed"] = not row["observed"]
        return "\n".join([json.dumps(row)] + lines[1:]) + "\n"

    with wl.fed_generators(gens):
        clean = wl.verify_pass(specs, ref)
        wl.report.reports_to_json_lines = flipped
        try:
            with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED line
                bad = wl.verify_pass(specs, ref)
        finally:
            wl.report.reports_to_json_lines = render
    assert not clean.failed, clean.failed
    assert bad.failed, "a flipped observed value went unnoticed"
    print(f"PASS a flipped observed is caught (failed: {sorted(set(bad.failed))})")


def check_fresh_state() -> None:
    wl.assert_fresh_state()
    kept = wl.groups.FiniteGroup([[0, 1], [1, 0]])
    try:
        wl.assert_fresh_state()
    except AssertionError:
        pass
    else:
        raise AssertionError("a surviving FiniteGroup went unnoticed")
    del kept
    wl.assert_fresh_state()
    print("PASS a group surviving a pass is caught")


def _bindings() -> dict:
    """Identity of everything the tracer may patch."""
    out = {}
    for mod in autcrit_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = id(val)
            if isinstance(val, dict) and key != "__builtins__":
                for k, v in val.items():
                    out[(mod.__name__, key, repr(k))] = id(v)
    for key, val in vars(wl.groups.FiniteGroup).items():
        out[("FiniteGroup", key)] = id(val)
    return out


def check_tracer(ref) -> None:
    expected = wl.traced_names()
    before = _bindings()
    for workload in wl.WORKLOADS:
        one_pass, ctx = wl.pass_runner(workload, wl.make_inputs(workload, 1), ref)
        with ctx:
            res, tracer = wl.traced_pass(one_pass)
        assert not res.failed, res.failed
        fired = {span[2] for span in tracer.spans}
        missing = [n for n, ws in expected.items() if workload in ws and n not in fired]
        assert not missing, f"{workload}: never fired: {missing}"
        unknown = fired - set(expected)
        assert not unknown, f"{workload}: unexpected spans {unknown}"
        wl.assert_fresh_state()
    assert _bindings() == before, "the tracer left a patched name behind"
    print(f"PASS all {len(expected)} traced names fire on their workloads "
          "and are restored")


def check_speedclock() -> None:
    speedclock.start()
    try:
        readings = [speedclock.now()]
        w0 = time.perf_counter()
        while time.perf_counter() - w0 < 0.5:
            speedclock.probe()
            readings.append(speedclock.now())
        wall = time.perf_counter() - w0
    finally:
        speedclock.stop()
    assert all(b >= a for a, b in zip(readings, readings[1:])), "clock went back"
    ratio = (readings[-1] - readings[0]) / wall
    assert 0.2 < ratio < 5, f"corrected/wall = {ratio}"
    assert len(speedclock._probes) >= 5, "the probe never ticked"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer left running"
    assert speedclock.now() <= time.perf_counter(), "now() is not perf_counter after stop"
    print(f"PASS speedclock is monotone, ticks, and stops (corrected/wall {ratio:.2f})")


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert declared[0] == END_TO_END, "END_TO_END differs from BENCHMARK.json"
    assert declared[1] == PER_LAYER, "PER_LAYER differs from BENCHMARK.json"
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "tables",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared[trace], f"trace {trace}: {printed}"
    print("PASS workloads and printed metric names and units match BENCHMARK.json")


def main() -> int:
    ref = wl.load_reference()
    check_relabelling(ref)
    check_flip_caught(ref)
    check_fresh_state()
    check_tracer(ref)
    check_speedclock()
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
