"""Benchmark entry point.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the repository root.  The command starts ``SETUP_PROBES``
set-up-only processes and then one workload process, all with a pinned
environment (no ``AUTCRIT_AUT_BOUND``, one numeric thread, fixed hash
seed, no bytecode cache), one after another.  It prints the environment, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It exits nonzero when any output differs
from the reference.  A copy of the result, and with ``--trace 1`` the
spans of the last traced pass, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import speedclock
from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap


def worker(args) -> int:
    """Time the import and the seeded input generation, then (unless
    ``--setup-only``) run the workload; print one JSON line."""
    speedclock.start()
    t0 = speedclock.now()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import autcrit  # noqa: F401
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup_s = speedclock.now() - t0
    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not args.setup_only:
        res = workloads.run(args.workload, inputs, args.seconds, bool(args.trace))
        tracer = res.pop("tracer")
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(res)
    speedclock.stop()
    out["probe_ms_quartiles"] = speedclock.probe_ms_quartiles()
    print(json.dumps(out))
    return 0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("AUTCRIT_AUT_BOUND", "PYTHONPATH")}
    # Compiling from source every time keeps set-up comparable between
    # the first run in a checkout and later ones.
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # glibc's default mmap threshold (128 KiB), but fixed: left dynamic it
    # moves with the order of earlier frees, and a pass then page-faults
    # in its large numpy temporaries (~400k faults on ``tables``) or not,
    # for tens of seconds at a time.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _spawn(args, *extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.worker:
        return worker(args)
    if not (ROOT / "src" / "autcrit" / "__init__.py").is_file():
        print(f"no autcrit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    probes = 0 if args.trace else SETUP_PROBES
    setups = [_spawn(args, "--setup-only")["setup_s"] for _ in range(probes)]
    res = _spawn(args)
    setups.append(res["setup_s"])
    env = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "pass_samples": res["pass_samples"],  # [corrected s, wall s, cpu s, traced]
        "setup_samples_s": setups,
        "probe_ms_quartiles": res["probe_ms_quartiles"],
    }
    values = dict(res["metrics"], setup_s=statistics.median(setups),
                  peak_rss_mb=res["peak_rss_mb"])
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in names.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
