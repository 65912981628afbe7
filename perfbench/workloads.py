"""Inputs, passes, output checks and metrics of the autcrit benchmark.

Three workloads, each chosen to load different layers:

* ``corpus``: the 61 catalog groups, ingested from permutation generators
  and verified against brute force, like ``autcrit verify-all --format
  json``.  Ingestion dominates.
* ``stress``: two larger groups outside the catalog whose automorphism
  groups are big, so the automorphism search and the criteria sweep
  dominate and ingestion is a few percent.
* ``tables``: the catalog as Cayley-table text, parsed and summarised
  like ``autcrit analyze <file>``.  Table validation dominates and there
  is no automorphism search.

The seed only relabels the inputs: permutation generators are conjugated
by a random point permutation, Cayley tables get their elements permuted
with the identity moved off index 0.  Every output is an isomorphism
invariant, so one reference (``reference.json``) serves every seed.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

from autcrit.catalog import GroupSpec

import speedclock
from metrics import PER_LAYER, WORKLOADS
from tracer import Tracer, module

catalog = module("catalog")
groups = module("groups")
formats = module("formats")
automorphisms = module("automorphisms")
criteria = module("criteria")
abelian = module("abelian")
report = module("report")

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

STRESS_SPECS = (
    GroupSpec("Q8xC4xC2", 2, "product(quaternion 8, abelian 2 2 1)"),
    GroupSpec("He3xC3", 3, "product(heisenberg 3, cyclic 3)"),
)

# The abelian functions the criteria reach, directly or through each other.
ABELIAN_TRACED = (
    "decide_hom_equal_sources", "decide_hom_equal_targets", "embeds",
    "exponent", "rank", "var", "var_with_index",
)
CRITERIA_TRACED = tuple(c.lower() for c in criteria.CRITERION_IDS)


def traced_names() -> dict[str, tuple[str, ...]]:
    """Every span name the tracer records, with the workloads on which it
    must fire at least once."""
    verify = ("corpus", "stress")
    names = {
        "catalog.build_group": verify,
        "groups.from_permutation_generators": verify,
        "groups.FiniteGroup": WORKLOADS,
        "groups.from_table": ("tables",),
        "groups.normal_subgroups": verify,
        "groups.quotient": WORKLOADS,
        "formats.parse_group_text": ("tables",),
        "automorphisms.automorphism_group": verify,
        "automorphisms.distinguished": verify,
        "automorphisms.aut_upper_lower": verify,
        "automorphisms.autset_equal": verify,
        "report.group_summary": WORKLOADS,
        "report.verify_group": verify,
        "report.render": verify,
    }
    names.update({f"criteria.{f}": verify for f in CRITERIA_TRACED})
    names.update({f"abelian.{f}": ("corpus",) for f in ABELIAN_TRACED})
    return names


def install_tracer(tracer: Tracer) -> None:
    fg = groups.FiniteGroup
    tracer.function("catalog.build_group", catalog.build_group)
    tracer.method("groups.from_permutation_generators", fg, "from_permutation_generators")
    tracer.method("groups.FiniteGroup", fg, "__init__")
    tracer.method("groups.from_table", fg, "from_table")
    tracer.method("groups.normal_subgroups", fg, "normal_subgroups")
    tracer.method("groups.quotient", fg, "quotient")
    tracer.function("formats.parse_group_text", formats.parse_group_text)
    for name in ("automorphism_group", "distinguished", "aut_upper_lower"):
        tracer.function(f"automorphisms.{name}", getattr(automorphisms, name),
                        count="automorphisms.auts_returned")
    tracer.function("automorphisms.autset_equal", automorphisms.autset_equal)
    for name in CRITERIA_TRACED:
        tracer.function(f"criteria.{name}", getattr(criteria, name))
    for name in ABELIAN_TRACED:
        tracer.function(f"abelian.{name}", getattr(abelian, name))
    tracer.function("report.group_summary", report.group_summary)
    tracer.function("report.verify_group", report.verify_group)
    tracer.function("report.render", report.reports_to_json_lines)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# -- seeded inputs -------------------------------------------------------


def relabel_permutations(gens, degree: int, rng: random.Random):
    """Conjugate every generator by one random permutation of the points."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        h = [0] * degree
        for x in range(degree):
            h[sigma[x]] = sigma[g[x]]
        out.append(tuple(h))
    return out


def relabel_table(table, rng: random.Random):
    """Rename element a to pi[a] for a random pi with pi[0] != 0."""
    n = len(table)
    pi = list(range(n))
    rng.shuffle(pi)
    if pi[0] == 0:
        pi[0], pi[1] = pi[1], pi[0]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row, pa = table[a], out[pi[a]]
        for b in range(n):
            pa[pi[b]] = pi[row[b]]
    return out


def cayley_text(table) -> str:
    lines = [f"cayley {len(table)}"]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def specs_for(workload: str) -> list[GroupSpec]:
    if workload == "stress":
        return list(STRESS_SPECS)
    return sorted(catalog.catalog(), key=lambda s: s.name)


def make_inputs(workload: str, seed: int):
    """Seeded inputs: relabelled permutation generators per group for the
    verify workloads, relabelled Cayley-table text for ``tables``."""
    specs = specs_for(workload)
    if workload == "tables":
        return [
            (s.name, cayley_text(relabel_table(catalog.eval_recipe(s.recipe).table,
                                               _rng(seed, s.name))))
            for s in specs
        ]
    gens = {}
    for s in specs:
        base = catalog.permutation_generators(s)
        degree = len(base[0])
        gens[s.name] = relabel_permutations(base, degree, _rng(seed, s.name))
    return specs, gens


@contextmanager
def fed_generators(gens: dict):
    """Make ``catalog.build_group`` ingest the seeded generators: it looks
    up ``permutation_generators`` in the catalog module at call time."""
    ns = vars(catalog)
    original = ns["permutation_generators"]
    ns["permutation_generators"] = lambda spec: gens[spec.name]
    try:
        yield
    finally:
        ns["permutation_generators"] = original


# -- one pass --------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.pass_s = 0.0     # on the speed-corrected clock
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.group_ms: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []
        self.outputs = 0      # verify rows, or summaries on ``tables``
        self.confirmed = 0    # rows with non-null observed, or summaries
        self.rows = 0         # verify rows only
        self.skipped = 0      # rows with null observed
        self.layers: dict[str, float] = {}


def _fail(result: PassResult, name: str, why: str) -> None:
    result.failed.append(name)
    print(f"FAILED {name}: {why}", file=sys.stderr)


def verify_pass(specs, ref) -> PassResult:
    """Build each group fresh, verify it, render JSON lines; then check
    the rendered rows and summaries against the reference."""
    res = PassResult()
    reports = []
    clock = speedclock.now
    c_pass = time.process_time()
    w_pass = time.perf_counter()
    t_pass = clock()
    for spec in specs:
        t0 = clock()
        try:
            g = catalog.build_group(spec, fresh=True)
            reports.append(report.verify_group(spec.name, g))
        except Exception:
            _fail(res, spec.name, traceback.format_exc())
        g = None
        res.group_ms.append((clock() - t0) * 1000.0)
    text = report.reports_to_json_lines(reports)
    res.pass_s = clock() - t_pass
    res.wall_s = time.perf_counter() - w_pass
    res.cpu_s = time.process_time() - c_pass

    res.attempted = len(specs)
    rows: dict[str, Counter] = {s.name: Counter() for s in specs}
    for line in text.splitlines():
        r = json.loads(line)
        rows[r["group"]][(r["criterion"], r["predicted"], r["observed"],
                          r["match"], r["clause"])] += 1
        res.outputs += 1
        if r["observed"] is None:
            res.skipped += 1
        else:
            res.confirmed += 1
        if r["match"] is False:
            _fail(res, r["group"], f"row does not match: {line}")
    summaries = {rep.group: rep.summary for rep in reports}
    for spec in specs:
        want = ref[spec.name]
        if spec.name not in summaries or spec.name in res.failed:
            continue
        if summaries[spec.name] != want["summary"]:
            _fail(res, spec.name, f"summary {summaries[spec.name]} != {want['summary']}")
        elif rows[spec.name] != reference_rows(want):
            _fail(res, spec.name, "row multiset differs from the reference")
    res.rows = res.outputs
    return res


def tables_pass(texts, ref) -> PassResult:
    """Parse each Cayley text and summarise it like ``autcrit analyze
    --format json``; then check every summary against the reference."""
    res = PassResult()
    lines = []
    clock = speedclock.now
    c_pass = time.process_time()
    w_pass = time.perf_counter()
    t_pass = clock()
    for name, text in texts:
        t0 = clock()
        try:
            g = formats.parse_group_text(text)
            pp = g.prime_power()
            summary = report.group_summary(g, pp[0] if pp else None)
            lines.append(json.dumps({"group": name, **summary}))
        except Exception:
            _fail(res, name, traceback.format_exc())
        g = None
        res.group_ms.append((clock() - t0) * 1000.0)
    res.pass_s = clock() - t_pass
    res.wall_s = time.perf_counter() - w_pass
    res.cpu_s = time.process_time() - c_pass

    res.attempted = len(texts)
    for line in lines:
        summary = json.loads(line)
        name = summary.pop("group")
        res.outputs += 1
        res.confirmed += 1
        if summary != ref[name]["summary"]:
            _fail(res, name, f"summary {summary} != {ref[name]['summary']}")
    return res


def reference_rows(entry) -> Counter:
    return Counter({tuple(r[:5]): r[5] for r in entry["rows"]})


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["groups"]


def assert_fresh_state() -> None:
    """No group and no catalog cache entry may outlive a pass, or the
    groups' memo caches would turn the next pass into lookups."""
    gc.collect()
    if catalog._CACHE:
        raise AssertionError(f"catalog cache holds {sorted(catalog._CACHE)}")
    alive = sum(1 for o in gc.get_objects() if isinstance(o, groups.FiniteGroup))
    if alive:
        raise AssertionError(f"{alive} FiniteGroup objects survived a pass")


# -- a run -------------------------------------------------------------------


def pass_runner(workload: str, inputs, ref):
    """The workload's pass, and the context every pass must run in."""
    if workload == "tables":
        return (lambda: tables_pass(inputs, ref)), nullcontext()
    specs, gens = inputs
    return (lambda: verify_pass(specs, ref)), fed_generators(gens)


def traced_pass(one_pass) -> tuple[PassResult, Tracer]:
    """One pass with every traced name wrapped; all are restored after."""
    tracer = Tracer(clock=speedclock.now)
    install_tracer(tracer)
    try:
        res = one_pass()
    finally:
        tracer.restore()
    res.layers = tracer.summarize(layer_of)
    return res, tracer


def run(workload: str, inputs, seconds: float, trace: bool) -> dict:
    """Warm up with one pass, then run passes while the next one is
    expected to end within ``seconds``.  Untraced passes only when
    ``trace`` is false; alternating untraced and traced passes otherwise.
    """
    ref = load_reference()
    one_pass, ctx = pass_runner(workload, inputs, ref)
    done: list[tuple[bool, PassResult]] = []
    tracer = None
    with ctx:
        assert_fresh_state()
        warm = one_pass()
        assert_fresh_state()
        start = time.perf_counter()
        longest = warm.wall_s
        while True:
            traced = trace and len(done) % 2 == 1
            if traced:
                res, tracer = traced_pass(one_pass)
            else:
                res = one_pass()
            assert_fresh_state()
            done.append((traced, res))
            longest = max(longest, res.wall_s)
            enough = len(done) >= (2 if trace else 1)
            if enough and time.perf_counter() - start + longest > seconds:
                break

    every = [warm] + [r for _, r in done]
    attempted = sum(r.attempted for r in every)
    failed = sum(len(set(r.failed)) for r in every)
    plain = [r for t, r in done if not t]
    if trace:
        metrics = per_layer_metrics(plain, [r for t, r in done if t])
    else:
        metrics = end_to_end_metrics(plain, attempted, failed)
    return {
        "attempted": attempted,
        "failed": failed,
        "pass_samples": [[round(r.pass_s, 4), round(r.wall_s, 4), round(r.cpu_s, 4), t]
                         for t, r in done],
        "metrics": metrics,
        "tracer": tracer,
    }


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density, here
    integrated by the midpoint rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(x)
                                            + (b - 1) * math.log1p(-x))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end_metrics(passes: list[PassResult], attempted: int, failed: int) -> dict:
    # Each group's median over the passes, then a quantile over groups.
    # Group times cluster by group order with gaps between the clusters,
    # so a single order statistic jumps across a gap from one run to the
    # next; the Harrell-Davis estimate averages the neighbouring ones.
    group_ms = [statistics.median(times) for times in zip(*(r.group_ms for r in passes))]
    outputs = sum(r.outputs for r in passes)
    return {
        "pass_s": statistics.median(r.pass_s for r in passes),
        "rows_per_s": statistics.median(r.outputs / r.pass_s for r in passes),
        "group_ms_p50": harrell_davis(group_ms, 0.5),
        "group_ms_p90": harrell_davis(group_ms, 0.9),
        "ok_ratio": (attempted - failed) / attempted,
        "confirmed_ratio": sum(r.confirmed for r in passes) / outputs if outputs else 0.0,
    }


def per_layer_metrics(plain: list[PassResult], traced: list[PassResult]) -> dict:
    out = {}
    for name in PER_LAYER:
        if name in ("report.rows", "report.rows_skipped", "trace.overhead_s"):
            continue
        out[name] = statistics.median(r.layers.get(name, 0) for r in traced)
    out["report.rows"] = statistics.median(r.rows for r in traced)
    out["report.rows_skipped"] = statistics.median(r.skipped for r in traced)
    out["trace.overhead_s"] = (statistics.median(r.pass_s for r in traced)
                               - statistics.median(r.pass_s for r in plain))
    return out
