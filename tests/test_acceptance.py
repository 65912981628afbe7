"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are exact throughout (100% agreement, byte-identical output);
the expected runtimes quoted in the pass lines are informational.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from autcrit.abelian import (
    decide_hom_equal_sources,
    decide_hom_equal_targets,
    embeds,
    hom_order,
    hom_type,
    partitions_up_to,
)
from autcrit.automorphisms import (
    CENTRAL,
    aut_upper_lower,
    automorphism_group,
    distinguished,
)
from autcrit.catalog import abelian_group, build_group, get_spec
from autcrit.report import center_subgroups, report_to_text, reports_to_json_lines, verify_group
from oracles import (
    abelian_factor,
    as_group,
    compose,
    count_homs,
    count_homs_killed_by,
    hom_automorphism_pairs,
    lemma_2_11_check,
    members,
    order_dividing_count_by_factors,
)


def _pass(num, desc, t0):
    print(f"\nACCEPTANCE {num} PASS: {desc} ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def verify_all_runs():
    """Two fresh verify-all JSON runs in subprocesses (shared by the
    soundness and determinism criteria)."""
    cmd = [sys.executable, "-m", "autcrit.cli", "verify-all", "--format", "json"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        runs.append(proc)
    return runs


def test_acceptance_1_hom_equality_decisions():
    t0 = time.time()
    checked = 0
    for p in (2, 3):
        parts = partitions_up_to(p, 6)
        counts = {}

        def hom_count(a, b):
            key = (a.exps, b.exps)
            if key not in counts:
                counts[key] = count_homs(p, a.exps, b.exps)
            return counts[key]

        embedded = [(x, y) for x in parts for y in parts if embeds(x, y)]
        for a in parts:
            for b, c in embedded:
                v = decide_hom_equal_targets(a, b, c)
                assert v.equal == (hom_count(a, b) == hom_count(a, c)), (a, b, c)
                checked += 1
        for d, a in embedded:
            for b in parts:
                v = decide_hom_equal_sources(d, a, b)
                assert v.equal == (hom_count(d, b) == hom_count(a, b)), (d, a, b)
                checked += 1
    assert checked > 20000
    _pass(1, f"hom-equality decisions match brute-force Hom counts in "
             f"{checked} cases (expected < 30 s)", t0)


def test_acceptance_2_hom_formula_oracle():
    t0 = time.time()
    pairs = 0
    for p in (2, 3):
        parts = partitions_up_to(p, 6)
        for a in parts:
            for b in parts:
                assert hom_order(a, b) == count_homs(p, a.exps, b.exps), (a, b)
                t = hom_type(a, b)
                for k in range(0, (t.exps[0] if t.exps else 0) + 1):
                    assert order_dividing_count_by_factors(
                        p, t.exps, k
                    ) == count_homs_killed_by(p, a.exps, b.exps, k), (a, b, k)
                pairs += 1
    assert pairs == 2 * 30 * 30
    _pass(2, f"hom_order and hom_type agree with exhaustive enumeration on "
             f"{pairs} pairs (expected < 60 s)", t0)


def test_acceptance_3_hom_built_automorphism_sweep(corpus_under_64):
    t0 = time.time()
    pairs_checked = 0
    compositions = 0
    for name, g in sorted(corpus_under_64.items()):
        p = g.prime_power()[0] if g.n > 1 else 2
        zsubs = [g.normal_subgroups()[i] for i in center_subgroups(g)]
        for y in g.normal_subgroups():
            q = g.quotient(y)
            qab = q.group.quotient(q.group.derived_subgroup()).group
            qab_part = qab.abelian_partition(p)
            for x in zsubs:
                if not x.members <= y.members:
                    continue
                pairs = hom_automorphism_pairs(g, x, y)
                built = frozenset(a for _, a in pairs)
                brute = aut_upper_lower(g, x, y)
                assert built == members(brute), (name, x, y)
                assert len(pairs) == hom_order(qab_part, x.partition(p)), (name, x, y)
                by_choice = {c: a for c, a in pairs}
                for c1, a1 in pairs:
                    for c2, a2 in pairs:
                        prod = tuple(g.mul(u, v) for u, v in zip(c1, c2))
                        assert compose(a1, a2) == by_choice[prod], (name, x, y)
                        compositions += 1
                pairs_checked += 1
    assert pairs_checked > 5000
    _pass(3, f"Hom-built automorphisms equal brute force on {pairs_checked} "
             f"(X, Y) pairs; correspondence respects composition "
             f"({compositions} products; expected < 5 min)", t0)


def test_acceptance_4_criteria_soundness(verify_all_runs):
    t0 = time.time()
    proc = verify_all_runs[0]
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(ln) for ln in proc.stdout.strip().splitlines()]
    assert len(rows) > 10000
    assert all(r["match"] is True for r in rows)
    criteria_seen = {r["criterion"] for r in rows}
    assert len(criteria_seen) == 9
    groups_seen = {r["group"] for r in rows}
    assert {"Q8", "D16", "D8oQ8", "M81", "C3wrC3"} <= groups_seen
    _pass(4, f"verify-all exit 0; {len(rows)} rows, all predictions match "
             f"brute force (expected < 10 min)", t0)


def test_acceptance_5_purely_nonabelian_property(corpus):
    t0 = time.time()
    applicable = 0
    for name, (spec, g) in sorted(corpus.items()):
        if g.n == 1 or g.is_abelian() or g.nilpotence_class() != 2:
            continue
        p = g.prime_power()[0]
        if g.derived_subgroup().partition(p).exps and len(
            g.derived_subgroup().partition(p).exps
        ) == len(g.center().partition(p).exps):
            assert lemma_2_11_check(g) is True, name
            applicable += 1
    assert applicable >= 5
    for name in ("Q8xC2", "D8xC2"):
        g = corpus[name][1]
        flag, witness = abelian_factor(g)
        assert flag is False and g.is_purely_nonabelian() is False, name
        a, b = witness
        assert a.order > 1
        assert a.is_normal() and b.is_normal()
        assert len(a.members & b.members) == 1
        assert a.order * b.order == g.n
        ag, _ = as_group(a)
        assert ag.is_abelian()
    _pass(5, f"purely non-abelian confirmed for {applicable} class-2 groups "
             f"with d(G') = d(Z); witnesses found for Q8xC2 and D8xC2", t0)


def test_acceptance_6_adney_yen(corpus):
    t0 = time.time()
    checked = 0
    for name, (spec, g) in sorted(corpus.items()):
        if g.n == 1 or g.is_abelian() or not g.is_purely_nonabelian():
            continue
        p = g.prime_power()[0]
        q0 = g.quotient(g.derived_subgroup()).group.abelian_partition(p)
        zp = g.center().partition(p)
        assert len(distinguished(g, CENTRAL)) == hom_order(q0, zp), name
        checked += 1
    assert checked >= 15
    _pass(6, f"|Aut_c| = |Hom(G/G', Z)| holds exactly for all {checked} "
             f"purely non-abelian catalog groups", t0)


def test_acceptance_7_spot_aut_orders():
    t0 = time.time()
    assert len(automorphism_group(build_group(get_spec("Q8"), fresh=True))) == 24
    assert len(automorphism_group(build_group(get_spec("D8"), fresh=True))) == 8
    assert len(automorphism_group(abelian_group(2, (1, 1)))) == 6
    _pass(7, "|Aut(Q8)| = 24, |Aut(D8)| = 8, |Aut(C2xC2)| = 6 recomputed "
             "from scratch", t0)


def test_acceptance_8_determinism(verify_all_runs):
    t0 = time.time()
    outputs = []
    for proc in verify_all_runs:
        assert proc.returncode == 0
        rows = []
        for ln in proc.stdout.strip().splitlines():
            row = json.loads(ln)
            row.pop("elapsed_ms")
            rows.append(json.dumps(row))
        outputs.append("\n".join(rows))
    assert outputs[0] == outputs[1]
    _pass(8, f"two fresh verify-all runs byte-identical modulo elapsed_ms "
             f"({len(outputs[0].splitlines())} rows)", t0)


# sha256 of the verify-all JSON rows with elapsed_ms dropped; pins the
# whole corpus output (row order, verdicts, clauses) across refactors.
VERIFY_ALL_GOLDEN = "44c654598c47c7eba2b9313c62400c3487c85c9dbb9a6aaf6ec61f144b4f7a07"


def test_verify_all_golden(verify_all_runs):
    proc = verify_all_runs[0]
    assert proc.returncode == 0, proc.stderr
    rows = []
    for ln in proc.stdout.splitlines():
        row = json.loads(ln)
        row.pop("elapsed_ms")
        rows.append(json.dumps(row))
    text = "\n".join(rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_ALL_GOLDEN


# sha256 of report_to_text(..., verbose=True) over the catalog and both
# stress recipes, with the default bound and with a bound of 16, where
# the larger groups' rows carry skip notes; pins each swept row's
# M/N member text and every skip reason.
VERBOSE_TEXT_GOLDEN = {
    None: "433f4c1009f46f2ce78a23181b4cbb7d4d4330c3278cbd593f1ae55dd53b2350",
    "16": "d5203a49bbf2f921b32b343a8de74c6591d72686ad4fba2f2fa5705d70e8901a",
}


@pytest.mark.parametrize("bound", sorted(VERBOSE_TEXT_GOLDEN, key=str))
def test_verbose_text_golden(corpus, stress_groups, monkeypatch, bound):
    if bound is None:
        monkeypatch.delenv("AUTCRIT_AUT_BOUND", raising=False)
    else:
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", bound)
    groups = sorted((name, g) for name, (_, g) in corpus.items())
    groups += sorted(stress_groups.items())
    h = hashlib.sha256()
    for name, g in groups:
        h.update((report_to_text(verify_group(name, g), verbose=True) + "\n").encode())
    assert h.hexdigest() == VERBOSE_TEXT_GOLDEN[bound]


# sha256 over both stress recipes of verify_group's JSON rows with
# elapsed_ms dropped, and of report_to_text(..., verbose=True); pins the
# values and order of the 20,011 rows of the benchmark's stress workload.
STRESS_GOLDEN = ("5a24f0afad7037f46d33e7d800e61c3a0f9417169d51570a3a227f6623abd05d",
                 "aa60b17be8a047b89c4c30083b0cb6adc42f24d0425c3ca7419c24e5a4927372")


def test_stress_golden(stress_groups, monkeypatch):
    monkeypatch.delenv("AUTCRIT_AUT_BOUND", raising=False)
    reports = [verify_group(name, g) for name, g in sorted(stress_groups.items())]
    rows = []
    for ln in reports_to_json_lines(reports).splitlines():
        row = json.loads(ln)
        row.pop("elapsed_ms")
        rows.append(json.dumps(row))
    assert len(rows) == 20011
    text = "".join(report_to_text(rep, verbose=True) + "\n" for rep in reports)
    assert (hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest()) == STRESS_GOLDEN
