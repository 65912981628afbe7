import ast
import gc
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import autcrit
from autcrit.abelian import (
    PPartition,
    decide_hom_equal_sources,
    decide_hom_equal_targets,
    hom_order,
    partitions_up_to,
)
from autcrit.automorphisms import (
    C_STAR,
    CENTRAL,
    IA,
    IA_STAR,
    aut_orders,
    aut_upper_lower,
    autset_equal,
    distinguished,
)
from autcrit import report as report_mod
from autcrit.catalog import build_group, cyclic_group, eval_recipe, get_spec
from autcrit.criteria import (
    COR_2_3,
    COR_2_6,
    COR_2_7,
    COR_2_8,
    COR_2_9,
    COR_2_10,
    THM_2_12,
    CASE_I,
    _hom_sources,
    _hom_targets,
    CASE_II,
    DEGENERATE_EQUALITY,
    NONE,
    cor_2_3,
    cor_2_4,
    cor_2_5,
    cor_2_6,
    cor_2_7,
    cor_2_8,
    cor_2_9,
    cor_2_10,
    thm_2_12,
)
from autcrit.groups import FiniteGroup, direct_product
from autcrit.errors import (
    AbelianInputError,
    ClassNotTwoError,
    HypothesisViolationError,
    NotPGroupError,
)
from autcrit.report import center_subgroups, containing, containment, verify_group
from oracles import (adney_yen_check, center_subgroups_by_subsets, lemma_2_11_check, member_rows,
                     sweep_2_3, sweep_2_3_by_subsets, sweep_2_45, sweep_2_45_by_subsets)


def by_name(name):
    return build_group(get_spec(name))


def block_rows(blocks):
    """A block sweep's rows one at a time, each as (args, verdict key)."""
    for key, rest, pairs in blocks:
        for first, i in pairs:
            yield first + rest, key + i


def swept(g, sweep):
    """The sweep's tuples with their lattice indices resolved through
    ``g.normal_subgroups()``, each with its key."""
    normals = g.normal_subgroups()
    for args, key in sweep(g):
        yield tuple(normals[i] for i in args), key


@pytest.fixture(scope="module")
def q8():
    return by_name("Q8")


@pytest.fixture(scope="module")
def d8():
    return by_name("D8")


@pytest.fixture(scope="module")
def m16():
    return by_name("M16")


@pytest.fixture(scope="module")
def d16():
    return by_name("D16")


@pytest.fixture(scope="module")
def q8xc2():
    return by_name("Q8xC2")


class TestHomMemo:
    """Each Hom-equality decision is made once per group, in its memo."""

    @pytest.mark.parametrize("p, max_sum", [(2, 3), (3, 2)])
    def test_matches_direct_decision(self, p, max_sum):
        g = FiniteGroup([[0]])
        defined = set()
        for a, b, c in product(partitions_up_to(p, max_sum), repeat=3):
            # sources(a, b, c) shares its entry with targets(c, a, b), so
            # both orders of first use are reached over the whole grid
            try:
                want = decide_hom_equal_targets(a, b, c)
            except HypothesisViolationError:
                with pytest.raises(HypothesisViolationError):
                    _hom_targets(g, a, b, c)
            else:
                defined.add((a, b, c))
                assert _hom_targets(g, a, b, c) == want, (a, b, c)
            try:
                want = decide_hom_equal_sources(a, b, c)
            except HypothesisViolationError:
                with pytest.raises(HypothesisViolationError):
                    _hom_sources(g, a, b, c)
            else:
                assert _hom_sources(g, a, b, c) == want, (a, b, c)
        # one entry per defined decision, however it was first asked for
        entries = {k[1:] for k in g._cache if k[0] == "hom_targets"}
        assert entries == defined

    def test_violation_raises_every_call(self):
        g = FiniteGroup([[0]])
        a, b, c = PPartition(2, (1,)), PPartition(2, (2,)), PPartition(2, (1,))
        for _ in range(2):
            with pytest.raises(HypothesisViolationError):
                _hom_targets(g, a, b, c)
            with pytest.raises(HypothesisViolationError):
                _hom_sources(g, b, c, a)  # the same decision, roles swapped
        assert not any(k[0] == "hom_targets" for k in g._cache)

    def test_entries_die_with_their_group(self):
        g = FiniteGroup([[0]])
        a, b, c = PPartition(2, (1,)), PPartition(2, (1,)), PPartition(2, (2,))
        verdict = weakref.ref(_hom_targets(g, a, b, c))
        assert verdict() is not None
        del g
        gc.collect()
        assert verdict() is None


class TestCor23:
    def test_identical_tuple(self, q8):
        z = q8.center()
        full = q8.full_subgroup()
        v = cor_2_3(q8, z, full, z, full)
        assert v.predicted_equal and v.clause == CASE_I

    def test_q8_rank_mismatch(self, q8):
        z = q8.center()
        v = cor_2_3(q8, z, q8.full_subgroup(), z, z)
        assert not v.predicted_equal
        left = aut_upper_lower(q8, z, q8.full_subgroup())
        right = aut_upper_lower(q8, z, z)
        assert len(left) == 1 and len(right) == 4
        assert not autset_equal(left, right)

    def test_hypothesis_violations(self, q8):
        z = q8.center()
        full = q8.full_subgroup()
        with pytest.raises(HypothesisViolationError):
            cor_2_3(q8, full, full, full, full)  # M not central
        with pytest.raises(HypothesisViolationError):
            cor_2_3(q8, z, z, z, full)  # N2 not <= N1

    def test_abelian_input(self):
        g = cyclic_group(4)
        s = g.full_subgroup()
        with pytest.raises(AbelianInputError):
            cor_2_3(g, s, s, s, s)

    @pytest.mark.parametrize("name", ["Q8", "D8", "M16", "D16"])
    def test_sweep_agrees_with_brute_force(self, name):
        g = by_name(name)
        for (m1, n1, m2, n2), _ in swept(g, sweep_2_3):
            v = cor_2_3(g, m1, n1, m2, n2)
            observed = autset_equal(
                aut_upper_lower(g, m1, n1), aut_upper_lower(g, m2, n2)
            )
            assert v.predicted_equal == observed, (name, m1, n1, m2, n2)


class TestCor24:
    def test_m_equals_n_equals_z(self, q8):
        z = q8.center()
        v = cor_2_4(q8, z, z)
        assert v.predicted_equal and v.clause == CASE_I

    def test_q8_full_n(self, q8):
        # quotient by G'N = G collapses to rank 0 versus rank 2
        z = q8.center()
        v = cor_2_4(q8, z, q8.full_subgroup())
        assert not v.predicted_equal
        observed = autset_equal(
            aut_upper_lower(q8, z, q8.full_subgroup()), distinguished(q8, C_STAR)
        )
        assert observed is False

    def test_agrees_with_cor_2_3_specialisation(self):
        for name in ("Q8", "D8", "M16", "D8xC2"):
            g = by_name(name)
            z = g.center()
            for (m, n), _ in swept(g, sweep_2_45):
                lhs = cor_2_4(g, m, n).predicted_equal
                rhs = cor_2_3(g, m, n, z, z).predicted_equal
                assert lhs == rhs, (name, m, n)

    def test_sweep_agrees_with_brute_force(self):
        for name in ("D8", "M16", "Q8xC2"):
            g = by_name(name)
            cs = distinguished(g, C_STAR)
            for (m, n), _ in swept(g, sweep_2_45):
                v = cor_2_4(g, m, n)
                observed = autset_equal(aut_upper_lower(g, m, n), cs)
                assert v.predicted_equal == observed, (name, m, n)


class TestCor25:
    def test_d8_center_center(self, d8):
        z = d8.center()
        v = cor_2_5(d8, z, z)
        assert v.predicted_equal and v.clause == CASE_I
        assert autset_equal(
            aut_upper_lower(d8, z, z), distinguished(d8, CENTRAL)
        )

    def test_m16_full_n(self, m16):
        z = m16.center()
        v = cor_2_5(m16, z, m16.full_subgroup())
        assert not v.predicted_equal
        assert "d(B) = 0" in v.evidence["case_i"]

    def test_reduction_to_identical_quotients(self, q8):
        # N inside G' makes G'N = G': clause (ii) via N <= G'
        z = q8.center()  # = G' for Q8
        v = cor_2_5(q8, z, z)
        assert v.predicted_equal

    def test_sweep_agrees_with_brute_force(self):
        for name in ("Q8", "D8", "M16", "D16"):
            g = by_name(name)
            ac = distinguished(g, CENTRAL)
            for (m, n), _ in swept(g, sweep_2_45):
                v = cor_2_5(g, m, n)
                observed = autset_equal(aut_upper_lower(g, m, n), ac)
                assert v.predicted_equal == observed, (name, m, n)


class TestCor26:
    def test_examples(self, q8, d8, m16):
        assert cor_2_6(q8).predicted_equal
        assert cor_2_6(d8).predicted_equal
        v = cor_2_6(m16)
        assert not v.predicted_equal and v.clause == NONE

    def test_observed(self, q8, m16):
        assert autset_equal(distinguished(q8, IA_STAR), distinguished(q8, CENTRAL))
        assert not autset_equal(
            distinguished(m16, IA_STAR), distinguished(m16, CENTRAL)
        )

    def test_abelian_rejected(self):
        with pytest.raises(AbelianInputError):
            cor_2_6(cyclic_group(8))


class TestCor27:
    def test_first_disjunct(self, q8, d8):
        assert cor_2_7(q8).clause == DEGENERATE_EQUALITY
        assert cor_2_7(d8).clause == DEGENERATE_EQUALITY

    def test_q8xc2_second_disjunct_path(self, q8xc2):
        v = cor_2_7(q8xc2)
        observed = autset_equal(
            distinguished(q8xc2, CENTRAL), distinguished(q8xc2, C_STAR)
        )
        assert v.predicted_equal == observed

    def test_z_in_derived_forces_true(self):
        g = by_name("C3wrC3")
        v = cor_2_7(g)
        assert v.predicted_equal and v.clause == DEGENERATE_EQUALITY


class TestCor28:
    def test_q8(self, q8):
        assert cor_2_8(q8).clause == DEGENERATE_EQUALITY

    def test_m16_case_values(self, m16):
        v = cor_2_8(m16)
        assert v.predicted_equal and v.clause == CASE_II
        assert v.evidence["G/Z"] == "2^[1,1]"
        assert v.evidence["G/G'"] == "2^[2,1]"
        assert autset_equal(distinguished(m16, IA), distinguished(m16, IA_STAR))

    def test_class_three_rejected(self, d16):
        with pytest.raises(ClassNotTwoError):
            cor_2_8(d16)


class TestCor29:
    def test_d8(self, d8):
        assert cor_2_9(d8).predicted_equal

    def test_m16_values(self, m16):
        v = cor_2_9(m16)
        assert v.predicted_equal and v.clause == CASE_II
        assert autset_equal(distinguished(m16, IA_STAR), distinguished(m16, C_STAR))

    def test_q8xc2_rank_mismatch(self, q8xc2):
        v = cor_2_9(q8xc2)
        assert not v.predicted_equal
        assert not autset_equal(
            distinguished(q8xc2, IA_STAR), distinguished(q8xc2, C_STAR)
        )

    def test_class_three_is_false(self, d16):
        assert not cor_2_9(d16).predicted_equal


class TestCor210:
    def test_q8(self, q8):
        v = cor_2_10(q8)
        assert v.predicted_equal and v.clause == DEGENERATE_EQUALITY
        assert autset_equal(distinguished(q8, IA), distinguished(q8, C_STAR))

    def test_m16_four_way_equality(self, m16):
        v = cor_2_10(m16)
        assert v.predicted_equal and v.clause == CASE_II
        assert v.evidence["exp(G')"] == "2"
        assert v.evidence["var(G/Z,G/G')"] == "2"
        assert v.evidence["exp(G/Z)"] == "2"
        assert v.evidence["var(G',Z)"] == "2"
        assert autset_equal(distinguished(m16, IA), distinguished(m16, C_STAR))

    def test_q8xc2_false(self, q8xc2):
        assert not cor_2_10(q8xc2).predicted_equal
        assert not autset_equal(
            distinguished(q8xc2, IA), distinguished(q8xc2, C_STAR)
        )

    def test_implies_28_and_29(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            if g.nilpotence_class() != 2:
                continue
            if cor_2_10(g).predicted_equal:
                assert cor_2_8(g).predicted_equal, name
                assert cor_2_9(g).predicted_equal, name


class TestThm212:
    def test_q8(self, q8):
        assert thm_2_12(q8).predicted_equal
        assert autset_equal(distinguished(q8, IA), distinguished(q8, CENTRAL))

    def test_m16_exponent_obstruction(self, m16):
        v = thm_2_12(m16)
        assert not v.predicted_equal
        assert "exp(A) = 4 > var(B, C) = 2" in v.evidence["detail"]
        assert not autset_equal(distinguished(m16, IA), distinguished(m16, CENTRAL))

    def test_m81_false_but_29_true(self):
        g = by_name("M81")
        assert not thm_2_12(g).predicted_equal
        assert cor_2_9(g).predicted_equal

    def test_d16_class_three(self, d16):
        assert not thm_2_12(d16).predicted_equal
        assert not autset_equal(distinguished(d16, IA), distinguished(d16, CENTRAL))


class TestLemma211:
    @pytest.mark.parametrize("name", ["Q8", "M16", "He3"])
    def test_examples(self, name):
        assert lemma_2_11_check(by_name(name)) is True

    def test_hypothesis_violation_rank(self, q8xc2):
        # d(G') = 1 but d(Z) = 2
        with pytest.raises(HypothesisViolationError):
            lemma_2_11_check(q8xc2)

    def test_hypothesis_violation_class(self, d16):
        with pytest.raises(HypothesisViolationError):
            lemma_2_11_check(d16)


class TestAdneyYen:
    @pytest.mark.parametrize("name", ["Q8", "D8", "M16"])
    def test_examples(self, name):
        assert adney_yen_check(by_name(name)) is True

    def test_q8_value(self, q8):
        # |Aut_c(Q8)| = 4 = |Hom(C2 x C2, C2)|
        assert len(distinguished(q8, CENTRAL)) == 4
        assert hom_order(PPartition(2, (1, 1)), PPartition(2, (1,))) == 4

    def test_rejects_non_purely_nonabelian(self, q8xc2):
        with pytest.raises(HypothesisViolationError):
            adney_yen_check(q8xc2)


class TestVerdictShape:
    def test_clause_none_iff_unequal(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            for predicate in (cor_2_6, cor_2_7, cor_2_9, cor_2_10, thm_2_12):
                v = predicate(g)
                assert (v.clause == NONE) == (not v.predicted_equal), name

    def test_evidence_recomputes(self, m16):
        # quantities quoted in the verdict agree with fresh computation
        v = cor_2_10(m16)
        z = m16.center()
        d = m16.derived_subgroup()
        assert v.evidence["G'"] == str(d.partition(2))
        assert v.evidence["Z"] == str(z.partition(2))
        assert v.evidence["G/Z"] == str(
            m16.quotient(z).group.abelian_partition(2)
        )
        assert v.evidence["G/G'"] == str(
            m16.quotient(d).group.abelian_partition(2)
        )


# the two benchmark stress groups, outside the catalog
STRESS_RECIPES = {
    "Q8xC4xC2": "product(quaternion 8, abelian 2 2 1)",
    "He3xC3": "product(heisenberg 3, cyclic 3)",
}
SWEPT = ((sweep_2_3, cor_2_3), (sweep_2_45, cor_2_4), (sweep_2_45, cor_2_5))
SINGLE = {cid: row for cid, row in report_mod.CRITERIA.items() if row[1] is None}

# criterion -> its evidence keys on (M16, D8, D16): G' < Z(G), G' = Z(G),
# and class 3, where COR_2_8 raises (None) and G' is not central
EVIDENCE_KEYS = {
    COR_2_6: ({"|G'|", "|Z|"},) * 3,
    COR_2_7: ({"G/G'Z", "G/G'", "Z", "detail"},) * 3,
    COR_2_8: ({"G/Z", "G/G'", "G'", "detail"},) * 2 + (None,),
    COR_2_9: ({"G/Z", "G'", "Z", "detail"},) * 2 + ({"class"},),
    COR_2_10: ({"G'", "Z", "G/Z", "G/G'", "exp(G')", "var(G/Z,G/G')", "exp(G/Z)",
                "var(G',Z)"}, {"G'"}, {"class"}),
    THM_2_12: ({"G/G'", "G'", "Z", "detail"},) * 2 + ({"class"},),
}


class TestSingleGroupCriteria:
    @pytest.mark.parametrize("name", sorted(STRESS_RECIPES))
    def test_stress_groups_agree_with_brute_force(self, name):
        g = eval_recipe(STRESS_RECIPES[name])
        for cid, (predicate, _, _, left, right) in SINGLE.items():
            observed = autset_equal(distinguished(g, left), distinguished(g, right))
            assert predicate(g).predicted_equal == observed, cid

    @pytest.mark.parametrize("i, name", enumerate(("M16", "D8", "D16")))
    def test_evidence_keys(self, i, name):
        assert set(EVIDENCE_KEYS) == set(SINGLE)
        g = by_name(name)
        for cid, keys in EVIDENCE_KEYS.items():
            predicate = SINGLE[cid][0]
            if keys[i] is None:
                with pytest.raises(ClassNotTwoError):
                    predicate(g)
            else:
                assert set(predicate(g).evidence) == keys[i], cid


def keyed_disagreements(g, sweep, predicate, key_of=lambda key: key):
    """Swept tuples whose (predicted, clause) differs from that of the
    first tuple with the same ``key_of(key)``.  The public predicate runs
    on every tuple, so its hypothesis checks run on every tuple too."""
    first = {}
    bad = []
    for args, key in swept(g, sweep):
        v = predicate(g, *args)
        decided = (v.predicted_equal, v.clause)
        if first.setdefault(key_of(key), decided) != decided:
            bad.append(args)
    return bad


class TestVerdictKeys:
    def test_catalog_keys_decide_verdicts(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            for sweep, predicate in SWEPT:
                assert not keyed_disagreements(g, sweep, predicate), (name, predicate)

    @pytest.mark.parametrize("name", sorted(STRESS_RECIPES))
    def test_stress_keys_decide_verdicts(self, name):
        g = eval_recipe(STRESS_RECIPES[name])
        for sweep, predicate in SWEPT:
            assert not keyed_disagreements(g, sweep, predicate), predicate

    # Each partition id is needed: a key without any one of them gives
    # two verdicts on some catalog group.
    @pytest.mark.parametrize("sweep, predicate, key_of", [
        (sweep_2_3, cor_2_3, lambda k: k[:1] + k[2:]),    # without G/G'N2
        (sweep_2_3, cor_2_3, lambda k: k[:3] + k[4:]),    # without M2
        (sweep_2_45, cor_2_4, lambda k: k[:1] + k[2:]),   # without M
        (sweep_2_45, cor_2_5, lambda k: k[1:]),           # without G/G'N
    ], ids=["cor_2_3-N2", "cor_2_3-M2", "cor_2_4-M", "cor_2_5-N"])
    def test_coarser_key_disagrees(self, nonabelian_corpus, sweep, predicate, key_of):
        assert any(keyed_disagreements(g, sweep, predicate, key_of)
                   for _, g in sorted(nonabelian_corpus.items()))

    @pytest.mark.parametrize("name, rows, keys", [
        ("Q8xC4xC2", 18983, 369), ("He3xC3", 674, 48),
    ])
    def test_one_predicate_call_per_key(self, monkeypatch, name, rows, keys):
        predicate, *rest = report_mod.CRITERIA[COR_2_3]
        calls = []

        def counted(g, *args):
            calls.append(args)
            return predicate(g, *args)

        monkeypatch.setitem(report_mod.CRITERIA, COR_2_3, (counted, *rest))
        rep = verify_group(name, eval_recipe(STRESS_RECIPES[name]), [COR_2_3])
        assert len(rep.rows) == rows and len(calls) == keys
        assert all(r.match for r in rep.rows)


def swept_sides(g):
    """(criterion, lattice indices, left AutSet, right AutSet, left order,
    right order) for every swept row of g, each side built once per group:
    as a set by ``aut_upper_lower`` or ``distinguished``, and as an order
    by ``aut_orders`` or ``len``."""
    normals = g.normal_subgroups()
    sides = {}

    def side(spec, args):
        key = spec if isinstance(spec, str) else (args[spec[0]], args[spec[1]])
        if key not in sides:
            if isinstance(key, str):
                s = distinguished(g, key)
                sides[key] = s, len(s)
            else:
                m, n = normals[key[0]], normals[key[1]]
                sides[key] = aut_upper_lower(g, m, n), aut_orders(g, m, [n])[0]
        return sides[key]

    for cid, (_, sweep, _, left, right) in report_mod.CRITERIA.items():
        if sweep is not None:
            for args, _ in block_rows(sweep(g)):
                (a, i), (b, j) = side(left, args), side(right, args)
                yield cid, args, a, b, i, j


def sweep_groups(corpus, stress_groups):
    groups = sorted((name, g) for name, (_, g) in corpus.items() if not g.is_abelian())
    return groups + sorted(stress_groups.items())


def member_keys(s):
    """An AutSet's members as one sorted void key per image row."""
    rows = np.ascontiguousarray(member_rows(s))
    return rows.view(f"V{rows.itemsize * s.parent.n}").ravel()


class TestSweptSides:
    """The sweeps' containments make a swept row's left side a subgroup of
    its right side, so ``verify_group`` compares their orders."""

    def test_left_side_lies_in_right(self, corpus, stress_groups):
        rows = 0
        for name, g in sweep_groups(corpus, stress_groups):
            for cid, args, a, b, _, _ in swept_sides(g):
                small, large = member_keys(a), member_keys(b)
                at = np.minimum(large.searchsorted(small), len(large) - 1)
                assert (large[at] == small).all(), (name, cid, args)
                rows += 1
        assert rows > 30000

    def test_equal_orders_are_equal_sets(self, corpus, stress_groups):
        equal = rows = 0
        for name, g in sweep_groups(corpus, stress_groups):
            for cid, args, a, b, i, j in swept_sides(g):
                assert i == len(a) and j == len(b), (name, cid, args)
                assert (i == j) == autset_equal(a, b), (name, cid, args)
                equal += i == j
                rows += 1
        assert 0 < equal < rows


@pytest.fixture(scope="module")
def q8xc2_3():
    """Q8xC2^3: order 128, 425 normal subgroups."""
    return eval_recipe("product(quaternion 8, abelian 2 1 1 1)")


class TestContainment:
    """The containment lists, and the sweeps that walk them, against
    pairwise frozenset subset tests."""

    def test_lists_match_subset_tests(self, corpus, stress_groups, q8xc2_3):
        # every catalog group in the enumeration bound; S3 and C2xC6 are
        # not p-groups, so they have no lattice to contain
        groups = sorted((name, g) for name, (_, g) in corpus.items() if g.n <= 128)
        groups += sorted(stress_groups.items())
        groups += [("Q8xC2^3", q8xc2_3)]
        for g in (FiniteGroup.from_permutation_generators([(1, 2, 0), (1, 0, 2)]),
                  direct_product(cyclic_group(2), cyclic_group(6))):
            with pytest.raises(NotPGroupError):
                containment(g)
        for name, g in groups:
            normals = g.normal_subgroups()
            expected = [[j for j, s in enumerate(normals) if s.members <= n.members]
                        for n in normals]
            assert containment(g) == expected, name

    def test_inverse_lists_match_scan(self, corpus, stress_groups, q8xc2_3):
        groups = sorted((name, g) for name, (_, g) in corpus.items() if g.n <= 128)
        groups += sorted(stress_groups.items()) + [("Q8xC2^3", q8xc2_3)]
        for name, g in groups:
            below = containment(g)
            expected = [[i for i, b in enumerate(below) if j in b] for j in range(len(below))]
            assert containing(g) == expected, name

    def test_sweeps_match_subset_sweeps(self, nonabelian_corpus, stress_groups, q8xc2_3):
        groups = sorted(nonabelian_corpus.items()) + sorted(stress_groups.items())
        groups.append(("Q8xC2^3", q8xc2_3))
        tuples = 0
        for name, g in groups:
            assert center_subgroups(g) == center_subgroups_by_subsets(g), name
            assert list(sweep_2_45(g)) == list(sweep_2_45_by_subsets(g)), name
            got = list(sweep_2_3(g))
            assert got == list(sweep_2_3_by_subsets(g)), name
            tuples += len(got)
            # the block sweeps walk the same tuples in the same order, and
            # their int keys are equal exactly when the tuple keys are
            for blocks, sweep in ((report_mod.sweep_2_3, sweep_2_3),
                                  (report_mod.sweep_2_45, sweep_2_45)):
                flat, want = list(block_rows(blocks(g))), list(sweep(g))
                assert [args for args, _ in flat] == [args for args, _ in want], name
                keys = set(zip((k for _, k in flat), (k for _, k in want)))
                assert len(keys) == len({k for k, _ in keys}) == len({k for _, k in keys}), name
        assert tuples == 111151  # 29,300 on the catalog and stress groups


def test_library_surface_is_what_autcrit_runs():
    # every exported name is read by some module of the library itself,
    # so no name ships that only the tests call
    src = Path(autcrit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    loaded = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(autcrit.__all__) - loaded) == []
    # the predicates read invariants only: nothing of the search engine or
    # of the verifier that checks them
    imported = set()
    for node in ast.walk(trees["criteria"]):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):  # a relative import is from autcrit
            module = ".".join(["autcrit"] * bool(node.level) + [node.module] * bool(node.module))
            imported.add(module)
            imported.update(f"{module}.{a.name}" for a in node.names)
    assert not imported & {"autcrit.automorphisms", "autcrit.report"}
