import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcrit.abelian import (
    IDENTICAL,
    RANK_AND_VAR,
    TRIVIAL_HOM,
    UNEQUAL,
    PPartition,
    decide_hom_equal_sources,
    decide_hom_equal_targets,
    embeds,
    exponent,
    hom_order,
    hom_type,
    partitions_up_to,
    rank,
    var,
    var_with_index,
)
from autcrit.errors import (
    HypothesisViolationError,
    PrimeMismatchError,
    VarUndefinedError,
)
from oracles import (
    count_homs,
    count_homs_killed_by,
    count_homs_verified,
    order_dividing_counts,
)


def pp(p, *exps):
    return PPartition(p, tuple(exps))


partition_strategy = st.builds(
    PPartition,
    st.sampled_from([2, 3, 5]),
    st.lists(st.integers(1, 4), max_size=4).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
)


class TestPPartition:
    def test_parse_round_trip(self):
        for text in ["2^[2,1]", "3^[]", "5^[1,1,1]", "2^[4]"]:
            assert str(PPartition.parse(text)) == text

    def test_parse_spacing(self):
        assert PPartition.parse(" 2^[ 2, 1 ] ") == pp(2, 2, 1)

    def test_order(self):
        assert pp(2, 2, 1).order == 8
        assert pp(3).order == 1

    @pytest.mark.parametrize(
        "p,exps",
        [(4, (1,)), (1, ()), (2, (0,)), (2, (-1,)), (2, (1, 2))],
    )
    def test_invalid_rejected(self, p, exps):
        with pytest.raises(ValueError):
            PPartition(p, exps)

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            PPartition.parse("C4xC2")


class TestRankExponent:
    def test_rank(self):
        assert rank(pp(2, 2, 1)) == 2
        assert rank(pp(3)) == 0
        assert rank(pp(2, 1, 1, 1)) == 3

    def test_exponent(self):
        assert exponent(pp(2, 3, 1)) == 8
        assert exponent(pp(5)) == 1
        assert exponent(pp(3, 2, 2)) == 9


class TestEmbeds:
    def test_examples(self):
        assert embeds(pp(2, 1, 1), pp(2, 2, 1))
        assert not embeds(pp(2, 2), pp(2, 1, 1))
        assert not embeds(pp(2, 1, 1, 1), pp(2, 3, 3))

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            embeds(pp(2, 1), pp(3, 1))

    def test_partial_order_exhaustive(self):
        parts = partitions_up_to(2, 4)
        for x in parts:
            assert embeds(x, x)
        for x in parts:
            for y in parts:
                if embeds(x, y) and embeds(y, x):
                    assert x == y
        for x in parts:
            for y in parts:
                for z in parts:
                    if embeds(x, y) and embeds(y, z):
                        assert embeds(x, z)


class TestVar:
    def test_examples(self):
        assert var_with_index(pp(2, 1, 1), pp(2, 2, 1)) == (2, 1)
        assert var_with_index(pp(2, 2, 1), pp(2, 2, 2)) == (2, 2)
        assert var_with_index(pp(3, 2, 1, 1), pp(3, 3, 2, 1)) == (3, 2)

    def test_accessors(self):
        assert var(pp(2, 1, 1), pp(2, 2, 1)) == 2

    @pytest.mark.parametrize(
        "x,y",
        [
            (pp(2, 2, 1), pp(2, 2, 1)),      # equal
            (pp(2, 1), pp(2, 2, 1)),          # rank mismatch
            (pp(2, 3), pp(2, 2)),             # not embedded
        ],
    )
    def test_undefined(self, x, y):
        with pytest.raises(VarUndefinedError):
            var(x, y)

    def test_suffix_property_exhaustive(self):
        # var value bounded by exp(X); factors after r coincide
        parts = partitions_up_to(2, 5) + partitions_up_to(3, 4)
        for x in parts:
            for y in parts:
                if x.p != y.p or x == y:
                    continue
                if not embeds(x, y) or rank(x) != rank(y):
                    continue
                v, r = var_with_index(x, y)
                assert v <= exponent(x)
                assert x.exps[r:] == y.exps[r:]
                assert x.exps[r - 1] < y.exps[r - 1]


class TestHomOrder:
    def test_examples_frozen(self):
        # values cross-checked against exhaustive enumeration below
        assert hom_order(pp(2, 2), pp(2, 1, 1)) == 4
        assert hom_order(pp(7), pp(7, 3, 1)) == 1
        assert hom_order(pp(2, 2, 1), pp(2, 2)) == 8

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            hom_order(pp(2, 1), pp(3, 1))

    def test_against_enumeration_small_grid(self):
        for p in (2, 3):
            parts = partitions_up_to(p, 4)
            for a in parts:
                for b in parts:
                    assert hom_order(a, b) == count_homs(p, a.exps, b.exps)

    def test_against_fully_verified_maps(self):
        # tiny cases where every candidate map is checked pairwise
        cases = [
            (2, (2,), (1, 1)),
            (2, (2, 1), (2,)),
            (2, (1, 1), (2, 1)),
            (3, (2,), (1, 1)),
            (3, (1, 1), (2,)),
        ]
        for p, src, dst in cases:
            assert hom_order(pp(p, *src), pp(p, *dst)) == count_homs_verified(
                p, src, dst
            )

    @given(partition_strategy, partition_strategy)
    def test_symmetry(self, a, b):
        if a.p != b.p:
            return
        assert hom_order(a, b) == hom_order(b, a)
        assert hom_type(a, b) == hom_type(b, a)


class TestHomType:
    def test_examples_frozen(self):
        assert hom_type(pp(2, 2), pp(2, 1, 1)) == pp(2, 1, 1)
        assert hom_type(pp(3), pp(3, 2)) == pp(3)
        assert hom_type(pp(5, 2), pp(5)) == pp(5)
        assert hom_type(pp(2, 2, 1), pp(2, 2)) == pp(2, 2, 1)

    def test_order_consistency(self):
        for p in (2, 3):
            parts = partitions_up_to(p, 4)
            for a in parts:
                for b in parts:
                    assert hom_type(a, b).order == hom_order(a, b)

    def test_order_dividing_counts_match_enumeration(self):
        # the number of homs killed by p^k equals the count of elements
        # of the claimed Hom type killed by p^k, for every k
        for p in (2, 3):
            parts = partitions_up_to(p, 3)
            for a in parts:
                for b in parts:
                    t = hom_type(a, b)
                    counts = order_dividing_counts(p, t.exps)
                    for k, c in counts.items():
                        assert c == count_homs_killed_by(p, a.exps, b.exps, k)


class TestDecideTargets:
    def test_examples_frozen(self):
        v = decide_hom_equal_targets(pp(2, 1), pp(2, 1, 1), pp(2, 2, 1))
        assert v.equal and v.clause == RANK_AND_VAR and v.r_index == 1
        assert hom_order(pp(2, 1), pp(2, 1, 1)) == hom_order(pp(2, 1), pp(2, 2, 1)) == 4

        v = decide_hom_equal_targets(pp(2, 2), pp(2, 1, 1), pp(2, 2, 1))
        assert not v.equal and v.clause == UNEQUAL
        assert hom_order(pp(2, 2), pp(2, 1, 1)) == 4
        assert hom_order(pp(2, 2), pp(2, 2, 1)) == 8

        v = decide_hom_equal_targets(pp(2, 3, 1), pp(2, 2, 1), pp(2, 2, 1))
        assert v.equal and v.clause == IDENTICAL

    def test_trivial_source(self):
        v = decide_hom_equal_targets(pp(2), pp(2, 1), pp(2, 2, 2))
        assert v.equal and v.clause == TRIVIAL_HOM

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolationError):
            decide_hom_equal_targets(pp(2, 1), pp(2, 2), pp(2, 1, 1))

    def test_biconditional_exhaustive(self):
        for p in (2, 3):
            parts = partitions_up_to(p, 4)
            for a in parts:
                for b in parts:
                    for c in parts:
                        if not embeds(b, c):
                            continue
                        v = decide_hom_equal_targets(a, b, c)
                        assert v.equal == (hom_order(a, b) == hom_order(a, c))


class TestDecideSources:
    def test_examples_frozen(self):
        v = decide_hom_equal_sources(pp(2, 1, 1), pp(2, 2, 1), pp(2, 1))
        assert v.equal and v.clause == RANK_AND_VAR
        assert hom_order(pp(2, 1, 1), pp(2, 1)) == hom_order(pp(2, 2, 1), pp(2, 1)) == 4

        v = decide_hom_equal_sources(pp(2, 1, 1), pp(2, 2, 1), pp(2, 2))
        assert not v.equal and v.clause == UNEQUAL
        assert hom_order(pp(2, 1, 1), pp(2, 2)) == 4
        assert hom_order(pp(2, 2, 1), pp(2, 2)) == 8

        v = decide_hom_equal_sources(pp(3, 2), pp(3, 2), pp(3, 1, 1))
        assert v.equal and v.clause == IDENTICAL

    def test_trivial_target(self):
        v = decide_hom_equal_sources(pp(2, 1), pp(2, 2, 2), pp(2))
        assert v.equal and v.clause == TRIVIAL_HOM

    def test_biconditional_exhaustive(self):
        for p in (2, 3):
            parts = partitions_up_to(p, 4)
            for d in parts:
                for a in parts:
                    if not embeds(d, a):
                        continue
                    for b in parts:
                        v = decide_hom_equal_sources(d, a, b)
                        assert v.equal == (hom_order(d, b) == hom_order(a, b))
