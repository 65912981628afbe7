import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autcrit.abelian import PPartition, partitions_up_to
from autcrit.catalog import (
    GroupSpec,
    abelian_group,
    build_group,
    catalog,
    cyclic_group,
    dihedral_group,
    eval_recipe,
    heisenberg_group,
    permutation_generators,
    quaternion_group,
)
from autcrit.errors import (
    GroupFileError,
    InvalidPermutationError,
    InvariantError,
    NoIdentityError,
    NotAbelianError,
    NotASubgroupError,
    NotAssociativeError,
    NotLatinSquareError,
    NotNilpotentError,
    NotNormalError,
    NotPGroupError,
    OrderBoundExceededError,
)
from autcrit.criteria import mod_derived_part
from autcrit.formats import parse_group_text
from autcrit.groups import (
    FiniteGroup,
    Subgroup,
    _raw_generators,
    _validate_table,
    direct_product,
    subgroup_product,
)
from autcrit.report import group_summary
from oracles import (
    abelian_basis,
    all_subgroups,
    as_group,
    cayley_rows,
    closure,
    commutator_subgroup,
    direct_factor_by_pairs,
    element_orders_by_powers,
    factor_orders,
    greedy_generators_by_closure,
    is_associative,
    is_central,
    min_generating_size,
    permutation_table,
    raw_generators,
    section_exps,
    to_cayley_text,
    unpruned_direct_factor,
)

# Latin square with identity 0 that fails associativity: (1*1)*2 != 1*(1*2)
NONASSOC_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def s3():
    return FiniteGroup.from_permutation_generators([(1, 2, 0), (1, 0, 2)])


class TestFromTable:
    def test_c2(self):
        g = FiniteGroup.from_table([[0, 1], [1, 0]])
        assert g.n == 2

    def test_identity_relocated(self):
        # C3 table written with the identity at index 2
        rows = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
        g = FiniteGroup.from_table(rows)
        assert g.table[0] == (0, 1, 2)
        assert [row[0] for row in g.table] == [0, 1, 2]
        assert g.element_orders() == (1, 3, 3)

    def test_not_latin(self):
        with pytest.raises(NotLatinSquareError):
            FiniteGroup.from_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        rows = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        with pytest.raises(NoIdentityError):
            FiniteGroup.from_table(rows)

    def test_not_associative(self):
        with pytest.raises(NotAssociativeError):
            FiniteGroup.from_table(NONASSOC_5)

    def test_generator_test_accepts_large_group(self):
        # Light's test over generators found by raw-product closure, on
        # an order where a triple scan would cost 343**3 products
        g = direct_product(cyclic_group(7), cyclic_group(49))
        assert g.n == 343

    def test_generator_test_rejects_large_loop(self):
        # NONASSOC_5 x C64: a loop of order 320 whose failure Light's test
        # must reach through one of its generators
        m = 64
        cyc = [[(i + j) % m for j in range(m)] for i in range(m)]
        table = [
            [NONASSOC_5[a1][a2] * m + cyc[b1][b2] for a2 in range(5) for b2 in range(m)]
            for a1 in range(5)
            for b1 in range(m)
        ]
        with pytest.raises(NotAssociativeError):
            FiniteGroup(table)


    @pytest.mark.parametrize("build", [FiniteGroup, FiniteGroup.from_table])
    @pytest.mark.parametrize(
        "rows", [[[0, 1], [1]], [[0, 1], [1, 10**30]], [[0, 1], [1, -10**30]]],
        ids=["ragged", "oversized", "negative oversized"])
    def test_ragged_or_oversized(self, build, rows):
        with pytest.raises(NotLatinSquareError):
            build(rows)


def relabelled_text(table, pi):
    """Cayley text of ``table`` with element a renamed pi[a]."""
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[pi[a]][pi[b]] = pi[table[a][b]]
    return f"cayley {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def identity_at(pi, e):
    """``pi`` with two images traded so that the identity 0 is renamed e."""
    pi = list(pi)
    j = pi.index(e)
    pi[0], pi[j] = e, pi[0]
    return pi


def raised(parse, text):
    """The class of the exception ``parse(text)`` raises, None if none."""
    try:
        parse(text)
    except Exception as exc:
        return type(exc)
    return None


def oracle_group(text):
    return FiniteGroup(cayley_rows(text))


# (what, text, error of parse_group_text, error of the per-token path or
# None where it accepted the text).  The two differ only on the last five:
# the per-token path raised a bare ValueError on a token int() refuses,
# and with the identity off 0 its list relabelling raised IndexError on an
# entry >= n and read a negative one from the end of the swap.
MALFORMED = [
    ("missing row", "cayley 3\n0 1 2\n1 2 0\n", GroupFileError, GroupFileError),
    ("extra row", "cayley 2\n0 1\n1 0\n0 1\n", GroupFileError, GroupFileError),
    ("short row", "cayley 2\n0 1\n1\n", GroupFileError, GroupFileError),
    ("short and long row", "cayley 2\n0\n1 1 0\n", GroupFileError, GroupFileError),
    ("negative entry", "cayley 2\n0 1\n1 -1\n", NotLatinSquareError, NotLatinSquareError),
    ("out-of-range entry", "cayley 2\n0 1\n1 2\n", NotLatinSquareError, NotLatinSquareError),
    ("out-of-range entry in row 0", "cayley 2\n0 5\n1 0\n", NoIdentityError, NoIdentityError),
    ("oversized entry", "cayley 2\n0 1\n1 99999999999999999999999\n",
     NotLatinSquareError, NotLatinSquareError),
    ("no identity", "cayley 3\n0 1 2\n2 0 1\n1 2 0\n", NoIdentityError, NoIdentityError),
    ("not Latin", "cayley 2\n0 1\n1 1\n", NotLatinSquareError, NotLatinSquareError),
    ("not associative", relabelled_text(NONASSOC_5, range(5)),
     NotAssociativeError, NotAssociativeError),
    ("not associative, identity at 4", relabelled_text(NONASSOC_5, (4, 1, 2, 3, 0)),
     NotAssociativeError, NotAssociativeError),
    ("word entry", "cayley 2\n0 1\n1 x\n", GroupFileError, ValueError),
    ("decimal entry", "cayley 2\n0 1\n1 0.0\n", GroupFileError, ValueError),
    ("bare sign", "cayley 2\n0 1\n1 -\n", GroupFileError, ValueError),
    ("out-of-range entry, identity at 2", "cayley 3\n1 2 0\n2 7 1\n0 1 2\n",
     NotLatinSquareError, IndexError),
    ("negative entry, identity at 2", "cayley 3\n1 -1 0\n2 0 1\n0 1 2\n",
     NotLatinSquareError, None),
]


class TestCayleyIngestAgainstOracle:
    """parse_group_text against the per-token parse, identity scan and
    list relabelling of ``oracles.cayley_rows``."""

    def test_every_catalog_group(self, corpus):
        rng = random.Random(17)
        for name, (spec, g) in sorted(corpus.items()):
            for e in sorted({0, g.n - 1, rng.randrange(g.n)}):
                pi = list(range(g.n))
                rng.shuffle(pi)
                text = relabelled_text(g.table, identity_at(pi, e))
                assert parse_group_text(text).table == oracle_group(text).table, (name, e)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_relabelling(self, corpus, data):
        g = corpus[data.draw(st.sampled_from(sorted(corpus)))][1]
        pi = data.draw(st.permutations(range(g.n)))
        e = data.draw(st.sampled_from((0, g.n - 1)) | st.integers(0, g.n - 1))
        text = relabelled_text(g.table, identity_at(pi, e))
        assert parse_group_text(text).table == oracle_group(text).table

    @pytest.mark.parametrize("what, text, new, old", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_malformed(self, what, text, new, old):
        assert raised(parse_group_text, text) is new
        assert raised(oracle_group, text) is old

    def test_plain_int_rows_and_inverses(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            for h in (g, parse_group_text(to_cayley_text(g)), FiniteGroup(g.table)):
                assert all(type(x) is int for row in h.table for x in row), name
                for a in range(h.n):
                    b = h.inv(a)
                    assert type(b) is int and h.table[a][b] == 0 == h.table[b][a], (name, a)


def intercalates(rows):
    """(a, b, c, d) with rows a < b and columns c < d, none of them 0,
    such that rows[a][c] == rows[b][d] and rows[a][d] == rows[b][c]."""
    n = len(rows)
    return [
        (a, b, c, d)
        for a in range(1, n) for b in range(a + 1, n)
        for c in range(1, n) for d in range(c + 1, n)
        if rows[a][c] == rows[b][d] and rows[a][d] == rows[b][c]
    ]


def raw_product_tree(rows):
    """``rows`` relabelled in the order that raw products of its raw
    generators first reach each element, with that walk's spanning tree:
    each generator g is 0 * g and each other element the first a * b of two
    elements reached before it, so every parent is below its child."""
    n = len(rows)
    reached = {0: None}  # element -> (a, b) with a * b the element
    for g in raw_generators(rows):
        reached[g] = (0, g)
    while len(reached) < n:
        for a in list(reached):
            for b in list(reached):
                reached.setdefault(rows[a][b], (a, b))
    pi = {x: i for i, x in enumerate(reached)}
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[pi[a]][pi[b]] = pi[rows[a][b]]
    parents, via = zip(*[(pi[a], pi[b]) for a, b in list(reached.values())[1:]])
    return table, np.array(parents), np.array(via)


def switched_loop(corpus, data):
    """A catalog table of a 2-group of order 4..16 with one to three
    intercalates switched: swapping the two columns of an intercalate
    within both of its rows keeps a Latin square with identity 0, usually
    breaking associativity."""
    tables = [g.table for _, (spec, g) in sorted(corpus.items())
              if spec.prime == 2 and 4 <= g.n <= 16]
    rows = [list(r) for r in data.draw(st.sampled_from(tables))]
    for _ in range(data.draw(st.integers(1, 3))):
        spots = intercalates(rows)
        if not spots:
            break
        a, b, c, d = data.draw(st.sampled_from(spots))
        rows[a][c], rows[a][d] = rows[a][d], rows[a][c]
        rows[b][c], rows[b][d] = rows[b][d], rows[b][c]
    return rows


def accepts(arr, tree=None):
    try:
        _validate_table(arr, tree)
    except NotAssociativeError:
        return False
    return True


class TestAssociativityAgainstOracle:
    """FiniteGroup raises NotAssociativeError exactly when the triple-scan
    oracle finds a non-associative triple."""

    def test_catalog_tables(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            assert is_associative(g.table), name
            assert FiniteGroup(g.table).table == g.table, name
            if g.n <= 81:
                # Light's test runs through exactly the greedy raw-product generators
                assert _raw_generators(np.array(g.table)) == raw_generators(g.table), name

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_switched_loops(self, corpus, data):
        rows = switched_loop(corpus, data)
        assert _raw_generators(np.array(rows)) == raw_generators(rows)
        if is_associative(rows):
            FiniteGroup(rows)
        else:
            with pytest.raises(NotAssociativeError):
                FiniteGroup(rows)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_spanning_tree_decides_as_raw_generators(self, corpus, data):
        # Light's test through a spanning tree's generators accepts exactly
        # the tables that it accepts through the raw generators, and a tree
        # that misstates a product or an order is refused
        table, parents, via = raw_product_tree(switched_loop(corpus, data))
        arr, n = np.array(table), len(table)
        assert accepts(arr, (parents, via)) == accepts(arr) == is_associative(table)
        j = data.draw(st.integers(1, n - 1))
        wrong = via.copy()
        wrong[j - 1] = data.draw(st.sampled_from([b for b in range(n) if b != via[j - 1]]))
        with pytest.raises(InvariantError):
            _validate_table(arr, (parents, wrong))
        # a true product from a parent at or above its child
        above, col = parents.copy(), via.copy()
        above[j - 1] = data.draw(st.integers(j, n - 1))
        col[j - 1] = table[above[j - 1]].index(j)
        with pytest.raises(InvariantError):
            _validate_table(arr, (above, col))


class TestFromPermutations:
    def test_dihedral_example(self):
        g = FiniteGroup.from_permutation_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
        assert g.n == 8
        # numpy integer points are points
        h = FiniteGroup.from_permutation_generators(
            [np.array((1, 2, 3, 0)), tuple(np.int64(x) for x in (2, 1, 0, 3))])
        assert h.table == g.table

    def test_empty_generators(self):
        g = FiniteGroup.from_permutation_generators([])
        assert g.n == 1
        # the one permutation of no points
        assert FiniteGroup.from_permutation_generators([()]).table == ((0,),)

    def test_single_transposition(self):
        g = FiniteGroup.from_permutation_generators([(1, 0)])
        assert g.n == 2

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutationError):
            FiniteGroup.from_permutation_generators([(0, 0, 1)])
        # 1.0 sorts and compares equal to 1, so only a type check refuses it
        with pytest.raises(InvalidPermutationError):
            FiniteGroup.from_permutation_generators([(1.0, 0)])
        # a generator that is not a sequence is refused before any check
        for gens in ([5], [[0, 1], None]):
            with pytest.raises(InvalidPermutationError):
                FiniteGroup.from_permutation_generators(gens)

    def test_order_bound(self, monkeypatch):
        monkeypatch.setattr("autcrit.groups.DEFAULT_INGEST_BOUND", 10)
        with pytest.raises(OrderBoundExceededError):
            FiniteGroup.from_permutation_generators([tuple(list(range(1, 12)) + [0])])

    def test_order_bound_edge(self, monkeypatch):
        # the bound is the largest order allowed, checked during the closure
        cycle = [tuple(list(range(1, 12)) + [0])]
        monkeypatch.setattr("autcrit.groups.DEFAULT_INGEST_BOUND", 12)
        assert FiniteGroup.from_permutation_generators(cycle).n == 12
        monkeypatch.setattr("autcrit.groups.DEFAULT_INGEST_BOUND", 11)
        with pytest.raises(OrderBoundExceededError):
            FiniteGroup.from_permutation_generators(cycle)

    def test_catalog_tables_match_oracle(self):
        for spec in catalog():
            gens = permutation_generators(spec)
            degree = len(gens[0]) if gens else 1
            g = FiniteGroup.from_permutation_generators(gens, degree=degree)
            expected = permutation_table(gens, degree)
            assert g.table == tuple(map(tuple, expected)), spec.name

    @pytest.mark.parametrize("prime, recipe", [
        (2, "product(quaternion 8, abelian 2 2 1)"), (3, "product(heisenberg 3, cyclic 3)")])
    def test_stress_recipes_match_oracle(self, prime, recipe):
        # regular actions of degree 64 and 81, as the benchmark's stress workload ingests them
        gens = permutation_generators(GroupSpec(recipe, prime, recipe))
        g = FiniteGroup.from_permutation_generators(gens)
        assert g.table == tuple(map(tuple, permutation_table(gens, len(gens[0]))))

    # degree stays <= 5: the pairwise oracle needs minutes on S7
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
    @example((3, []))
    @example((1, [(0,)]))
    @example((1, [(0,), (0,)]))
    @example((4, [(0, 1, 2, 3)]))
    @example((4, [(1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 2, 3)]))
    @example((5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]))
    def test_random_generators_match_oracle(self, case):
        degree, gens = case
        g = FiniteGroup.from_permutation_generators(gens, degree=degree)
        assert g.table == tuple(map(tuple, permutation_table(gens, degree)))


class TestCenterDerived:
    def test_center_q8_d8(self):
        assert quaternion_group(8).center().order == 2
        assert dihedral_group(8).center().order == 2

    def test_center_abelian(self):
        g = cyclic_group(6)
        assert g.center().order == 6

    def test_derived(self):
        assert cyclic_group(8).derived_subgroup().order == 1
        assert quaternion_group(8).derived_subgroup().order == 2
        d16 = dihedral_group(16)
        der = d16.derived_subgroup()
        assert der.order == 4
        dg, _ = as_group(der)
        assert dg.abelian_partition(2) == PPartition(2, (2,))  # cyclic C4

    def test_flags(self):
        g = dihedral_group(8)
        assert g.center().is_normal() and is_central(g.center())
        assert g.derived_subgroup().is_normal()


class TestSubgroupProduct:
    def test_trivial_factor(self):
        g = dihedral_group(8)
        h = g.trivial_subgroup()
        k = g.center()
        assert subgroup_product(h, k).members == k.members

    def test_self_product(self):
        g = dihedral_group(8)
        k = g.center()
        assert subgroup_product(k, k).members == k.members

    def test_d8_derived_times_center(self):
        g = dihedral_group(8)
        prod = subgroup_product(g.derived_subgroup(), g.center())
        assert prod.order == 2
        assert prod.members == g.center().members

    def test_normal_flag_only_from_factors_known_normal(self):
        g = dihedral_group(16)
        assert subgroup_product(g.derived_subgroup(), g.center())._cache.get("normal") is True
        refl = next(x for x in range(g.n) if g.element_order(x) == 2 and x not in g.center())
        assert "normal" not in subgroup_product(g.subgroup({0, refl}), g.center())._cache
        # a factor whose normality is not yet known is not examined for the flag
        z = g.subgroup(g.center().members)
        assert "normal" not in subgroup_product(g.derived_subgroup(), z)._cache
        assert "normal" not in z._cache

    def test_nonnormal_failure(self):
        # two different non-normal reflections of D8 generate a product
        # set that is not a subgroup
        g = dihedral_group(8)
        refl = [
            x
            for x in range(g.n)
            if g.element_order(x) == 2 and x not in g.center()
        ]
        h = g.subgroup({0, refl[0]})
        found = False
        for other in refl[1:]:
            k = g.subgroup({0, other})
            try:
                subgroup_product(h, k)
            except NotASubgroupError:
                found = True
                break
        assert found


class TestSubgroupRefusal:
    @pytest.mark.parametrize("members", [[99], [8], [-1], [1, -1]])
    def test_index_outside_group(self, members):
        with pytest.raises(NotASubgroupError, match=r"outside 0\.\.7"):
            quaternion_group(8).subgroup(members)

    def test_not_closed(self):
        g = quaternion_group(8)
        x = next(a for a in range(g.n) if g.element_order(a) == 4)
        with pytest.raises(NotASubgroupError, match="not closed"):
            g.subgroup({x})
        assert g.subgroup(g.closure([x])).order == 4


class TestQuotient:
    def test_q8_mod_center(self):
        g = quaternion_group(8)
        q = g.quotient(g.center())
        assert q.group.abelian_partition(2) == PPartition(2, (1, 1))

    def test_mod_trivial_is_same_table(self):
        g = dihedral_group(8)
        q = g.quotient(g.trivial_subgroup())
        assert q.group.table == g.table

    def test_mod_self_is_trivial(self):
        g = dihedral_group(8)
        assert g.quotient(g.full_subgroup()).group.n == 1

    def test_not_normal(self):
        g = dihedral_group(8)
        refl = next(
            x
            for x in range(g.n)
            if g.element_order(x) == 2 and x not in g.center()
        )
        # a failed check is never cached, so a second call raises too
        for _ in range(2):
            with pytest.raises(NotNormalError):
                g.quotient(g.subgroup({0, refl}))

    def test_memo_hit_skips_normality_check(self, monkeypatch):
        g = dihedral_group(8)
        q = g.quotient(g.center())

        def no_recheck(self):
            raise AssertionError("normality rechecked on a memo hit")

        monkeypatch.setattr(Subgroup, "is_normal", no_recheck)
        assert g.quotient(g.subgroup(g.center().members)) is q

    @pytest.mark.parametrize("build", [
        "from autcrit.catalog import dihedral_group\n"
        "from autcrit.groups import Quotient\n"
        "g = dihedral_group(8)\n"
        "Quotient(g, g.center(), g, tuple(range(g.n)))\n",
        "from autcrit.criteria import CriterionVerdict\n"
        "CriterionVerdict('COR_2_6', True, 'NONE')\n",
        "from autcrit.abelian import HomVerdict\n"
        "HomVerdict(True, 'UNEQUAL')\n",
        "from autcrit.automorphisms import compose_transversals\n"
        "compose_transversals(2, [[(0, 1), (0, 1)]])\n",
        # a print that sets element 3 apart is not automorphism-invariant,
        # so an orbit closure leaves that element's pool
        "from autcrit import automorphisms\n"
        "from autcrit.catalog import quaternion_group\n"
        "g, real = quaternion_group(8), automorphisms._fingerprints\n"
        "automorphisms._fingerprints = lambda g: [(p, x == 3) for x, p in enumerate(real(g))]\n"
        "automorphisms._search(g, g.full_subgroup(), g.trivial_subgroup())\n",
        # a block sweep that swaps M1 and M2, one row per block so that
        # each block still shares its right side, makes the left side no
        # subgroup of the right; the predicate gets the tuple back in
        # order, as its hypothesis checks would refuse the swap before any
        # side is counted
        "from autcrit import report\n"
        "from autcrit.catalog import dihedral_group\n"
        "predicate, sweep, *rest = report.CRITERIA['COR_2_3']\n"
        "def swapped(g):\n"
        "    for key, (n1, m2, n2), pairs in sweep(g):\n"
        "        for (m1,), i in pairs:\n"
        "            yield key + i, (n1, m1, n2), [((m2,), 0)]\n"
        "def unswapped(g, m2, n1, m1, n2):\n"
        "    return predicate(g, m1, n1, m2, n2)\n"
        "report.CRITERIA['COR_2_3'] = (unswapped, swapped, *rest)\n"
        "report.verify_group('D8', dihedral_group(8))\n",
        # the divisibility guard reads both sides on every row, also from
        # the order table: a stub gives |Aut^1_1| = 8 and |Aut^1_G| = 1,
        # the first block fills the trivial M's whole row, and the third
        # block finds both sides cached; a second fill of that row would
        # mean a side was not read from the table
        "from autcrit import automorphisms, report\n"
        "from autcrit.catalog import dihedral_group\n"
        "g = dihedral_group(8)\n"
        "top, filled = len(g.normal_subgroups()) - 1, []\n"
        "def stub(g, x, ys):\n"
        "    filled.append(x)\n"
        "    if len(filled) > 1:\n"
        "        raise RuntimeError('a row of the order table was filled again')\n"
        "    return [g.n // y.order for y in ys]\n"
        "automorphisms.aut_orders = stub\n"
        "predicate, sweep, *rest = report.CRITERIA['COR_2_3']\n"
        "def cached(g):\n"
        "    for n1, n2 in ((0, 0), (top, top), (0, top)):\n"
        "        yield 0, (n1, 0, n2), [((0,), 0)]\n"
        "report.CRITERIA['COR_2_3'] = (predicate, cached, *rest)\n"
        "report.verify_group('D8', g, ['COR_2_3'])\n",
        # a join that returns the whole group is no cover of index p
        "from autcrit.catalog import dihedral_group\n"
        "from autcrit.groups import FiniteGroup\n"
        "g = dihedral_group(8)\n"
        "g.full_subgroup().generators()\n"
        "FiniteGroup.join = lambda self, members, gens: frozenset(range(self.n))\n"
        "g.normal_subgroups()\n",
        # a level that sends its generator to one image twice would count
        # one member twice
        "from autcrit.automorphisms import AutSet\n"
        "from autcrit.catalog import cyclic_group\n"
        "g = cyclic_group(2)\n"
        "AutSet.from_levels(g, g.full_subgroup(), g.trivial_subgroup(), [[(0, 1), (0, 1)]], 'FULL')\n",
    ], ids=["quotient", "criterion_verdict", "hom_verdict", "compose_transversals",
            "orbit_closure", "swapped_sweep", "cached_sides", "lattice_cover",
            "level_repeats_image"])
    def test_bad_quotient_raises_under_optimize(self, build):
        # a typed raise, not an assert, so python -O keeps the check
        code = (
            "from autcrit.errors import InvariantError\n"
            "try:\n"
            + "".join("    " + ln + "\n" for ln in build.splitlines())
            + "except InvariantError:\n"
            "    print('InvariantError')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "InvariantError\n"

    def test_projection_is_homomorphism(self):
        g = quaternion_group(8)
        q = g.quotient(g.center())
        for a in range(g.n):
            for b in range(g.n):
                assert q.projection[g.mul(a, b)] == q.group.mul(
                    q.projection[a], q.projection[b]
                )


class TestAbelianPartition:
    def test_examples(self):
        assert abelian_group(2, (2, 1)).abelian_partition() == PPartition(2, (2, 1))
        assert abelian_group(2, (1, 1, 1)).abelian_partition() == PPartition(2, (1, 1, 1))
        assert cyclic_group(1).abelian_partition(3) == PPartition(3, ())

    def test_trivial_needs_prime(self):
        with pytest.raises(NotPGroupError):
            cyclic_group(1).abelian_partition()

    def test_not_abelian(self):
        with pytest.raises(NotAbelianError):
            dihedral_group(8).abelian_partition()

    def test_not_p_group(self):
        with pytest.raises(NotPGroupError):
            cyclic_group(6).abelian_partition()

    def test_wrong_prime(self):
        with pytest.raises(NotPGroupError):
            cyclic_group(4).abelian_partition(3)
        q8 = quaternion_group(8)
        with pytest.raises(NotPGroupError):
            q8.section_partition(q8.full_subgroup(), q8.derived_subgroup(), 3)
        with pytest.raises(NotPGroupError):
            q8.center().partition(3)

    def test_not_abelian_before_not_p_group(self):
        with pytest.raises(NotAbelianError):
            s3().abelian_partition()

    def test_non_abelian_section(self):
        d16 = dihedral_group(16)
        with pytest.raises(NotAbelianError):
            d16.section_partition(d16.full_subgroup(), d16.center())  # G/Z is D8
        d8 = next(s for s in all_subgroups(d16)
                  if s.order == 8 and section_exps(d16, s.members, {0}, 2) is None)
        with pytest.raises(NotAbelianError):
            d8.partition()

    def test_trivial_section(self):
        q8 = quaternion_group(8)
        z = q8.center()
        with pytest.raises(NotPGroupError):
            q8.section_partition(z, z)
        assert q8.section_partition(z, z, 5) == PPartition(5, ())
        assert q8.trivial_subgroup().partition() == PPartition(2, ())

    @pytest.mark.parametrize("p", [2, 3])
    def test_round_trip_all_partitions(self, p):
        for part in partitions_up_to(p, 6):
            if part.is_trivial:
                continue
            g = abelian_group(p, part.exps)
            assert g.abelian_partition() == part

    @pytest.mark.parametrize("p", [2, 3])
    def test_basis_agrees_with_partition(self, p):
        for part in partitions_up_to(p, 5):
            if part.is_trivial:
                continue
            g = abelian_group(p, part.exps)
            basis = abelian_basis(g)
            assert tuple(o for _, o in basis) == factor_orders(part)


class TestClassExponentRank:
    def test_nilpotence_class(self):
        assert cyclic_group(4).nilpotence_class() == 1
        assert quaternion_group(8).nilpotence_class() == 2
        assert dihedral_group(16).nilpotence_class() == 3
        assert cyclic_group(1).nilpotence_class() == 0

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            s3().nilpotence_class()

    def test_exponent(self):
        assert quaternion_group(8).exponent() == 4
        assert cyclic_group(1).exponent() == 1
        assert abelian_group(3, (1, 1, 1)).exponent() == 3
        assert heisenberg_group(3).exponent() == 3

    def test_burnside_rank(self):
        assert cyclic_group(8).burnside_rank() == 1
        assert quaternion_group(8).burnside_rank() == 2
        assert abelian_group(3, (1, 1, 1)).burnside_rank() == 3
        assert cyclic_group(1).burnside_rank() == 0

    def test_burnside_rank_not_p_group(self):
        with pytest.raises(NotPGroupError):
            s3().burnside_rank()

    def test_rank_matches_exhaustive_minimum(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            if g.n > 32:
                continue
            assert g.burnside_rank() == min_generating_size(g.table), name

    def test_element_orders_match_power_walk(self, corpus, stress_groups, monkeypatch):
        # one walk per cyclic subgroup against one walk per element, also
        # on S3 (not a p-group) and on every quotient group_summary reads;
        # fresh copies, so no memo hides a quotient
        groups = [FiniteGroup(g.table) for _, g in corpus.values()]
        groups += [FiniteGroup(g.table) for g in stress_groups.values()]
        quotients = []
        real = FiniteGroup.quotient

        def recording(self, kernel):
            q = real(self, kernel)
            quotients.append(q.group)
            return q

        monkeypatch.setattr(FiniteGroup, "quotient", recording)
        for g in groups:
            group_summary(g, g.prime_power()[0] if g.n > 1 else None)
        assert quotients
        for g in groups + quotients + [s3()]:
            assert g.element_orders() == element_orders_by_powers(g), g.n


# groups outside the catalog and the stress recipes, each with an abelian
# direct factor, up to order 243
FACTOR_RECIPES = {
    "Q8xC2^3": "product(quaternion 8, abelian 2 1 1 1)",
    "He3xC9": "product(heisenberg 3, cyclic 9)",
    "M16xC2": "product(modular 16, cyclic 2)",
    "Q8xC8": "product(quaternion 8, cyclic 8)",
}


class TestPurelyNonabelian:
    def test_examples(self):
        assert quaternion_group(8).is_purely_nonabelian()[0]
        assert dihedral_group(8).is_purely_nonabelian()[0]

    def test_q8xc2_witness(self):
        g = direct_product(quaternion_group(8), cyclic_group(2))
        flag, witness = g.is_purely_nonabelian()
        assert not flag
        a, b = witness
        assert a.order > 1 and a.order * b.order == g.n
        assert len(a.members & b.members) == 1
        assert a.is_normal() and b.is_normal()

    def test_abelian_group(self):
        flag, witness = cyclic_group(4).is_purely_nonabelian()
        assert not flag and witness[0].order == 4

    def test_matches_pair_search(self, corpus, stress_groups):
        # the height test in G/G' against the pair search it replaced; each
        # witness of a non-abelian G is checked as a direct decomposition
        groups = {name: g for name, (spec, g) in corpus.items()}
        groups.update(stress_groups)
        groups.update((name, eval_recipe(r)) for name, r in FACTOR_RECIPES.items())
        factored = []
        for name, g in sorted(groups.items()):
            flag, witness = g.is_purely_nonabelian()
            assert flag == direct_factor_by_pairs(g)[0], name
            if flag or g.is_abelian():
                continue
            factored.append(name)
            a, b = witness
            assert a.order > 1 and a <= g.center(), name
            assert any(g.element_order(x) == a.order for x in a.members), name
            assert a.order * b.order == g.n and a.members & b.members == {0}, name
            assert g.derived_subgroup() <= b, name
            assert Subgroup(g, a.members).is_normal() and Subgroup(g, b.members).is_normal(), name
        assert factored == ["D16xC2", "D8xC2", "D8xC4", "He3xC3", "He3xC9", "M16xC2",
                            "Q8xC2", "Q8xC2^3", "Q8xC4", "Q8xC4xC2", "Q8xC8"]

    def test_one_quotient_no_copy(self, nonabelian_corpus, monkeypatch):
        # group_summary builds G/G' once and copies no subgroup: G/G' is
        # the one group it constructs; only a group with an abelian factor
        # reads a lattice, and only G/G''s
        quotients, lattices, built = {}, [], []
        real_quotient, real_normals = FiniteGroup.quotient, FiniteGroup.normal_subgroups
        real_init = FiniteGroup.__init__

        def init(self, table, *args):
            built.append(self)
            real_init(self, table, *args)

        def quotient(self, kernel):
            quotients.setdefault(self, []).append(q := real_quotient(self, kernel))
            return q

        def normal_subgroups(self):
            lattices.append(self)
            return real_normals(self)

        monkeypatch.setattr(FiniteGroup, "quotient", quotient)
        monkeypatch.setattr(FiniteGroup, "normal_subgroups", normal_subgroups)
        monkeypatch.setattr(FiniteGroup, "__init__", init)
        derived = {}
        for name, g in nonabelian_corpus.items():
            fresh = FiniteGroup(g.table)
            built.clear()
            group_summary(fresh, fresh.prime_power()[0])
            (q,) = quotients.pop(fresh)
            assert q.kernel == fresh.derived_subgroup() and not quotients, name
            assert [id(h) for h in built] == [id(q.group)], name
            derived[name] = q.group
        assert {id(h) for h in lattices} == {
            id(derived[name]) for name in ("D8xC2", "Q8xC2", "D8xC4", "Q8xC4", "D16xC2")}
        with pytest.raises(NotPGroupError):
            s3().is_purely_nonabelian()

    def test_agrees_with_unpruned_search(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            if g.n > 32 or g.n == 1:
                continue
            expected = unpruned_direct_factor(g) is None and not g.is_abelian()
            got = g.is_purely_nonabelian()[0]
            assert got == expected, name


class TestDirectProduct:
    def test_trivial_factor(self):
        h = dihedral_group(8)
        g = direct_product(cyclic_group(1), h)
        assert g.table == h.table

    def test_klein(self):
        g = direct_product(cyclic_group(2), cyclic_group(2))
        assert g.abelian_partition() == PPartition(2, (1, 1))

    def test_q8xc2_center(self):
        g = direct_product(quaternion_group(8), cyclic_group(2))
        assert g.n == 16
        assert g.center().order == 4

    def test_order_bound(self):
        with pytest.raises(OrderBoundExceededError):
            direct_product(cyclic_group(150), cyclic_group(150))


class TestSubgroupEnumeration:
    @pytest.mark.parametrize(
        "builder,count",
        [
            (lambda: dihedral_group(8), 10),
            (lambda: quaternion_group(8), 6),
            (lambda: abelian_group(2, (1, 1, 1)), 16),
            (lambda: s3(), 6),
        ],
    )
    def test_known_counts(self, builder, count):
        assert len(all_subgroups(builder())) == count

    # D8's six are counted by test_normal_subgroups_subset; S3 is not a
    # p-group, and test_normal_subgroups_match_oracle checks it is refused
    @pytest.mark.parametrize(
        "builder,count",
        [
            (lambda: quaternion_group(8), 6),
            (lambda: abelian_group(2, (1, 1, 1)), 16),
            (lambda: cyclic_group(4), 3),
        ],
    )
    def test_known_normal_counts(self, builder, count):
        normals = builder().normal_subgroups()
        assert len(normals) == count
        assert all(s.is_normal() for s in normals)

    def test_bound(self):
        with pytest.raises(OrderBoundExceededError):
            abelian_group(2, (1,) * 8).normal_subgroups()

    def test_lagrange_and_closure(self):
        g = dihedral_group(16)
        for s in all_subgroups(g):
            assert g.n % s.order == 0
            for a in s.sorted_members:
                for b in s.sorted_members:
                    assert g.mul(a, b) in s.members

    def test_normal_subgroups_match_oracle(self, corpus):
        # every catalog group in the enumeration bound (D8xC4 among them),
        # the two large groups of the benchmark's stress workload, Q8xC2^3
        # and the trivial group, walked by covers, list order included; S3
        # and C2xC6 are not p-groups, so they are refused
        groups = {name: g for name, (_, g) in corpus.items() if g.n <= 128}
        for spec in (GroupSpec("Q8xC4xC2", 2, "product(quaternion 8, abelian 2 2 1)"),
                     GroupSpec("He3xC3", 3, "product(heisenberg 3, cyclic 3)"),
                     GroupSpec("Q8xC2^3", 2, "product(quaternion 8, abelian 2 1 1 1)")):
            groups[spec.name] = build_group(spec, fresh=True)
        groups["C1"] = cyclic_group(1)
        for g in (s3(), direct_product(cyclic_group(2), cyclic_group(6))):
            with pytest.raises(NotPGroupError):
                g.normal_subgroups()
        assert "D8xC4" in groups
        for name, g in sorted(groups.items()):
            expected = [s for s in all_subgroups(g) if s.is_normal()]
            assert g.normal_subgroups() == expected, name

    def test_greedy_generators_match_closure(self, corpus):
        # each subgroup's own generators, and a generating sequence of G
        # over it, as generating_sequence asks for
        for name, (_, g) in sorted(corpus.items()):
            if g.n > 64:
                continue
            for s in all_subgroups(g):
                for pool, start in ((s.sorted_members, frozenset()), (range(g.n), s.members)):
                    expected = greedy_generators_by_closure(g, pool, start)
                    assert g.greedy_generators(pool, start) == expected, (name, s.order)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closure_matches_oracle(self, corpus, data):
        name = data.draw(st.sampled_from(sorted(corpus)))
        g = corpus[name][1]
        seed = data.draw(st.lists(st.integers(0, g.n - 1), max_size=4))
        assert g.closure(seed) == closure(g.table, seed), (name, seed)

    def test_normal_subgroups_subset(self):
        g = dihedral_group(8)
        normals = g.normal_subgroups()
        assert len(normals) == 6  # 1, center, C4, two Klein fours, D8
        assert all(s.is_normal() for s in normals)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelling_carries_normal_subgroups(self, nonabelian_corpus, data):
        names = sorted(name for name, g in nonabelian_corpus.items() if g.n <= 32)
        g = nonabelian_corpus[data.draw(st.sampled_from(names))]
        pi = [0] + data.draw(st.permutations(range(1, g.n)))
        inv = [0] * g.n
        for a, b in enumerate(pi):
            inv[b] = a
        h = FiniteGroup([[pi[g.mul(inv[a], inv[b])] for b in range(g.n)] for a in range(g.n)])
        expected = {frozenset(pi[x] for x in s.members) for s in g.normal_subgroups()}
        assert {s.members for s in h.normal_subgroups()} == expected


class TestCorpusInvariants:
    def test_center_derived_normal(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            if g.n == 1:
                continue
            assert g.center().is_normal(), name
            assert g.derived_subgroup().is_normal(), name
            assert g.n % g.center().order == 0, name

    def test_class_characterisations(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            if g.n == 1 or g.n > 128:
                continue
            cl = g.nilpotence_class()
            assert (cl <= 1) == g.is_abelian(), name
            z = g.center()
            d = g.derived_subgroup()
            assert (cl == 2) == (not g.is_abelian() and d.members <= z.members), name


def wreath_c2_c4():
    """C2 wr C4, generated by (0 1) and (0 2 4 6)(1 3 5 7), order 64.  Its
    G' and its [G, H] for H of order 32 and 64 are more than the closure of
    the commutators of generators: they need the conjugation step of
    ``commutator_with``, which no catalog group exercises."""
    return FiniteGroup.from_permutation_generators(
        [(1, 0, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 0, 1)], 8)


@pytest.fixture(scope="module")
def sections_corpus(corpus, stress_groups):
    """Nontrivial catalog groups in the enumeration bound, and the two
    stress groups."""
    groups = {name: g for name, (_, g) in corpus.items() if 1 < g.n <= 128}
    groups.update(stress_groups)
    return groups


class TestCommutatorsFromGenerators:
    def test_wreath_needs_conjugates(self):
        g = wreath_c2_c4()
        assert g.n == 64
        t, inv = g.table, [g.inv(a) for a in range(g.n)]
        gens = g.full_subgroup().generators()
        comms = {t[t[inv[a]][inv[b]]][t[a][b]] for a in gens for b in gens}
        assert g.closure(comms) < commutator_subgroup(g, range(g.n))
        assert g.derived_subgroup().members == commutator_subgroup(g, range(g.n))
        assert g.derived_subgroup().is_normal()
        for h in g.normal_subgroups():
            assert g.commutator_with(h).members == commutator_subgroup(g, h.members), h.order

    def test_catalog_matches_full_scan(self, corpus, sections_corpus):
        for name, (_, g) in sorted(corpus.items()):
            assert g.derived_subgroup().members == commutator_subgroup(g, range(g.n)), name
        for name, g in sorted(sections_corpus.items()):
            for h in g.normal_subgroups():
                expected = commutator_subgroup(g, h.members)
                assert g.commutator_with(h).members == expected, (name, h.order)

    def test_generating_sequence_over_normal(self, corpus):
        for name, (_, g) in sorted(corpus.items()):
            if g.n > 64:
                continue
            phi = g.frattini_subgroup().members
            for n in g.normal_subgroups():
                expected = greedy_generators_by_closure(g, range(g.n), n.members | phi)
                assert g.generating_sequence(n.members) == expected, (name, n.order)


class TestSectionPartition:
    """Every abelian invariant the criteria and the summary read, counted
    on the parent's table, against the raw-scan ``section_exps``."""

    def test_mod_derived_parts(self, sections_corpus):
        for name, g in sorted(sections_corpus.items()):
            p = g.prime_power()[0]
            d = g.derived_subgroup()
            for n in g.normal_subgroups():
                exps = section_exps(g, range(g.n), subgroup_product(d, n).members, p)
                assert mod_derived_part(g, n, p) == PPartition(p, exps), (name, n.order)

    def test_central_subgroups(self, sections_corpus):
        for name, g in sorted(sections_corpus.items()):
            p = g.prime_power()[0]
            for m in g.normal_subgroups():
                if m <= g.center():
                    exps = section_exps(g, m.members, {0}, p)
                    assert m.partition(p) == PPartition(p, exps), (name, m.order)

    def test_summary_sections(self, sections_corpus):
        for name, g in sorted(sections_corpus.items()):
            if g.is_abelian():
                continue
            p = g.prime_power()[0]
            full, d, z = g.full_subgroup(), g.derived_subgroup(), g.center()
            exps = section_exps(g, d.members, {0}, p)
            if exps is None:
                with pytest.raises(NotAbelianError):
                    d.partition(p)
            else:
                assert d.partition(p) == PPartition(p, exps), name
            for k in (d, subgroup_product(d, z), z):
                exps = section_exps(g, range(g.n), k.members, p)
                if exps is None:
                    assert g.nilpotence_class() > 2 and k is z, name
                    with pytest.raises(NotAbelianError):
                        g.section_partition(full, k, p)
                else:
                    assert g.section_partition(full, k, p) == PPartition(p, exps), (name, k.order)
