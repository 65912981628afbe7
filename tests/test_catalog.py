import hashlib
from collections import Counter

import pytest

from autcrit.abelian import PPartition, partitions_up_to
from autcrit.catalog import build_group, catalog, eval_recipe, get_spec, load_group
from autcrit.errors import GroupFileError, NotLatinSquareError, OrderBoundExceededError
from autcrit.formats import (
    format_cycles,
    parse_cycles,
    parse_group_text,
    read_group_file,
    write_cayley_file,
)
from autcrit.groups import DEFAULT_INGEST_BOUND


TABLES_GOLDEN = "3d522a52345ce0ae65ce1c6c3e89ab8c168274839443ce3268b7394b0d3fe16d"


def fingerprint(g):
    p = g.prime_power()[0]
    return (
        g.n,
        g.center().order,
        str(g.center().partition(p)),
        g.derived_subgroup().order,
        g.nilpotence_class(),
        g.burnside_rank(),
        g.exponent(),
        tuple(sorted(Counter(g.element_orders()).items())),
    )


class TestCatalogContents:
    def test_names_unique(self):
        names = [s.name for s in catalog()]
        assert len(names) == len(set(names))

    def test_required_members(self):
        names = {s.name for s in catalog()}
        required = {
            "Q8", "D8", "D16", "SD16", "Q16", "M16", "D8xC2", "Q8xC2",
            "D8oC4", "C4:C4", "C4xC2:C2", "He3", "M27", "Q8xC4", "D8xC4",
        }
        assert required <= names

    def test_nine_nonabelian_sixteens_pairwise_distinct(self, corpus):
        sixteens = [
            g for name, (spec, g) in corpus.items()
            if g.n == 16 and not g.is_abelian()
        ]
        assert len(sixteens) == 9
        prints = [fingerprint(g) for g in sixteens]
        assert len(set(prints)) == 9

    def test_both_order_27_nonabelian(self, corpus):
        found = [
            g for name, (spec, g) in corpus.items()
            if g.n == 27 and not g.is_abelian()
        ]
        assert len(found) == 2
        assert sorted(g.exponent() for g in found) == [3, 9]

    def test_abelian_series_complete(self, corpus):
        want = {
            (p, part.exps)
            for p in (2, 3)
            for part in partitions_up_to(p, 5)
            if not part.is_trivial
        }
        got = {
            (g.prime_power()[0], g.abelian_partition().exps)
            for name, (spec, g) in corpus.items()
            if g.is_abelian() and g.n > 1
        }
        assert want == got

    def test_spec_examples(self, corpus):
        q8 = corpus["Q8"][1]
        assert q8.n == 8 and q8.center().order == 2
        m16 = corpus["M16"][1]
        assert m16.n == 16
        assert m16.center().partition(2) == PPartition(2, (2,))
        he3 = corpus["He3"][1]
        assert he3.n == 27 and he3.exponent() == 3

    def test_order_32_selection(self, corpus):
        count = sum(
            1 for name, (spec, g) in corpus.items()
            if g.n == 32 and not g.is_abelian()
        )
        assert count >= 5

    def test_order_81_selection(self, corpus):
        classes = {
            name: g.nilpotence_class()
            for name, (spec, g) in corpus.items()
            if g.n == 81 and not g.is_abelian()
        }
        assert len(classes) >= 2
        assert 3 in classes.values()  # a maximal-class representative

    def test_tables_golden(self):
        # Pins element numbering of every catalog table: the permutation
        # generators feeding build_group come from generating_sequence.
        h = hashlib.sha256()
        for spec in sorted(catalog(), key=lambda s: s.name):
            g = build_group(spec, fresh=True)
            h.update((spec.name + "\n" + g.to_cayley_text()).encode())
        assert h.hexdigest() == TABLES_GOLDEN

    def test_declared_primes(self, corpus):
        for name, (spec, g) in corpus.items():
            assert g.prime_power()[0] == spec.prime, name


class TestRecipes:
    def test_eval_matches_build(self):
        # the ingested copy has the same order and invariants as the
        # abstract construction
        for spec in catalog():
            if spec.name not in ("Q8", "D8oC4", "C9:C9", "C4xC2:C2"):
                continue
            abstract = eval_recipe(spec.recipe)
            built = build_group(spec)
            assert abstract.n == built.n
            assert sorted(abstract.element_orders()) == sorted(built.element_orders())

    def test_bad_recipe(self):
        with pytest.raises(ValueError):
            eval_recipe("frobble 7")
        with pytest.raises(ValueError):
            eval_recipe("product(cyclic 2)")

    def test_fresh_builds_are_identical(self):
        for name in ("Q8", "D8oQ8", "C3wrC3", "C4xC2"):
            spec = get_spec(name)
            a = build_group(spec, fresh=True)
            b = build_group(spec, fresh=True)
            assert a.table == b.table, name


class TestCycleNotation:
    def test_parse_examples(self):
        assert parse_cycles("(1 2 3 4)", 4) == (1, 2, 3, 0)
        assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
        assert parse_cycles("()", 3) == (0, 1, 2)
        assert parse_cycles("(2 4)(3 7)(6 8)", 8) == (0, 3, 6, 1, 4, 7, 2, 5)

    def test_round_trip(self):
        for perm in [(1, 2, 0, 3), (0, 1, 2), (1, 0, 3, 2), (0,)]:
            assert parse_cycles(format_cycles(perm), len(perm)) == perm

    def test_errors(self):
        from autcrit.errors import InvalidPermutationError

        with pytest.raises(InvalidPermutationError):
            parse_cycles("(1 2", 4)
        with pytest.raises(InvalidPermutationError):
            parse_cycles("(1 5)", 4)
        with pytest.raises(InvalidPermutationError):
            parse_cycles("(1 2)(2 3)", 4)


class TestFiles:
    def test_cayley_round_trip_whole_catalog(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            again = parse_group_text(g.to_cayley_text())
            assert again.table == g.table, name

    def test_cayley_file(self, tmp_path):
        g = build_group(get_spec("C4xC2"))
        path = tmp_path / "c4c2.cayley"
        write_cayley_file(g, path)
        assert read_group_file(path).table == g.table

    def test_cayley_identity_off_index_0(self):
        # the identity is found wherever it is and moved to index 0
        g = parse_group_text("cayley 2\n1 0\n0 1\n")
        assert g.n == 2
        assert g.table == ((0, 1), (1, 0))

    def test_perm_file_d8(self, tmp_path):
        path = tmp_path / "d8.perm"
        path.write_text("perm 4\n(1 2 3 4)\n(1 3)\n")
        g = read_group_file(path)
        assert g.n == 8
        assert g.nilpotence_class() == 2

    def test_malformed_table(self, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("cayley 2\n0 1\n1 1\n")
        with pytest.raises(NotLatinSquareError):
            read_group_file(path)

    def test_bad_header(self):
        with pytest.raises(GroupFileError):
            parse_group_text("magma 3\n0 1 2\n")

    @pytest.mark.parametrize("body", ["perm {}\n()\n", "cayley {}\n"])
    def test_header_above_ingest_bound(self, body):
        # refused from the header alone, before any row is parsed
        with pytest.raises(OrderBoundExceededError):
            parse_group_text(body.format(DEFAULT_INGEST_BOUND + 1))

    def test_missing_file(self):
        with pytest.raises(GroupFileError):
            read_group_file("/nonexistent/group.cayley")


class TestLoadGroup:
    def test_by_name(self):
        name, g = load_group("Q8")
        assert name == "Q8" and g.n == 8

    def test_by_path(self, tmp_path):
        path = tmp_path / "c2.cayley"
        path.write_text("cayley 2\n0 1\n1 0\n")
        name, g = load_group(str(path))
        assert g.n == 2

    def test_unknown(self):
        with pytest.raises(GroupFileError):
            load_group("NoSuchGroup")
