import sys
import time
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from autcrit import automorphisms
from autcrit.abelian import hom_order
from autcrit.automorphisms import (
    FULL,
    AutSet,
    C_STAR,
    CENTRAL,
    DEFAULT_AUT_MEMBER_BOUND,
    IA,
    IA_STAR,
    aut_orders,
    aut_upper_lower,
    automorphism_group,
    autset_equal,
    compose_transversals,
    distinguished,
)
from autcrit.catalog import (
    GroupSpec,
    abelian_group,
    build_group,
    catalog,
    cyclic_group,
    dihedral_group,
    eval_recipe,
    get_spec,
    quaternion_group,
)
from autcrit.groups import FiniteGroup
from autcrit.report import DEFAULT_AUT_BOUND, aut_bound, center_subgroups, verify_group
from autcrit.errors import (
    ConfigError,
    HypothesisViolationError,
    InvariantError,
    OrderBoundExceededError,
    ParentMismatchError,
)
from oracles import (
    Automorphism,
    all_automorphisms,
    compose,
    distinguished_members,
    hom_automorphism_pairs,
    hom_construct_auts,
    inner_automorphisms,
    inverse,
    is_central,
    is_identity,
    meets,
    member_rows,
    members,
    transversals_by_candidate,
    verify,
    verify_closed,
)


STRESS_SPECS = (
    GroupSpec("Q8xC4xC2", 2, "product(quaternion 8, abelian 2 2 1)"),
    GroupSpec("He3xC3", 3, "product(heisenberg 3, cyclic 3)"),
)


@pytest.fixture(scope="module")
def q8():
    return quaternion_group(8)


@pytest.fixture(scope="module")
def d8():
    return dihedral_group(8)


@pytest.fixture(scope="module")
def m16():
    return build_group(get_spec("M16"))


class TestAutomorphismGroup:
    def test_known_orders(self, q8, d8):
        assert len(automorphism_group(abelian_group(2, (1, 1)))) == 6
        assert len(automorphism_group(q8)) == 24
        assert len(automorphism_group(d8)) == 8
        assert len(automorphism_group(cyclic_group(1))) == 1

    def test_general_linear_orders(self):
        # |Aut| of elementary abelian p^k is |GL(k, p)|
        assert len(automorphism_group(abelian_group(2, (1, 1, 1, 1)))) == 20160
        assert len(automorphism_group(abelian_group(3, (1, 1, 1)))) == 11232

    def test_cyclic_orders(self):
        # |Aut(C_{p^k})| is Euler's totient of p^k
        assert len(automorphism_group(cyclic_group(8))) == 4
        assert len(automorphism_group(cyclic_group(27))) == 18

    def test_every_member_verifies(self, q8):
        full = automorphism_group(q8)
        assert all(verify(a, q8) for a in members(full))

    def test_verify_rejects_images_outside_the_group(self):
        c3 = cyclic_group(3)
        assert verify(Automorphism((0, 2, 1)), c3)
        assert not verify(Automorphism((0, 5, 1)), c3)
        assert not verify(Automorphism((0, -1, -2)), c3)

    def test_closed(self, q8):
        assert verify_closed(automorphism_group(q8))

    @staticmethod
    def _bounded_then_forced(monkeypatch, g):
        """verify_group on D16xC2 under AUTCRIT_AUT_BOUND=8 skips every row
        with the group-order note; forced, it confirms every row."""
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", "8")
        rows = verify_group("D16xC2", g).rows
        assert rows and all(r.observed is None and r.match is None and
                            r.note == "skipped: group order 32 exceeds automorphism bound 8"
                            for r in rows)
        forced = verify_group("D16xC2", g, force=True).rows
        assert len(forced) == len(rows) and all(r.match for r in forced)

    def test_order_bound(self, monkeypatch):
        # a skipped row makes no call into automorphisms
        g = build_group(get_spec("D16xC2"), fresh=True)

        def no_call(*args):
            raise AssertionError("automorphisms was called above the bound")

        with monkeypatch.context() as m:
            for name in ("automorphism_group", "aut_upper_lower", "aut_orders", "distinguished",
                         "autset_equal", "_search"):
                m.setattr(automorphisms, name, no_call)
            m.setenv("AUTCRIT_AUT_BOUND", "8")
            assert all(r.match is None for r in verify_group("D16xC2", g).rows)
        self._bounded_then_forced(monkeypatch, g)

    @pytest.mark.parametrize("p,exps", [(3, (1, 1, 1, 1)), (2, (1, 1, 1, 1, 1))])
    def test_member_bound_refused_before_building(self, monkeypatch, p, exps):
        # |GL(4, 3)| = 24,261,120 and |GL(5, 2)| = 9,999,360 members are
        # kept as the search's levels, and composing them is refused from
        # the transversal sizes alone, with no row gathered
        g = abelian_group(p, exps)
        t0 = time.perf_counter()
        full = automorphism_group(g)
        assert len(full) == {3: 24_261_120, 2: 9_999_360}[p]

        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(automorphisms, "_packed", no_rows)
        with pytest.raises(OrderBoundExceededError, match=f"{len(full)} automorphisms exceed "
                                                          "member bound"):
            compose_transversals(g.n, full.transversals)
        assert time.perf_counter() - t0 < 1.0

    def test_bound_checked_after_caching(self, monkeypatch):
        g = build_group(get_spec("D16xC2"), fresh=True)
        assert len(automorphism_group(g)) == 256
        self._bounded_then_forced(monkeypatch, g)

    def test_distinguished_bound_checked_after_caching(self, monkeypatch):
        g = build_group(get_spec("D16xC2"), fresh=True)
        distinguished(g, CENTRAL)
        self._bounded_then_forced(monkeypatch, g)

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_env_bound_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", raw)
        with pytest.raises(ConfigError):
            aut_bound()

    def test_deterministic(self):
        a = automorphism_group(quaternion_group(8))
        b = automorphism_group(quaternion_group(8))
        assert sorted(x.images for x in members(a)) == sorted(x.images for x in members(b))


class TestInner:
    def test_abelian_trivial(self):
        g = cyclic_group(8)
        assert len(inner_automorphisms(g)) == 1

    def test_orders(self, q8, d8):
        assert len(inner_automorphisms(q8)) == 4
        assert len(inner_automorphisms(d8)) == 4

    def test_index_relation_on_corpus(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            inn = inner_automorphisms(g)
            assert len(inn) * g.center().order == g.n, name


def _relabelled(data, groups):
    """A drawn group g of order <= 32 of ``groups``, and h, g with its
    elements renumbered by a drawn pi fixing the identity: (g, h, pi, pi^-1)."""
    names = sorted(name for name, g in groups.items() if g.n <= 32)
    g = groups[data.draw(st.sampled_from(names))]
    pi = [0] + data.draw(st.permutations(range(1, g.n)))
    inv = [0] * g.n
    for a, b in enumerate(pi):
        inv[b] = a
    h = FiniteGroup([[pi[g.mul(inv[a], inv[b])] for b in range(g.n)] for a in range(g.n)])
    return g, h, pi, inv


class TestConstrainedSearches:
    def test_upper_extremes(self, q8):
        one = q8.trivial_subgroup()
        assert autset_equal(aut_upper_lower(q8, q8.full_subgroup(), one), automorphism_group(q8))
        assert len(aut_upper_lower(q8, one, one)) == 1

    def test_upper_center_q8(self, q8):
        assert len(aut_upper_lower(q8, q8.center(), q8.trivial_subgroup())) == 4

    def test_lower_extremes(self, q8):
        full, one = q8.full_subgroup(), q8.trivial_subgroup()
        assert autset_equal(aut_upper_lower(q8, full, one), automorphism_group(q8))
        assert len(aut_upper_lower(q8, full, full)) == 1

    def test_lower_center_d8(self, d8):
        assert len(aut_upper_lower(d8, d8.full_subgroup(), d8.center())) == 8

    def test_upper_lower(self, q8):
        assert len(aut_upper_lower(q8, q8.center(), q8.center())) == 4
        assert autset_equal(
            aut_upper_lower(q8, q8.full_subgroup(), q8.trivial_subgroup()),
            automorphism_group(q8),
        )

    def test_monotone(self, d8):
        z = d8.center()
        full = d8.full_subgroup()
        one = d8.trivial_subgroup()
        up_small = aut_upper_lower(d8, z, one)
        up_big = aut_upper_lower(d8, full, one)
        assert members(up_small) <= members(up_big)
        low_big = aut_upper_lower(d8, full, z)
        low_small = aut_upper_lower(d8, full, full)
        assert members(low_small) <= members(low_big)

    def test_monotone_over_central_chains(self):
        from autcrit.report import center_subgroups

        for name in ("M16", "D8xC2", "M27"):
            g = build_group(get_spec(name))
            subs = [g.normal_subgroups()[i] for i in center_subgroups(g)]
            one, full = g.trivial_subgroup(), g.full_subgroup()
            for x in subs:
                for x2 in subs:
                    if not x.members <= x2.members:
                        continue
                    upper_x = aut_upper_lower(g, x, one)
                    upper_x2 = aut_upper_lower(g, x2, one)
                    assert members(upper_x) <= members(upper_x2)
                    lower_x = aut_upper_lower(g, full, x)
                    lower_x2 = aut_upper_lower(g, full, x2)
                    assert members(lower_x2) <= members(lower_x)

    def test_members_are_automorphisms(self, m16):
        s = aut_upper_lower(m16, m16.center(), m16.center())
        assert all(verify(a, m16) for a in members(s))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelling_conjugates_the_search(self, nonabelian_corpus, data):
        # Renumbering the elements by pi (fixing the identity) must carry
        # Aut^X_Y(G) to pi Aut^X_Y(G) pi^-1, whatever the numbering.
        g, h, pi, inv = _relabelled(data, nonabelian_corpus)
        normals = g.normal_subgroups()
        x = data.draw(st.sampled_from(normals))
        y = data.draw(st.sampled_from(normals))
        hx = h.subgroup(pi[e] for e in x.members)
        hy = h.subgroup(pi[e] for e in y.members)
        expected = {
            Automorphism(tuple(pi[alpha(inv[e])] for e in range(g.n)))
            for alpha in members(aut_upper_lower(g, x, y))
        }
        found = aut_upper_lower(h, hx, hy)
        assert members(found) == expected
        assert all(verify(alpha, h) for alpha in members(found))


class TestDistinguished:
    def test_q8_all_four(self, q8):
        for tag in (CENTRAL, C_STAR, IA, IA_STAR):
            assert len(distinguished(q8, tag)) == 4

    def test_abelian_central_is_full(self):
        g = abelian_group(2, (2, 1))
        assert autset_equal(distinguished(g, CENTRAL), automorphism_group(g))

    def test_m16_ia_differs_from_central(self, m16):
        ia = distinguished(m16, IA)
        ac = distinguished(m16, CENTRAL)
        assert len(ia) == 4
        assert len(ac) == 8
        assert not autset_equal(ia, ac)

    def test_unknown_tag(self, q8):
        with pytest.raises(ValueError):
            distinguished(q8, "FULL")

    def test_matches_constrained_route(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            if g.n > 32:
                continue
            z = g.center()
            d = g.derived_subgroup()
            one = g.trivial_subgroup()
            assert autset_equal(distinguished(g, CENTRAL), aut_upper_lower(g, z, one)), name
            assert autset_equal(distinguished(g, IA), aut_upper_lower(g, d, one)), name
            assert autset_equal(
                distinguished(g, C_STAR), aut_upper_lower(g, z, z)
            ), name
            assert autset_equal(
                distinguished(g, IA_STAR), aut_upper_lower(g, d, z)
            ), name

    def test_matches_all_elements_filter(self, corpus):
        # the generator-image filter against the filter that tests every
        # element; abelian groups included, where G' is trivial
        groups = {name: g for name, (spec, g) in corpus.items() if g.n <= DEFAULT_AUT_BOUND}
        groups["C1"] = cyclic_group(1)
        for spec in STRESS_SPECS:
            groups[spec.name] = build_group(spec, fresh=True)
        for name, g in sorted(groups.items()):
            for tag in (CENTRAL, C_STAR, IA, IA_STAR):
                if name in TestTransversalSearch.TOO_LARGE:
                    for filtered in (distinguished, distinguished_members):
                        with pytest.raises(OrderBoundExceededError):
                            filtered(g, tag)
                    continue
                assert members(distinguished(g, tag)) == distinguished_members(g, tag), (name, tag)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pruned_levels_match_row_filter(self, nonabelian_corpus, data):
        # CENTRAL and IA composed level by level, and C_STAR and IA_STAR
        # filtered from them, against a filter of the built full group's
        # rows, on a renumbered group
        _, h, _, _ = _relabelled(data, nonabelian_corpus)
        found = {tag: distinguished(h, tag).rows.tobytes() for tag in (CENTRAL, C_STAR, IA, IA_STAR)}
        rows, table = member_rows(automorphism_group(h)), h.table
        fixes_z = [(x, [x]) for x in h.center().generators()]

        def kept(checks):
            mask = np.ones(len(rows), dtype=bool)
            for x, images in checks:
                mask &= np.isin(rows[:, x], images)
            return rows[mask].tobytes()

        for tag, upper, star in ((CENTRAL, h.center(), C_STAR),
                                 (IA, h.derived_subgroup(), IA_STAR)):
            checks = [(x, [table[x][k] for k in upper.members]) for x in h.generating_sequence()]
            assert found[tag] == kept(checks), tag
            assert found[star] == kept(checks + fixes_z), star

    def test_containments_on_corpus(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            ia_star = distinguished(g, IA_STAR)
            ia = distinguished(g, IA)
            ac = distinguished(g, CENTRAL)
            cs = distinguished(g, C_STAR)
            assert members(cs) <= members(ac), name
            assert members(ia_star) <= members(ia), name
            if g.nilpotence_class() == 2:
                assert members(ia) <= members(ac), name


class TestHomConstruct:
    def test_q8_center_center(self, q8):
        z = q8.center()
        built = hom_construct_auts(q8, z, z)
        assert len(built) == 4
        assert autset_equal(built, aut_upper_lower(q8, z, z))

    def test_trivial_x(self, q8):
        built = hom_construct_auts(q8, q8.trivial_subgroup(), q8.center())
        assert len(built) == 1

    def test_d8_center_derived(self, d8):
        built = hom_construct_auts(d8, d8.center(), d8.derived_subgroup())
        assert len(built) == 4
        assert autset_equal(
            built, aut_upper_lower(d8, d8.center(), d8.derived_subgroup())
        )

    def test_size_matches_hom_order(self, m16):
        z = m16.center()
        q = m16.quotient(z)
        qab = q.group.quotient(q.group.derived_subgroup()).group
        built = hom_construct_auts(m16, z, z)
        assert len(built) == hom_order(
            qab.abelian_partition(2), z.partition(2)
        )

    def test_hypothesis_violations(self, d8):
        noncentral = next(
            x for x in range(d8.n)
            if d8.element_order(x) == 4
        )
        big = d8.generated_subgroup([noncentral])
        with pytest.raises(HypothesisViolationError):
            hom_construct_auts(d8, big, big)  # X not central
        with pytest.raises(HypothesisViolationError):
            hom_construct_auts(d8, d8.center(), d8.trivial_subgroup())  # X not <= Y
        refl = next(
            x for x in range(d8.n)
            if d8.element_order(x) == 2 and x not in d8.center()
        )
        bad_y = d8.subgroup({0, refl})
        with pytest.raises(HypothesisViolationError):
            hom_construct_auts(d8, d8.trivial_subgroup(), bad_y)  # Y not normal

    def test_correspondence_is_isomorphism(self, m16):
        z = m16.center()
        d = m16.derived_subgroup()
        pairs = hom_automorphism_pairs(m16, d, z)
        by_choice = {c: a for c, a in pairs}
        for c1, a1 in pairs:
            for c2, a2 in pairs:
                prod = tuple(m16.mul(x, y) for x, y in zip(c1, c2))
                assert compose(a1, a2) == by_choice[prod]


class TestAutSetBasics:
    def test_compose_inverse(self, q8):
        full = automorphism_group(q8)
        for a in sorted(members(full), key=lambda a: a.images)[:5]:
            assert is_identity(compose(a, inverse(a)))

    def test_autset_equal_checks_parent(self, q8, d8):
        with pytest.raises(ParentMismatchError):
            autset_equal(automorphism_group(q8), automorphism_group(d8))

    def test_equality_examples(self, q8, m16):
        assert autset_equal(distinguished(q8, IA), distinguished(q8, CENTRAL))
        assert not autset_equal(distinguished(m16, IA), distinguished(m16, CENTRAL))


class TestPackedSets:
    """A set holds its members' image rows as KEY_DTYPE: a composed set
    keeps them sorted as byte strings, and a search's are composed from
    its transversals when read."""

    def test_cyclic_512_is_the_odd_multipliers(self):
        # entries reach 511, so a key narrower than two bytes would merge
        # x -> kx with x -> (k + 256)x
        expected = {tuple(k * x % 512 for x in range(512)) for k in range(1, 512, 2)}
        assert _images(automorphism_group(cyclic_group(512))) == expected

    def test_keys_agree_with_members(self, nonabelian_corpus):
        # every normal pair of each group of order <= 32: each member of a
        # set meets its (X, Y) at every element, the members of the full
        # group that do are the set, and autset_equal holds exactly between
        # equal member sets
        for name, g in sorted(nonabelian_corpus.items()):
            if g.n > 32:
                continue
            full = member_rows(automorphism_group(g))
            moves_identity = Automorphism(tuple(range(1, g.n)) + (0,))
            normals = g.normal_subgroups()
            by_members: dict[frozenset, list] = {}
            for x in normals:
                for y in normals:
                    s = aut_upper_lower(g, x, y)
                    rows, found = member_rows(s), members(s)
                    assert meets(s, rows).all(), (name, x.order, y.order)
                    assert moves_identity not in found
                    by_members.setdefault(found, []).append(s)
                    if is_central(x) and x <= y:
                        hom = hom_construct_auts(g, x, y)
                        assert members(hom) == found, (name, x.order, y.order)
                        assert member_rows(hom).tobytes() == rows.tobytes(), (
                            name, x.order, y.order)
            firsts = [same[0] for same in by_members.values()]
            for same in by_members.values():
                s = same[0]
                assert full[meets(s, full)].tobytes() == member_rows(s).tobytes(), name
                assert all(autset_equal(s, t) for t in same), name
            for i, s in enumerate(firsts):
                assert not any(autset_equal(s, t) for t in firsts[i + 1:]), name

    def test_order_past_key_range_raises(self):
        # 2**16 entries still fit uint16; one more must not be truncated
        assert _decoded(compose_transversals(1 << 16, [])) == {tuple(range(1 << 16))}
        with pytest.raises(OrderBoundExceededError, match="packed-key limit"):
            compose_transversals((1 << 16) + 1, [])


class TestCorpusAutSets:
    def test_closed_and_verified(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            full = automorphism_group(g)
            assert all(verify(a, g) for a in members(full)), name
            if len(full) <= 512:
                assert verify_closed(full), name


class TestProductForm:
    """A set made by a search is held as its levels: its order is the
    product of the transversal sizes, and no row is built to count it."""

    @staticmethod
    def _levels(g):
        """(G, 1) and the full Aut's levels."""
        full, one = g.full_subgroup(), g.trivial_subgroup()
        return full, one, automorphisms._search(g, full, one)

    def test_mutant_levels_raise(self, q8):
        full, one, levels = self._levels(q8)
        assert autset_equal(AutSet.from_levels(q8, full, one, levels, FULL), automorphism_group(q8))
        first, second = levels
        mutants = [
            ("repeats an image", [first + [first[1]], second]),
            ("moves an earlier level generator", [first, second + [first[1]]]),
            ("does not start with the identity", [first[::-1], second]),
        ]
        for message, mutant in mutants:
            with pytest.raises(InvariantError, match=message):
                AutSet.from_levels(q8, full, one, mutant, FULL)

    def test_member_bound_refused_with_no_row_built(self, monkeypatch):
        # |GL(5, 2)| = 9,999,360: the search's set is kept, and composing
        # it is refused from the sizes before the first gather
        g = abelian_group(2, (1, 1, 1, 1, 1))
        transversals = automorphism_group(g).transversals

        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(automorphisms, "_packed", no_rows)
        with pytest.raises(OrderBoundExceededError, match="9999360 automorphisms exceed"):
            compose_transversals(g.n, transversals)

    def test_len_counts_the_built_rows(self, corpus, monkeypatch):
        # every set a search makes for the full Aut and for verify_group,
        # on fresh copies of the catalog and both stress groups
        made = []
        real = AutSet.from_levels

        def recording(cls, *args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(AutSet, "from_levels", classmethod(recording))
        specs = [spec for name, (spec, g) in sorted(corpus.items())
                 if g.n <= DEFAULT_AUT_BOUND and name not in TestTransversalSearch.TOO_LARGE]
        for spec in specs + list(STRESS_SPECS):
            made.clear()
            g = build_group(spec, fresh=True)
            automorphism_group(g)
            verify_group(spec.name, g)
            assert made, spec.name
            for s in made:
                assert len(s) == len(member_rows(s)) == prod(map(len, s.transversals)), (spec.name, s)

    def test_verify_composes_the_full_group_pruned_only(self, monkeypatch):
        real_full = automorphisms.automorphism_group
        real_compose = automorphisms.compose_transversals
        for spec in STRESS_SPECS:
            fulls, composed = [], []

            def full(g):
                fulls.append(real_full(g))
                return fulls[-1]

            def compose(n, transversals, keep=None):
                composed.append((transversals, keep))
                return real_compose(n, transversals, keep)

            with monkeypatch.context() as m:
                m.setattr(automorphisms, "automorphism_group", full)
                m.setattr(automorphisms, "compose_transversals", compose)
                rep = verify_group(spec.name, build_group(spec, fresh=True))
            assert rep.rows and all(r.match for r in rep.rows), spec.name
            assert fulls, spec.name
            levels = fulls[0].transversals
            # CENTRAL and IA, each pruned at every level
            assert sum(t is levels and a is not None for t, a in composed) == 2, spec.name
            assert not any(t is levels and a is None for t, a in composed), spec.name


def _images(autset):
    return {a.images for a in members(autset)}


def _decoded(rows):
    return {tuple(r) for r in rows.tolist()}


class TestTransversalSearch:
    """The search builds each set from one representative per orbit point
    and level; the all-leaves backtracking oracle reaches every member."""

    # |GL(5, 2)| = 9,999,360 and |GL(4, 3)| = 24,261,120 members exceed
    # the member bound, and are too many for the oracle to enumerate
    TOO_LARGE = ("C2xC2xC2xC2xC2", "C3xC3xC3xC3")

    def test_full_aut_of_catalog_matches_oracle(self, corpus):
        for name, (spec, g) in sorted(corpus.items()):
            if g.n > DEFAULT_AUT_BOUND or name in self.TOO_LARGE:
                continue
            one, full = g.trivial_subgroup(), g.full_subgroup()
            assert _images(automorphism_group(g)) == set(all_automorphisms(g, full, one)), name

    def test_every_normal_pair_matches_oracle(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            if g.n > 32:
                continue
            normals = g.normal_subgroups()
            for x in normals:
                for y in normals:
                    expected = set(all_automorphisms(g, x, y))
                    assert _images(aut_upper_lower(g, x, y)) == expected, (name, x.order, y.order)

    def test_stress_groups(self):
        # both groups, so the coset-at-a-time search is checked on a 3-group too
        q, he = (build_group(spec, fresh=True) for spec in STRESS_SPECS)
        for g, order in ((q, 12288), (he, 23328)):
            full = automorphism_group(g)
            assert len(full) == order
            assert _images(full) == set(all_automorphisms(g, g.full_subgroup(),
                                                          g.trivial_subgroup()))
            subs = (g.trivial_subgroup(), g.center(), g.derived_subgroup())
            for x in subs:
                for y in subs:
                    expected = set(all_automorphisms(g, x, y))
                    assert _images(aut_upper_lower(g, x, y)) == expected, (g.n, x.order, y.order)

    def test_products_of_transversals(self):
        # r0 * r1 is r0 after r1: with a = (1 2) and b = (2 3), a * b is
        # the 3-cycle 1 -> 2 -> 3 -> 1, not b * a
        ident, a, b = (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)
        built = compose_transversals(4, [[ident, a], [ident, b]])
        assert _decoded(built) == {ident, a, b, (0, 2, 3, 1)}
        assert _decoded(compose_transversals(1, [])) == {(0,)}

    def test_repeated_representative_raises(self):
        with pytest.raises(InvariantError):
            compose_transversals(3, [[(0, 1, 2), (0, 2, 1), (0, 2, 1)]])


def _orbits(g, fixed, transversals):
    """Per level, the sorted images of that level's generator."""
    gens = g.generating_sequence(fixed.members)
    return [sorted(rep[h] for rep in reps) for h, reps in zip(gens, transversals)]


def _search_transversals(g, upper, fixed):
    """The transversals ``_search`` returns, and the rows composed from
    them; a set above the member bound is not composed, and its rows are
    None."""
    transversals = automorphisms._search(g, upper, fixed)
    if prod(len(reps) for reps in transversals) > DEFAULT_AUT_MEMBER_BOUND:
        return None, transversals
    return compose_transversals(g.n, transversals), transversals


class TestOrbitTransversals:
    """The search proves one candidate per orbit, deepest level first; the
    oracle searches every candidate of every level on its own."""

    @staticmethod
    def _bases(monkeypatch, name, g):
        """(upper, fixed) for the full Aut, (Z, 1), (Z, Z), (G', 1) and
        every search ``verify_group`` runs on a fresh copy of g."""
        one, z, d = g.trivial_subgroup(), g.center(), g.derived_subgroup()
        bases = [(g.full_subgroup(), one), (z, one), (z, z), (d, one)]
        real = automorphisms._search

        def recording(g, upper, fixed):
            bases.append((upper, fixed))
            return real(g, upper, fixed)

        with monkeypatch.context() as m:
            m.setattr(automorphisms, "_search", recording)
            verify_group(name, g)
        return {(x.members, y.members): (x, y) for x, y in bases}.values()

    def test_matches_candidate_search(self, monkeypatch):
        specs = [spec for spec in catalog() if build_group(spec).n <= 128]
        checked = 0
        for spec in specs + list(STRESS_SPECS):
            g = build_group(spec, fresh=True)
            for x, y in self._bases(monkeypatch, spec.name, g):
                rows, got = _search_transversals(g, x, y)
                want = transversals_by_candidate(g, x, y)
                assert _orbits(g, y, got) == _orbits(g, y, want), (spec.name, x.order, y.order)
                if rows is not None:
                    assert rows.tobytes() == compose_transversals(g.n, want).tobytes()
                checked += 1
        assert checked > 250  # 281 distinct bases

    @pytest.mark.parametrize("recipe, sizes", [
        ("product(quaternion 8, abelian 2 2 2)", [24, 16, 24, 16]),
        ("metacyclic 27 9 4", [54, 9]),
        # |Aut| = 2,064,384, above the member bound
        ("product(quaternion 8, abelian 2 1 1 1)", [48, 14, 12, 8, 32]),
    ])
    def test_large_groups_transversal_sizes(self, recipe, sizes):
        g = eval_recipe(recipe)
        full, one = g.full_subgroup(), g.trivial_subgroup()
        _, got = _search_transversals(g, full, one)
        assert [len(reps) for reps in got] == sizes
        assert _orbits(g, one, got) == _orbits(g, one, transversals_by_candidate(g, full, one))


def _extend_calls(g, upper, fixed):
    """How many times one ``_search`` calls its nested ``extend``, counted
    by a profile hook, so the search itself keeps no counter."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "extend" and code.co_filename == automorphisms.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        automorphisms._search(g, upper, fixed)
    finally:
        sys.setprofile(None)
    return calls


class TestSearchWork:
    """One assignment is searched per orbit, not per candidate: searching
    a candidate already reached, or refuted, again raises these counts."""

    @pytest.mark.parametrize("name, calls", [
        ("C9:C9", 167), ("M81", 100), ("Q8xC2", 33), ("He3", 10), ("Q8", 6), ("D8", 4),
    ])
    def test_extend_calls_per_full_search(self, name, calls):
        g = build_group(get_spec(name), fresh=True)
        assert _extend_calls(g, g.full_subgroup(), g.trivial_subgroup()) == calls


class TestUpperLowerBase:
    """Aut^X_Y is filtered out of one memoised search for Aut^X_(X meet Y)."""

    @staticmethod
    def _requested_sides(monkeypatch, g, name):
        """The (X, Y) of every Aut^X_Y that ``verify_group`` asks for, as a
        set or as an order."""
        sides = []

        def sets(g, x, y, real=automorphisms.aut_upper_lower):
            sides.append((x, y))
            return real(g, x, y)

        def orders(g, x, ys, real=automorphisms.aut_orders):
            ys = list(ys)
            sides.extend((x, y) for y in ys)
            return real(g, x, ys)

        with monkeypatch.context() as m:
            m.setattr(automorphisms, "aut_upper_lower", sets)
            m.setattr(automorphisms, "aut_orders", orders)
            verify_group(name, g)
        return sides

    def test_matches_direct_search(self, nonabelian_corpus, monkeypatch):
        for name, g in sorted(nonabelian_corpus.items()):
            if g.n > 32:
                continue
            normals = g.normal_subgroups()
            for x in normals:
                # Y from the largest down, so a base is first asked for
                # with a Y above X meet Y, not with X meet Y itself
                for y in reversed(normals):
                    got = member_rows(aut_upper_lower(g, x, y)).tobytes()
                    want = compose_transversals(g.n, automorphisms._search(g, x, y)).tobytes()
                    assert got == want, (name, x.order, y.order)
        for spec in STRESS_SPECS:
            g = build_group(spec, fresh=True)
            sides = self._requested_sides(monkeypatch, g, spec.name)
            assert sides
            for x, y in sides:
                got = member_rows(aut_upper_lower(g, x, y)).tobytes()
                want = compose_transversals(g.n, automorphisms._search(g, x, y)).tobytes()
                assert got == want, (spec.name, x.order, y.order)

    def test_order_counts_the_set(self, nonabelian_corpus, stress_groups):
        pairs = 0
        for name, g in sorted(nonabelian_corpus.items()) + sorted(stress_groups.items()):
            if g.n > 64:
                continue
            normals = g.normal_subgroups()
            for x in normals:
                for y in normals:
                    assert aut_orders(g, x, [y])[0] == len(aut_upper_lower(g, x, y)), (name, x, y)
                    pairs += 1
        assert pairs > 30000  # 32,536, the order-64 stress group included

    def test_one_count_per_central_subgroup(self, nonabelian_corpus, stress_groups,
                                            monkeypatch):
        # verify_group fills each central M's row of its order table with
        # one aut_orders call; every subgroup of Z(G) is an M of some row
        real = automorphisms.aut_orders
        for name, g in sorted(nonabelian_corpus.items()) + sorted(stress_groups.items()):
            uppers = []

            def counting(g, x, ys):
                uppers.append(x.members)
                return real(g, x, ys)

            monkeypatch.setattr(automorphisms, "aut_orders", counting)
            rep = verify_group(name, g)
            assert all(r.match for r in rep.rows), name
            normals = g.normal_subgroups()
            central = {normals[i].members for i in center_subgroups(g)}
            assert len(uppers) == len(central) and set(uppers) == central, name

    def test_census_counts_fixed_point_sets(self, monkeypatch):
        # every census verify_group builds, against a Counter of each base
        # member's fixed-point set read in plain Python from the members
        real_sets, real_census = automorphisms.aut_upper_lower, automorphisms._census
        fetched, censuses = {}, []

        def sets(g, x, y):
            base = real_sets(g, x, y)
            fetched[id(base)] = base
            return base

        def census(base):
            censuses.append((id(base), real_census(base)))
            return censuses[-1][1]

        monkeypatch.setattr(automorphisms, "aut_upper_lower", sets)
        monkeypatch.setattr(automorphisms, "_census", census)
        specs = [s for s in catalog() if not build_group(s).is_abelian()]
        for spec in specs + list(STRESS_SPECS):
            fetched.clear()
            censuses.clear()
            verify_group(spec.name, build_group(spec, fresh=True))
            assert censuses and {i for i, _ in censuses} == set(fetched), spec.name
            for i, got in censuses:
                n = fetched[i].parent.n
                want = Counter(frozenset(x for x in range(n) if a(x) == x)
                               for a in members(fetched[i]))
                masks = [frozenset(x for x in range(n) if m >> x & 1) for m, _ in got]
                assert len(set(masks)) == len(masks), spec.name
                assert dict(zip(masks, (k for _, k in got))) == want, spec.name

    def test_one_search_per_upper_and_meet(self, monkeypatch):
        searched = {}
        real = automorphisms._search

        def counting(g, upper, fixed):
            searched[spec.name].append((upper.members, fixed.members))
            return real(g, upper, fixed)

        monkeypatch.setattr(automorphisms, "_search", counting)
        for spec in STRESS_SPECS:
            searched[spec.name] = []
            verify_group(spec.name, build_group(spec, fresh=True))
        # 27 and 6 central subgroups M, each searched once as Aut^M_M,
        # and the full Aut of each group
        assert {name: len(s) for name, s in searched.items()} == {"Q8xC4xC2": 28, "He3xC3": 7}
        assert all(len(set(s)) == len(s) for s in searched.values())

    def test_refused_side_searched_once(self, monkeypatch):
        # |Aut(Q8xC2^3)| = 2,064,384 is above the member bound: its 341
        # COR_2_5 and single-group rows are skipped after one search of the
        # full Aut, not one each; COR_2_4 reads |C*| = 256 from the order
        # table's cell (Z, Z), so its 335 rows are confirmed
        g = eval_recipe("product(quaternion 8, abelian 2 1 1 1)")
        full, searches, gathers, refusals = [], [], [], []
        real_search, real_packed = automorphisms._search, automorphisms._packed
        real_compose = automorphisms.compose_transversals

        def counting(g, upper, fixed):
            searches.append(upper)
            if upper.order == g.n and fixed.order == 1:
                full.append(upper)
            return real_search(g, upper, fixed)

        def packing(n, rows):
            gathers.append(n)
            return real_packed(n, rows)

        def composing(n, transversals, keep=None):
            before = len(searches), len(gathers)
            try:
                return real_compose(n, transversals, keep)
            except OrderBoundExceededError:
                refusals.append((len(searches), len(gathers)) == before)
                raise

        monkeypatch.setattr(automorphisms, "_search", counting)
        monkeypatch.setattr(automorphisms, "_packed", packing)
        monkeypatch.setattr(automorphisms, "compose_transversals", composing)
        rep = verify_group("Q8xC2^3", g)
        skipped = [r for r in rep.rows if r.match is None]
        assert len(rep.rows) == 82527 and len(skipped) == 341
        assert all(r.note == "skipped: 2064384 automorphisms exceed member bound "
                   f"{DEFAULT_AUT_MEMBER_BOUND}" for r in skipped)
        assert all(r.match for r in rep.rows if r.criterion == "COR_2_3")
        cor_2_4 = [r for r in rep.rows if r.criterion == "COR_2_4"]
        assert len(cor_2_4) == 335 and all(r.match for r in cor_2_4)
        assert len(full) == 1
        # every skipped row is refused from the memoised full group's
        # transversal sizes, with no search and nothing packed or gathered
        assert refusals == [True] * len(skipped)
