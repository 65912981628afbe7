import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autcrit.abelian import hom_order
from autcrit.automorphisms import (
    Automorphism,
    C_STAR,
    CENTRAL,
    IA,
    IA_STAR,
    aut_bound,
    aut_upper_lower,
    automorphism_group,
    autset_equal,
    distinguished,
    hom_automorphism_pairs,
    hom_construct_auts,
    inner_automorphisms,
)
from autcrit.catalog import (
    abelian_group,
    build_group,
    cyclic_group,
    dihedral_group,
    get_spec,
    quaternion_group,
)
from autcrit.groups import FiniteGroup
from autcrit.errors import (
    ConfigError,
    HypothesisViolationError,
    OrderBoundExceededError,
    ParentMismatchError,
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
        assert all(a.verify(q8) for a in full.members)

    def test_closed(self, q8):
        assert automorphism_group(q8).verify_closed()

    def test_order_bound(self):
        g = cyclic_group(16)
        with pytest.raises(OrderBoundExceededError):
            automorphism_group(g, bound=8)

    def test_bound_checked_after_caching(self):
        g = build_group(get_spec("D16xC2"), fresh=True)
        assert len(automorphism_group(g)) == 256
        with pytest.raises(OrderBoundExceededError):
            automorphism_group(g, bound=8)

    def test_distinguished_bound_checked_after_caching(self):
        g = build_group(get_spec("D16xC2"), fresh=True)
        distinguished(g, CENTRAL)
        with pytest.raises(OrderBoundExceededError):
            distinguished(g, CENTRAL, bound=8)

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_env_bound_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("AUTCRIT_AUT_BOUND", raw)
        with pytest.raises(ConfigError):
            aut_bound()

    def test_deterministic(self):
        a = automorphism_group(quaternion_group(8), bound=None)
        b = automorphism_group(quaternion_group(8), bound=None)
        assert [x.images for x in a] == [x.images for x in b]


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
        assert up_small.members <= up_big.members
        low_big = aut_upper_lower(d8, full, z)
        low_small = aut_upper_lower(d8, full, full)
        assert low_small.members <= low_big.members

    def test_monotone_over_central_chains(self):
        from autcrit.report import center_subgroups

        for name in ("M16", "D8xC2", "M27"):
            g = build_group(get_spec(name))
            subs = center_subgroups(g)
            one, full = g.trivial_subgroup(), g.full_subgroup()
            for x in subs:
                for x2 in subs:
                    if not x.members <= x2.members:
                        continue
                    upper_x = aut_upper_lower(g, x, one)
                    upper_x2 = aut_upper_lower(g, x2, one)
                    assert upper_x.members <= upper_x2.members
                    lower_x = aut_upper_lower(g, full, x)
                    lower_x2 = aut_upper_lower(g, full, x2)
                    assert lower_x2.members <= lower_x.members

    def test_members_are_automorphisms(self, m16):
        s = aut_upper_lower(m16, m16.center(), m16.center())
        assert all(a.verify(m16) for a in s.members)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_relabelling_conjugates_the_search(self, nonabelian_corpus, data):
        # Renumbering the elements by pi (fixing the identity) must carry
        # Aut^X_Y(G) to pi Aut^X_Y(G) pi^-1, whatever the numbering.
        names = sorted(name for name, g in nonabelian_corpus.items() if g.n <= 32)
        g = nonabelian_corpus[data.draw(st.sampled_from(names))]
        normals = g.normal_subgroups()
        x = data.draw(st.sampled_from(normals))
        y = data.draw(st.sampled_from(normals))
        pi = [0] + data.draw(st.permutations(range(1, g.n)))
        inv = [0] * g.n
        for a, b in enumerate(pi):
            inv[b] = a
        h = FiniteGroup([[pi[g.mul(inv[a], inv[b])] for b in range(g.n)] for a in range(g.n)])
        hx = h.subgroup(pi[e] for e in x.members)
        hy = h.subgroup(pi[e] for e in y.members)
        expected = {
            Automorphism(tuple(pi[alpha(inv[e])] for e in range(g.n)))
            for alpha in aut_upper_lower(g, x, y).members
        }
        found = aut_upper_lower(h, hx, hy)
        assert found.members == expected
        assert all(alpha.verify(h) for alpha in found.members)


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

    def test_containments_on_corpus(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            ia_star = distinguished(g, IA_STAR)
            ia = distinguished(g, IA)
            ac = distinguished(g, CENTRAL)
            cs = distinguished(g, C_STAR)
            assert cs.members <= ac.members, name
            assert ia_star.members <= ia.members, name
            if g.nilpotence_class() == 2:
                assert ia.members <= ac.members, name


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
                assert a1.compose(a2) == by_choice[prod]


class TestAutSetBasics:
    def test_compose_inverse(self, q8):
        full = automorphism_group(q8)
        for a in list(full)[:5]:
            assert a.compose(a.inverse()).is_identity

    def test_autset_equal_checks_parent(self, q8, d8):
        with pytest.raises(ParentMismatchError):
            autset_equal(automorphism_group(q8), automorphism_group(d8))

    def test_equality_examples(self, q8, m16):
        assert autset_equal(distinguished(q8, IA), distinguished(q8, CENTRAL))
        assert not autset_equal(distinguished(m16, IA), distinguished(m16, CENTRAL))


class TestCorpusAutSets:
    def test_closed_and_verified(self, nonabelian_corpus):
        for name, g in sorted(nonabelian_corpus.items()):
            full = automorphism_group(g)
            assert all(a.verify(g) for a in full.members), name
            if len(full) <= 512:
                assert full.verify_closed(), name
