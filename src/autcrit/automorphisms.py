"""Exhaustive automorphism computation and the distinguished subgroups.

The engine is one backtracking search over images of a generating
sequence.  Candidate images are pruned by an automorphism-invariant
fingerprint (element order, centralizer order, membership in the center
and the derived subgroup); each partial assignment is extended to the
subgroup generated so far one left coset of the mapped subgroup at a
time, checking multiplicativity at each coset representative and
injectivity at every element, so every completed assignment is a
verified automorphism by construction.

The result is a group, so the search does not visit each member.  At
level d it needs, for every image of the d-th generator h that a member
fixing the earlier generators reaches, one such member (a
stabiliser-chain transversal, by orbit-stabiliser); every member is then
a product of one representative per level, and the number of members is
the product of the transversal sizes.  With the levels walked from the
deepest up, each representative found so far maps the images of h
reached, and the candidates refuted, onto more of the same, so one
assignment is searched per orbit, not per candidate.  The search returns
the transversals, and a set made from them keeps them: its order is the
product of their sizes, and its members are built only where a census
or a composed subset needs them, as rows of one numpy array, one gather
per level.  Only such a composition is refused for the member bound,
from the sizes before its first gather; a search's set of any order is
kept.

An ``AutSet`` is Aut^X_Y(G) for the normal pair (X, Y) it records: the
automorphisms a with a(g) in gX for every g that also fix Y pointwise.
The g with a(g) in gX form a subgroup (X is normal), as do the points a
fixes, so ``_meets`` tests membership on generators alone: a(x) in xX for
each x of ``g.generating_sequence()``, and a(y) = y for each generator y
of Y.  That one test prunes the composition of the central and IA
automorphisms from the full group's transversals, filters C* and IA* out
of them, and decides ``autset_equal``: two finite subgroups are equal
exactly when they have the same order and the generators of one lie in
the other.  No member is built to compare two sets.

``aut_upper_lower(G, X, Y)`` is one search on (X, Y), memoised on the
group: it seeds the partial map with the identity on Y, so only a
complement of Y is searched, and restricts the image of each generator
g to the coset gX.  ``aut_orders`` counts Aut^X_Y for many Y with no set
built, on a census of the base Aut^X_(X meet Y) taken once: how many
members fix exactly each set of points.  Every swept Aut^M_N, M <= N
central, is such a count on the one search for Aut^M_M.  Aut^X is
``aut_upper_lower(G, X, 1)`` and Aut_Y is ``aut_upper_lower(G, G, Y)``;
the full group is X = G, Y = 1.

That keeps the search tractable even where |Aut(G)| explodes (high-rank
elementary abelian groups), which matters when sweeping all admissible
(X, Y) pairs.  The distinguished subgroups (central, IA, and their
center-fixing variants) are instead composed from the full group's
transversals, so corpus verification rests on a single search path.
The full group's level generators are ``g.generating_sequence()``, and
each later representative fixes them, so a partial product's image of a
level's generator is final once its level is gathered: only the members
that pass there are composed, and the full group's rows are never built.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np

from .errors import InvariantError, NotNormalError, OrderBoundExceededError, ParentMismatchError
from .groups import FiniteGroup, Subgroup

# Most members composed; composing all of Aut(C2^5), 9,999,360, is refused.
DEFAULT_AUT_MEMBER_BOUND = 250_000
# One image entry of a stored row; groups.DEFAULT_INGEST_BOUND = 10,000 fits.
KEY_DTYPE = np.uint16

FULL = "FULL"
CENTRAL = "CENTRAL"
C_STAR = "C_STAR"
IA = "IA"
IA_STAR = "IA_STAR"
UPPER_LOWER_XY = "UPPER_LOWER_XY"

DISTINGUISHED_TAGS = (CENTRAL, C_STAR, IA, IA_STAR)


def _packed(n: int, rows) -> np.ndarray:
    """Image rows of length n as an (m, n) KEY_DTYPE array.  An order
    above 2**16 would truncate the entries, so it raises."""
    if n > 1 << 16:
        raise OrderBoundExceededError(f"group order {n} exceeds the packed-key limit {1 << 16}")
    return np.asarray(rows, dtype=KEY_DTYPE).reshape(-1, n)


def _canonical(n: int, rows) -> np.ndarray:
    """Image rows of length n sorted as byte strings, as a composed
    ``AutSet`` keeps them; a repeated row raises, as the set would hold it
    twice."""
    packed = np.ascontiguousarray(_packed(n, rows))
    keys = np.sort(packed.view(f"V{n * packed.itemsize}").ravel())
    if (keys[1:] == keys[:-1]).any():
        raise InvariantError(f"a repeated row among {len(keys)} automorphism image rows")
    return keys.view(KEY_DTYPE).reshape(-1, n)


class AutSet:
    """Aut^X_Y(G) of one parent group, for the normal pair (X, Y) =
    (``upper``, ``lower``), tagged by what it is.

    A set made by a search (``from_levels``) keeps its level generators
    ``gens`` and one transversal per level, packed as ``_packed`` rows,
    and ``len()`` is the product of the transversal sizes; no member is
    built, so a set of any order is kept.  A composed set keeps its
    members as ``rows``, in ``_canonical`` order, and has neither."""

    __slots__ = ("parent", "upper", "lower", "name", "gens", "transversals", "rows", "_order")

    def __init__(self, parent: FiniteGroup, rows: np.ndarray, upper: Subgroup,
                 lower: Subgroup, name: str):
        self.parent, self.upper, self.lower, self.name = parent, upper, lower, name
        self.gens = self.transversals = None
        self.rows = rows
        rows.setflags(write=False)  # a memoised set is shared by every caller
        self._order = len(rows)
        if not (rows == np.arange(parent.n)).all(axis=1).any():
            raise InvariantError(f"{name} automorphism set lacks the identity")

    @classmethod
    def from_levels(cls, parent: FiniteGroup, upper: Subgroup, lower: Subgroup, transversals,
                    name: str) -> "AutSet":
        """The products r_0 * r_1 * ... of one representative per level,
        ``transversals[d]`` the level of gens[d], gens the generating
        sequence ``_search`` extends from ``lower``, with no row built and
        no member bound: ``len()`` is the product of the level sizes.

        In place of the identity and repeated-row checks of a composed
        set, each level must start with the identity, fix the earlier level
        generators, and send its generator to distinct points; then the
        products are distinct, as a product's image of gens[d] picks its
        level-d representative."""
        s = cls.__new__(cls)
        s.parent, s.upper, s.lower, s.name = parent, upper, lower, name
        s.gens = parent.generating_sequence(lower.members)
        s._order = prod(len(reps) for reps in transversals)
        s.rows = None
        identity = tuple(range(parent.n))
        if len(s.gens) != len(transversals):
            raise InvariantError(f"{name}: {len(transversals)} levels for {len(s.gens)} generators")
        for d, (h, reps) in enumerate(zip(s.gens, transversals)):
            if not reps or tuple(reps[0]) != identity:
                raise InvariantError(f"{name}: level {d} does not start with the identity")
            if any(r[x] != x for r in reps for x in s.gens[:d]):
                raise InvariantError(f"{name}: a level-{d} representative moves an earlier "
                                     "level generator")
            if len({r[h] for r in reps}) != len(reps):
                raise InvariantError(f"{name}: level {d} repeats an image of its generator")
        # packed once, for every composition of the set and of its subsets
        s.transversals = [_packed(parent.n, reps) for reps in transversals]
        return s

    def __len__(self) -> int:
        return self._order

    def __repr__(self) -> str:
        return f"AutSet({self.name}, order={len(self)})"


def _meets(g: FiniteGroup, upper: Subgroup, lower: Subgroup, rows: np.ndarray,
           at=None) -> np.ndarray:
    """Which image ``rows`` lie in Aut^X_Y(G), X = ``upper`` and Y =
    ``lower``: a(x) in xX at each x of ``g.generating_sequence()``, and
    a(y) = y at each y of ``lower.generators()``.  With ``at``, an index
    into those points in that order, only the condition there.  The test
    is a table of the images allowed at each point, built once per pair
    and memoised on the group."""

    def build():
        gens, fixed = g.generating_sequence(), lower.generators()
        allowed = np.zeros((len(gens) + len(fixed), g.n), dtype=bool)
        for i, x in enumerate(gens):
            allowed[i, [g.table[x][k] for k in upper.members]] = True
        allowed[np.arange(len(gens), len(allowed)), np.array(fixed, dtype=np.intp)] = True
        allowed.setflags(write=False)
        return np.array(gens + fixed, dtype=np.intp), allowed

    points, allowed = g._memo(("aut_test", upper.members, lower.members), build)
    if at is not None:
        return allowed[at][rows[:, points[at]]]
    return allowed[np.arange(len(points)), rows[:, points]].all(axis=1)


def _fingerprints(g: FiniteGroup) -> tuple[tuple, ...]:
    def compute():
        orders = g.element_orders()
        cents = g.centralizer_orders()
        z = g.center().members
        d = g.derived_subgroup().members
        return tuple(
            (orders[a], cents[a], a in z, a in d) for a in range(g.n)
        )

    return g._memo("aut_fingerprints", compute)


def _search(g: FiniteGroup, upper: Subgroup, fixed: Subgroup) -> list[list[tuple[int, ...]]]:
    """One transversal (a list of image tuples, the identity first) per
    generator of ``g.generating_sequence(fixed.members)``, whose products
    are all automorphisms fixing ``fixed`` pointwise with generator images
    in their ``upper`` cosets.

    With A_d the members that also fix gens[:d], A_d is the disjoint union
    of r * A_(d+1), one r for each image c of h = gens[d]; the members are
    the products of one r per level.  The levels are walked from the
    deepest up.  Each representative found so far lies in A_d, so it maps
    the orbit of h, and the rest of the pool, onto itself: it takes
    c = a(h) to r(c) = (r a)(h), and a candidate with no completion to
    another.  The first completed assignment below gens[:d] ->
    themselves, h -> c is searched only for a c reached neither way."""
    n = g.n
    table = g.table

    # Seed with the identity on the fixed subgroup, then extend the seed's
    # generators to a generating sequence of all of G.
    base_members = list(fixed.sorted_members)
    base_gens = fixed.generators()
    gens = g.generating_sequence(fixed.members)
    img0 = [-1] * n
    used0 = bytearray(n)
    for y in base_members:
        img0[y] = y
        used0[y] = 1

    prints = _fingerprints(g)
    pools: list[list[int]] = []
    for h in gens:
        coset = {table[h][x] for x in upper.members}
        pools.append([c for c in range(n) if prints[c] == prints[h] and c in coset])

    tgens = base_gens + gens  # products are checked against all of these

    def extend(img, used, elems, depth, cand):
        """Assign gens[depth] -> cand and map the subgroup it generates
        with ``elems``, a left coset r*H of the mapped subgroup H at a
        time, by r*x -> img(r)*img(x); returns the new state or None.

        As img is a homomorphism on H, it is one on the larger subgroup
        once img(t*r) = img(t)*img(r) for each active generator t and
        representative r; ``used`` keeps it injective."""
        img2 = img[:]
        used2 = bytearray(used)
        elems2 = elems[:]
        active = [(t, img[t]) for t in tgens[: len(base_gens) + depth]]
        active.append((gens[depth], cand))
        reps = [0]  # H itself is mapped already
        for r in reps:  # grows while it is walked
            ir = img2[r]
            for t, it in active:
                v = table[t][r]
                w = table[it][ir]
                if img2[v] == -1:  # a new coset v*H
                    row, irow = table[v], table[w]
                    for x in elems:
                        u, iu = row[x], irow[img[x]]
                        if used2[iu]:
                            return None
                        img2[u] = iu
                        used2[iu] = 1
                        elems2.append(u)
                    reps.append(v)
                elif img2[v] != w:
                    return None
        return img2, used2, elems2

    def first(img, used, elems, depth):
        """Image tuple of the first completed assignment below this state."""
        if depth == len(gens):
            if len(elems) != n:
                raise InvariantError(f"generator images reach {len(elems)} of {n} elements")
            return tuple(img)
        for cand in pools[depth]:
            state = extend(img, used, elems, depth, cand)
            if state is not None:
                found = first(*state, depth + 1)
                if found is not None:
                    return found
        return None

    def close(known, members, pool, h):
        """Close ``known`` under ``members``: a point a(h) goes to
        r(a(h)) = (r a)(h), recorded with r a, or with None where a is."""
        queue = list(known)
        for c in queue:  # grows while it is walked
            a = known[c]
            for r in members:
                p = r[c]
                if p not in known:
                    ra = a and tuple(map(r.__getitem__, a))
                    if p not in pool or (ra and ra[h] != p):
                        raise InvariantError(f"orbit of {h}: {p} is off its pool or member")
                    known[p] = ra
                    queue.append(p)

    # the levels with a candidate besides h, and the identity's state at
    # each down to the deepest of them; the others keep the identity alone
    searched = [depth for depth, pool in enumerate(pools) if len(pool) > 1]
    states = [(img0, used0, base_members[:])]
    for depth in range(searched[-1] if searched else 0):
        states.append(extend(*states[-1], depth, gens[depth]))
    transversals, members = [[tuple(range(n))] for _ in gens], []
    for depth in reversed(searched):
        h, pool = gens[depth], set(pools[depth])
        # each pool point known so far: a member taking h there, or None
        # for a candidate proven to have no completion
        known = {h: tuple(range(n))}
        for cand in pools[depth]:
            if cand not in known:
                below = extend(*states[depth], depth, cand)
                rep = known[cand] = below and first(*below, depth + 1)
                if rep is not None:
                    members.append(rep)
                if len(known) < len(pool):  # a candidate is still open
                    close(known, members, pool, h)
        transversals[depth] = [a for a in known.values() if a is not None]
    return transversals


def compose_transversals(n: int, transversals, keep=None) -> np.ndarray:
    """The ``_canonical`` image rows of every product r_0 * r_1 * ... of
    one image tuple per transversal; with ``keep``, a function of a level
    d and the partial products after its gather that says which to keep,
    only the products kept at every level.

    More than DEFAULT_AUT_MEMBER_BOUND products, kept or not, are refused
    from the transversal sizes, before the first gather; this is the one
    place the member bound is checked.  The products are the rows of one
    array, extended by one gather per level: row i*k + j of
    ``partial[:, reps]`` is p_i after r_j.  Distinct cosets give distinct
    products, so a repeated row means a repeated representative, which
    ``_canonical`` refuses."""
    count = prod(len(reps) for reps in transversals)
    if count > DEFAULT_AUT_MEMBER_BOUND:
        raise OrderBoundExceededError(f"{count} automorphisms exceed member bound "
                                      f"{DEFAULT_AUT_MEMBER_BOUND}")
    partial = _packed(n, np.arange(n))
    for d, reps in enumerate(transversals):
        partial = partial[:, _packed(n, reps)].reshape(-1, n)
        if keep is not None:
            partial = partial[keep(d, partial)]
    return _canonical(n, partial)


def automorphism_group(g: FiniteGroup) -> AutSet:
    """All automorphisms of g, by backtracking over generator images, held
    as the search's transversals and memoised on the group, whatever its
    order: a composition above the member bound is refused again from the
    memoised sizes, with no search."""
    full, one = g.full_subgroup(), g.trivial_subgroup()
    return g._memo("aut_full",
                   lambda: AutSet.from_levels(g, full, one, _search(g, full, one), FULL))


def _require_normal(s: Subgroup, role: str) -> None:
    if not s.is_normal():
        raise NotNormalError(f"{role} subgroup of order {s.order} is not normal")


def aut_upper_lower(g: FiniteGroup, x: Subgroup, y: Subgroup) -> AutSet:
    """Aut^X_Y(G): automorphisms alpha with g^-1 alpha(g) in X for every
    g (those centralizing G/X) that fix Y elementwise, by one search on
    (X, Y), memoised on the group."""
    _require_normal(x, "upper")
    _require_normal(y, "lower")
    return g._memo(("aut_upper_lower", x.members, y.members),
                   lambda: AutSet.from_levels(g, x, y, _search(g, x, y), UPPER_LOWER_XY))


def _census(base: AutSet) -> list[tuple[int, int]]:
    """(bitmask of the points a member fixes, how many members fix just those)."""
    n = base.parent.n
    rows = compose_transversals(n, base.transversals)
    fixed = np.packbits(rows == np.arange(n), axis=1, bitorder="little")
    return [(int.from_bytes(m, "little"), k) for m, k in Counter(map(bytes, fixed)).items()]


def aut_orders(g: FiniteGroup, x: Subgroup, ys) -> list[int]:
    """|Aut^X_Y(G)| for each Y of ``ys``, with no set built: the members of
    the base Aut^X_(X meet Y) whose fixed points hold Y, summed on the
    base's census, which is memoised next to it.  Each entry is tested
    against Y's member bitmask (``Subgroup.mask``, memoised and read by
    ``report.containment`` too): fixed points form a subgroup, so this is
    the test on Y's generators, with none computed."""
    censuses, orders = {}, []
    for y in ys:
        _require_normal(y, "lower")
        meet = x.members & y.members
        if meet not in censuses:
            lower = y if meet == y.members else x if meet == x.members else Subgroup(g, meet)
            base = aut_upper_lower(g, x, lower)
            censuses[meet] = g._memo(("aut_census", x.members, meet), lambda: _census(base))
        need = y.mask()
        orders.append(sum(k for fixed, k in censuses[meet] if fixed & need == need))
    return orders


def distinguished(g: FiniteGroup, which: str) -> AutSet:
    """One of the four distinguished subgroups, composed from the full
    automorphism group's transversals (one search path to trust).

    CENTRAL = Aut^Z_1: g^-1 a(g) in Z(G) everywhere.  C_STAR = Aut^Z_Z:
    central and fixing Z(G) pointwise.  IA = Aut^(G')_1: g^-1 a(g) in G'
    everywhere.  IA_STAR = Aut^(G')_Z: IA and fixing Z(G) pointwise.

    CENTRAL and IA compose only the products that ``_meets`` passes at
    each level's generator, and the full group's rows are not built;
    C_STAR and IA_STAR are the members of CENTRAL and IA that it passes
    for (Z, Z) and (G', Z).
    """
    if which not in DISTINGUISHED_TAGS:
        raise ValueError(f"unknown distinguished tag {which!r}")

    def compute():
        if which in (C_STAR, IA_STAR):
            base = distinguished(g, CENTRAL if which == C_STAR else IA)
            z = g.center()
            return AutSet(g, base.rows[_meets(g, base.upper, z, base.rows)], base.upper, z,
                          which)
        full = automorphism_group(g)
        upper = g.center() if which == CENTRAL else g.derived_subgroup()
        one = g.trivial_subgroup()
        # level d's generator is the test's point d: both are g.generating_sequence()
        rows = compose_transversals(
            g.n, full.transversals, lambda d, rows: _meets(g, upper, one, rows, d))
        return AutSet(g, rows, upper, one, which)

    return g._memo(("aut_distinguished", which), compute)


def autset_equal(s1: AutSet, s2: AutSet) -> bool:
    """Whether two automorphism subgroups of one group are equal.  Two
    finite subgroups are equal exactly when they have the same order and
    the generators of one lie in the other: here ``_meets`` for s2's
    (X, Y) on s1's generators, the identity and its transversal
    representatives for a search, its rows for a composed set.  The
    parents must be the same group."""
    if s1.parent is not s2.parent and s1.parent.table != s2.parent.table:
        raise ParentMismatchError("automorphism sets over different groups")
    if len(s1) != len(s2):
        return False
    n, gens = s1.parent.n, s1.rows
    if gens is None:  # a set may have no level: the identity, then every representative
        gens = np.concatenate([_packed(n, range(n)), *s1.transversals])
    return bool(_meets(s2.parent, s2.upper, s2.lower, gens).all())
