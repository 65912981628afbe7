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
product of their sizes, and its members are built only when first read,
as rows of one numpy array, one gather per level.

A built set is one ``bytes`` object, its members' image rows as uint16
(every order the ingest bound admits is below 2**16) sorted as byte
strings: equality reads the bytes, membership is a binary search, and
``Automorphism`` objects are decoded only when ``AutSet.members`` is read.

Every constrained question is about Aut^X_Y(G), the automorphisms alpha
with g^-1 alpha(g) in X for every g that also fix Y pointwise, for
normal X and Y.  ``aut_upper_lower(G, X, Y)`` runs one search per
(X, X meet Y), memoised on the group: it seeds the partial map with the
identity on X meet Y, so only a complement of it is searched, and
restricts the image of each generator g to the coset gX.  Aut^X_Y is
then the members of that base that fix each generator of Y outside X,
a generator filter.  ``aut_orders`` counts such sets with no set built,
on a census of the base taken once: how many members fix exactly each
set of points.  Every swept Aut^M_N, M <= N central, is such a count on
the one search for Aut^M_M.  Aut^X is ``aut_upper_lower(G, X, 1)`` and
Aut_Y is ``aut_upper_lower(G, G, Y)``; the full group is X = G, Y = 1.

That keeps the search tractable even where |Aut(G)| explodes (high-rank
elementary abelian groups), which matters when sweeping all admissible
(X, Y) pairs.  The distinguished subgroups (central, IA, and their
center-fixing variants) are instead composed from the full group's
transversals, so corpus verification rests on a single search path.
Only the members with a(x) in xN at each level generator x are
composed, and the full group's rows are never built: Z(G) and G' are
characteristic, so where an automorphism lands on a generating set
settles membership, and each level generator's image is final once its
level is gathered.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    ConfigError,
    InvariantError,
    NotNormalError,
    OrderBoundExceededError,
    ParentMismatchError,
)
from .groups import FiniteGroup, Subgroup

DEFAULT_AUT_BOUND = 128
# Largest automorphism set built; |Aut(C2^5)| = 9,999,360 is refused.
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


def aut_bound() -> int:
    """Current automorphism order bound (env AUTCRIT_AUT_BOUND overrides);
    a set value that is not a positive integer raises ConfigError."""
    raw = os.environ.get("AUTCRIT_AUT_BOUND")
    if not raw:
        return DEFAULT_AUT_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"AUTCRIT_AUT_BOUND={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"AUTCRIT_AUT_BOUND={raw!r} is not positive")
    return value


def _check_bound(g: FiniteGroup, bound: int | None) -> None:
    """Refuse groups above ``bound`` (default aut_bound()); callers check
    before any memo lookup, so a cached result never bypasses the bound."""
    limit = aut_bound() if bound is None else bound
    if g.n > limit:
        raise OrderBoundExceededError(
            f"group order {g.n} exceeds automorphism bound {limit}"
        )


@dataclass(frozen=True, slots=True)
class Automorphism:
    """A group automorphism stored as the full image array."""

    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]


def _packed(n: int, rows) -> np.ndarray:
    """Image rows of length n as an (m, n) KEY_DTYPE array.  An order
    above 2**16 would truncate the entries, so it raises."""
    if n > 1 << 16:
        raise OrderBoundExceededError(f"group order {n} exceeds the packed-key limit {1 << 16}")
    return np.asarray(rows, dtype=KEY_DTYPE).reshape(-1, n)


def _canonical(n: int, rows) -> np.ndarray:
    """Image rows of length n sorted as byte strings, as ``AutSet`` stores
    them; a repeated row raises, as the set would hold it twice."""
    packed = np.ascontiguousarray(_packed(n, rows))
    keys = np.sort(packed.view(f"V{n * packed.itemsize}").ravel())
    if (keys[1:] == keys[:-1]).any():
        raise InvariantError(f"a repeated row among {len(keys)} automorphism image rows")
    return keys.view(KEY_DTYPE).reshape(-1, n)


class AutSet:
    """A set of automorphisms of one parent group, tagged by what it is.

    A set made by a search (``from_levels``) keeps its level generators
    ``gens`` and one transversal per level, packed as ``_packed`` rows,
    and ``len()`` is the product of the transversal sizes; a set made
    from rows has neither.  ``data``
    is the bytes of the image rows in ``_canonical`` order, built by
    ``compose_transversals`` on first read for a set made by a search;
    ``rows`` is a read-only view of them, and ``members`` decodes them
    into ``Automorphism`` objects once, on first use."""

    __slots__ = ("parent", "name", "gens", "transversals", "_order", "_data", "_members")

    def __init__(self, parent: FiniteGroup, rows: np.ndarray, name: str):
        self.parent = parent
        self.name = name
        self.gens = self.transversals = None
        self._order = len(rows)
        self._data = rows.tobytes()
        self._members = None
        if Automorphism(tuple(range(parent.n))) not in self:
            raise InvariantError(f"{name} automorphism set lacks the identity")

    @classmethod
    def from_levels(cls, parent: FiniteGroup, gens, transversals, name: str) -> "AutSet":
        """The products r_0 * r_1 * ... of one representative per level,
        ``transversals[d]`` the level of ``gens[d]``, with no row built.

        The member bound is checked from the sizes.  In place of the
        identity and repeated-row checks of a built set, each level must
        start with the identity, fix the earlier level generators, and send
        its generator to distinct points; then the products are distinct,
        as a product's image of gens[d] picks its level-d representative."""
        s = cls.__new__(cls)
        s.parent, s.name, s.gens = parent, name, tuple(gens)
        s._order = _member_count(transversals)
        s._data = s._members = None
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

    @property
    def data(self) -> bytes:
        if self._data is None:
            self._data = compose_transversals(self.parent.n, self.transversals).tobytes()
        return self._data

    @property
    def rows(self) -> np.ndarray:
        return np.frombuffer(self.data, dtype=KEY_DTYPE).reshape(-1, self.parent.n)

    @property
    def members(self) -> frozenset[Automorphism]:
        """The members as ``Automorphism`` objects, decoded on first use."""
        if self._members is None:
            self._members = frozenset(Automorphism(tuple(r)) for r in self.rows.tolist())
        return self._members

    def __len__(self) -> int:
        return self._order

    def __iter__(self):
        return iter(sorted(self.members, key=lambda a: a.images))

    def __contains__(self, a: Automorphism) -> bool:
        n, img = self.parent.n, a.images
        # an entry outside 0..n-1 is in no member, and need not fit KEY_DTYPE
        if len(img) != n or min(img) < 0 or max(img) >= n:
            return False
        key = np.array(img, dtype=KEY_DTYPE).view(f"V{n * KEY_DTYPE().itemsize}")
        data = self.data
        i = int(np.frombuffer(data, dtype=key.dtype).searchsorted(key)[0]) * key.itemsize
        return data[i:i + key.itemsize] == key.tobytes()

    def __repr__(self) -> str:
        return f"AutSet({self.name}, order={len(self)})"


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


def _member_count(transversals) -> int:
    """The number of products of one representative per transversal; a
    set above DEFAULT_AUT_MEMBER_BOUND is refused, before any member is built."""
    count = prod(len(reps) for reps in transversals)
    if count > DEFAULT_AUT_MEMBER_BOUND:
        raise OrderBoundExceededError(f"{count} automorphisms exceed member bound "
                                      f"{DEFAULT_AUT_MEMBER_BOUND}")
    return count


def _allowed(n: int, images) -> np.ndarray:
    """A lookup table over the n points: True at each of ``images``."""
    ok = np.zeros(n, dtype=bool)
    ok[images] = True
    return ok


def compose_transversals(n: int, transversals, allowed=None) -> np.ndarray:
    """The ``_canonical`` image rows of every product r_0 * r_1 * ... of
    one image tuple per transversal; with ``allowed``, one (h, images)
    per level, only the products a with a(h) among the images at every
    level.

    The member bound is checked from the sizes first.  The products are
    the rows of one array, extended by one gather per level: row i*k + j
    of ``partial[:, reps]`` is p_i after r_j.  Where every representative
    of a later level fixes the level's h, as a search's do, a partial
    product's image of h is final after the level's gather, so the
    products with a disallowed one are dropped there.  Distinct cosets
    give distinct products, so a repeated row means a repeated
    representative, which ``_canonical`` refuses."""
    _member_count(transversals)
    partial = _packed(n, np.arange(n))
    for d, reps in enumerate(transversals):
        partial = partial[:, _packed(n, reps)].reshape(-1, n)
        if allowed is not None:
            h, images = allowed[d]
            partial = partial[_allowed(n, images)[partial[:, h]]]
    return _canonical(n, partial)


def automorphism_group(g: FiniteGroup, bound: int | None = None) -> AutSet:
    """All automorphisms of g, by backtracking over generator images, held
    as the search's transversals.  The search is kept on the group also
    when the set is refused for the member bound, so a refusal is read
    again from the transversal sizes, not searched again."""
    _check_bound(g, bound)
    one = g.trivial_subgroup()
    levels = g._memo("aut_full_levels", lambda: _search(g, g.full_subgroup(), one))
    return g._memo("aut_full",
                   lambda: AutSet.from_levels(g, g.generating_sequence(), levels, FULL))


def _require_normal(s: Subgroup, role: str) -> None:
    if not s.is_normal():
        raise NotNormalError(f"{role} subgroup of order {s.order} is not normal")


def _mask(g: FiniteGroup, base: AutSet, checks) -> np.ndarray:
    """Which members a of ``base`` have a(x) in ``images`` for every
    (x, images) of ``checks``: one pass per point over the rows, by a
    lookup table of allowed images."""
    rows = base.rows
    mask = np.ones(len(rows), dtype=bool)
    for x, images in checks:
        mask &= _allowed(g.n, images)[rows[:, x]]
    return mask


def aut_upper_lower(
    g: FiniteGroup, x: Subgroup, y: Subgroup, bound: int | None = None
) -> AutSet:
    """Aut^X_Y(G): automorphisms alpha with g^-1 alpha(g) in X for every
    g (those centralizing G/X) that fix Y elementwise.

    One search per (X, X meet Y), memoised on the group: Aut^X_Y lies in
    Aut^X_(X meet Y), and the points an automorphism fixes form a
    subgroup, so Aut^X_Y is the members of that base fixing each
    generator of Y outside X.  When Y <= X the base is the answer."""
    _require_normal(x, "upper")
    _require_normal(y, "lower")
    _check_bound(g, bound)
    meet = x.members & y.members

    def compute():
        lower = y if meet == y.members else Subgroup(g, meet)
        return AutSet.from_levels(g, g.generating_sequence(meet), _search(g, x, lower),
                                  UPPER_LOWER_XY)

    base = g._memo(("aut_upper_lower", x.members, meet), compute)
    checks = [(t, [t]) for t in y.generators() if t not in meet]
    return AutSet(g, base.rows[_mask(g, base, checks)], UPPER_LOWER_XY) if checks else base


def _census(base: AutSet) -> list[tuple[int, int]]:
    """(bitmask of the points a member fixes, how many members fix just those)."""
    fixed = np.packbits(base.rows == np.arange(base.parent.n), axis=1, bitorder="little")
    return [(int.from_bytes(m, "little"), k) for m, k in Counter(map(bytes, fixed)).items()]


def aut_orders(g: FiniteGroup, x: Subgroup, ys, bound: int | None = None) -> list[int]:
    """|Aut^X_Y(G)| for each Y of ``ys``, with no set built: the members of
    the base Aut^X_(X meet Y) whose fixed points hold Y's generators, summed
    on the base's census, which is memoised next to it."""
    censuses, orders = {}, []
    for y in ys:
        _require_normal(y, "lower")
        meet = x.members & y.members
        if meet not in censuses:
            lower = y if meet == y.members else x if meet == x.members else Subgroup(g, meet)
            base = aut_upper_lower(g, x, lower, bound=bound)
            censuses[meet] = g._memo(("aut_census", x.members, meet), lambda: _census(base))
        need = sum(1 << t for t in y.generators())
        orders.append(sum(k for fixed, k in censuses[meet] if fixed & need == need))
    return orders


def distinguished(g: FiniteGroup, which: str, bound: int | None = None) -> AutSet:
    """One of the four distinguished subgroups, composed from the full
    automorphism group's transversals (one search path to trust).

    CENTRAL: g^-1 a(g) in Z(G) everywhere.  C_STAR: central and fixing
    Z(G) pointwise.  IA: g^-1 a(g) in G' everywhere.  IA_STAR: IA and
    fixing Z(G) pointwise.

    Membership is read on generator images only.  Z(G) and G' are
    characteristic, so the x with a(x) in xN form a subgroup, and a is in
    Aut^N exactly when a(x) in xN for every x of ``g.generating_sequence()``,
    which are the full group's level generators: CENTRAL and IA compose
    only the products meeting that at each level, and the full group's
    rows are not built.  Likewise a fixes Z(G) exactly when it fixes
    ``z.generators()``, so C_STAR and IA_STAR are filtered out of CENTRAL
    and IA by ``_mask``.
    """
    if which not in DISTINGUISHED_TAGS:
        raise ValueError(f"unknown distinguished tag {which!r}")
    _check_bound(g, bound)
    key = ("aut_distinguished", which)

    def compute():
        # (point, allowed images): x itself for a point fixed, or the coset xN
        if which in (C_STAR, IA_STAR):
            base = distinguished(g, CENTRAL if which == C_STAR else IA, bound=bound)
            checks = [(x, [x]) for x in g.center().generators()]
            return AutSet(g, base.rows[_mask(g, base, checks)], which)
        full = automorphism_group(g, bound=bound)
        upper = g.center() if which == CENTRAL else g.derived_subgroup()
        table = g.table
        levels = [(x, [table[x][k] for k in upper.members]) for x in full.gens]
        return AutSet(g, compose_transversals(g.n, full.transversals, levels), which)

    return g._memo(key, compute)


def autset_equal(s1: AutSet, s2: AutSet) -> bool:
    """Set equality of members, read on the orders and then on ``data``
    (equal sets have equal sorted rows); the parents must be the same group."""
    if s1.parent is not s2.parent and s1.parent.table != s2.parent.table:
        raise ParentMismatchError("automorphism sets over different groups")
    return len(s1) == len(s2) and s1.data == s2.data
