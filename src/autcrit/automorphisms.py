"""Exhaustive automorphism computation and the distinguished subgroups.

The engine is one backtracking search over images of a generating
sequence.  Candidate images are pruned by an automorphism-invariant
fingerprint (element order, centralizer order, membership in the center
and the derived subgroup); each partial assignment is extended to the
subgroup generated so far, checking multiplicativity and injectivity as
the closure grows, so every completed assignment is a verified
automorphism by construction.

Every constrained question is one search for Aut^X_Y(G), the
automorphisms alpha with g^-1 alpha(g) in X for every g that also fix Y
pointwise, for normal X and Y: ``aut_upper_lower(G, X, Y)`` seeds the
partial map with the identity on Y, so only a complement of Y is
searched, and restricts the image of each generator g to the coset gX.
Aut^X is ``aut_upper_lower(G, X, 1)`` and Aut_Y is
``aut_upper_lower(G, G, Y)``; the full group is the search with X = G
and Y = 1.

That keeps the search tractable even where |Aut(G)| explodes (high-rank
elementary abelian groups), which matters when sweeping all admissible
(X, Y) pairs.  The distinguished subgroups (central, IA, and their
center-fixing variants) are instead obtained by filtering the full
enumeration, so corpus verification rests on a single search path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .errors import (
    ConfigError,
    HypothesisViolationError,
    InvariantError,
    NotNormalError,
    OrderBoundExceededError,
    ParentMismatchError,
)
from .groups import FiniteGroup, Subgroup

DEFAULT_AUT_BOUND = 128

FULL = "FULL"
INN = "INN"
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


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism stored as the full image array."""

    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    @property
    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self * other)(x) = self(other(x))."""
        a, b = self.images, other.images
        return Automorphism(tuple(a[b[x]] for x in range(len(a))))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.images)
        for x, i in enumerate(self.images):
            inv[i] = x
        return Automorphism(tuple(inv))

    def verify(self, group: FiniteGroup) -> bool:
        """Full independent check: bijection fixing 0 that preserves the
        whole multiplication table."""
        img = np.array(self.images, dtype=np.int64)
        n = group.n
        if img.shape != (n,) or img[0] != 0 or len(set(self.images)) != n:
            return False
        t = np.array(group.table, dtype=np.int64)
        return bool(np.array_equal(img[t], t[np.ix_(img, img)]))


class AutSet:
    """A set of automorphisms of one parent group, tagged by what it is."""

    __slots__ = ("parent", "members", "name")

    def __init__(self, parent: FiniteGroup, members, name: str):
        self.parent = parent
        self.members = frozenset(members)
        self.name = name
        if Automorphism(tuple(range(parent.n))) not in self.members:
            raise InvariantError(f"{name} automorphism set lacks the identity")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members, key=lambda a: a.images))

    def __contains__(self, a: Automorphism) -> bool:
        return a in self.members

    def __repr__(self) -> str:
        return f"AutSet({self.name}, order={len(self.members)})"

    def verify_closed(self) -> bool:
        """Check closure under composition and inverses (quadratic; meant
        for tests)."""
        for a in self.members:
            if a.inverse() not in self.members:
                return False
            for b in self.members:
                if a.compose(b) not in self.members:
                    return False
        return True


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


def _search(g: FiniteGroup, upper: Subgroup, fixed: Subgroup) -> list[tuple[int, ...]]:
    """Backtracking core; returns sorted image tuples of all
    automorphisms fixing ``fixed`` pointwise with generator images in
    their ``upper`` cosets."""
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
    results: list[tuple[int, ...]] = []

    def extend(img, used, elems, depth, cand):
        """Assign gens[depth] -> cand and close; returns new state or None."""
        h = gens[depth]
        img2 = img[:]
        used2 = bytearray(used)
        elems2 = elems[:]
        if used2[cand]:
            return None
        img2[h] = cand
        used2[cand] = 1
        elems2.append(h)
        active = tgens[: len(base_gens) + depth + 1]
        queue = [h]
        # products of old elements with the new generator
        for x in elems:
            v = table[x][h]
            w = table[img2[x]][cand]
            iv = img2[v]
            if iv == -1:
                if used2[w]:
                    return None
                img2[v] = w
                used2[w] = 1
                elems2.append(v)
                queue.append(v)
            elif iv != w:
                return None
        # close the new elements against every active generator
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            iu = img2[u]
            for t in active:
                v = table[u][t]
                w = table[iu][img2[t]]
                iv = img2[v]
                if iv == -1:
                    if used2[w]:
                        return None
                    img2[v] = w
                    used2[w] = 1
                    elems2.append(v)
                    queue.append(v)
                elif iv != w:
                    return None
        return img2, used2, elems2

    def dfs(img, used, elems, depth):
        if depth == len(gens):
            if len(elems) != n:
                raise InvariantError(f"generator images reach {len(elems)} of {n} elements")
            results.append(tuple(img))
            return
        for cand in pools[depth]:
            state = extend(img, used, elems, depth, cand)
            if state is not None:
                dfs(state[0], state[1], state[2], depth + 1)

    dfs(img0, used0, base_members[:], 0)
    results.sort()
    return results


def automorphism_group(g: FiniteGroup, bound: int | None = None) -> AutSet:
    """All automorphisms of g, by backtracking over generator images."""
    _check_bound(g, bound)

    def compute():
        found = _search(g, g.full_subgroup(), g.trivial_subgroup())
        return AutSet(g, (Automorphism(t) for t in found), FULL)

    return g._memo("aut_full", compute)


def inner_automorphisms(g: FiniteGroup) -> AutSet:
    """Conjugation maps; there are |G| / |Z(G)| of them."""
    def compute():
        members = {
            Automorphism(tuple(g.conjugate(a, x) for x in range(g.n)))
            for a in range(g.n)
        }
        s = AutSet(g, members, INN)
        if len(s) * g.center().order != g.n:
            raise InvariantError(f"{len(s)} inner automorphisms for |Z(G)| = {g.center().order}")
        return s

    return g._memo("aut_inn", compute)


def _require_normal(s: Subgroup, role: str) -> None:
    if not s.is_normal():
        raise NotNormalError(f"{role} subgroup of order {s.order} is not normal")


def aut_upper_lower(
    g: FiniteGroup, x: Subgroup, y: Subgroup, bound: int | None = None
) -> AutSet:
    """Aut^X_Y(G): automorphisms alpha with g^-1 alpha(g) in X for every
    g (those centralizing G/X) that fix Y elementwise, searched directly."""
    _require_normal(x, "upper")
    _require_normal(y, "lower")
    _check_bound(g, bound)
    return AutSet(g, (Automorphism(t) for t in _search(g, x, y)), UPPER_LOWER_XY)


def distinguished(g: FiniteGroup, which: str, bound: int | None = None) -> AutSet:
    """One of the four distinguished subgroups, filtered out of the full
    automorphism group (one enumeration path to trust).

    CENTRAL: g^-1 a(g) in Z(G) everywhere.  C_STAR: central and fixing
    Z(G) pointwise.  IA: g^-1 a(g) in G' everywhere.  IA_STAR: IA and
    fixing Z(G) pointwise.
    """
    if which not in DISTINGUISHED_TAGS:
        raise ValueError(f"unknown distinguished tag {which!r}")
    _check_bound(g, bound)
    key = ("aut_distinguished", which)

    def compute():
        full = automorphism_group(g, bound=bound)
        z = g.center().members
        dsub = g.derived_subgroup().members
        target = z if which in (CENTRAL, C_STAR) else dsub
        table = g.table
        inv = [g.inv(a) for a in range(g.n)]
        members = []
        for a in full.members:
            im = a.images
            if all(table[inv[x]][im[x]] in target for x in range(g.n)):
                if which in (C_STAR, IA_STAR) and not all(im[x] == x for x in z):
                    continue
                members.append(a)
        return AutSet(g, members, which)

    return g._memo(key, compute)


def hom_automorphism_pairs(
    g: FiniteGroup, x: Subgroup, y: Subgroup
) -> list[tuple[tuple[int, ...], Automorphism]]:
    """The correspondence behind ``hom_construct_auts``.

    Every homomorphism f from G/Y into the central subgroup X <= Y is
    enumerated through the abelianization of G/Y; it is returned as the
    tuple of images (elements of X, as parent indices) of a fixed basis
    of that abelianization, paired with the automorphism
    alpha_f(g) = g * f(gY).  Componentwise product of the image tuples
    is the Hom-group operation.
    """
    if not x.is_central():
        raise HypothesisViolationError("X must be central in G")
    if not x.members <= y.members:
        raise HypothesisViolationError("X must be contained in Y")
    if not y.is_normal():
        raise HypothesisViolationError("Y must be normal")
    q = g.quotient(y)
    qab = q.group.quotient(q.group.derived_subgroup())
    a = qab.group
    basis = a.abelian_basis()

    # coordinates of every abelianized-quotient element in that basis
    coords = {}
    for vec in iproduct(*(range(o) for _, o in basis)):
        elem = 0
        for (b, _), k in zip(basis, vec):
            elem = a.mul(elem, a.power(b, k))
        coords[elem] = vec
    if len(coords) != a.n:
        raise InvariantError(f"basis coordinates reach {len(coords)} of {a.n} elements")

    to_ab = [qab.projection[q.projection[gg]] for gg in range(g.n)]
    orders = g.element_orders()
    cand_lists = [[e for e in x.sorted_members if o % orders[e] == 0] for _, o in basis]
    pairs: list[tuple[tuple[int, ...], Automorphism]] = []
    for choice in iproduct(*cand_lists):
        f_val = {}
        for elem, vec in coords.items():
            v = 0
            for e, k in zip(choice, vec):
                v = g.mul(v, g.power(e, k))
            f_val[elem] = v
        images = tuple(g.mul(gg, f_val[to_ab[gg]]) for gg in range(g.n))
        pairs.append((tuple(choice), Automorphism(images)))
    return pairs


def hom_construct_auts(g: FiniteGroup, x: Subgroup, y: Subgroup) -> AutSet:
    """Aut^X_Y(G) built constructively from Hom(G/Y, X), for X a central
    subgroup contained in the normal subgroup Y.

    The result always coincides with the brute-force
    ``aut_upper_lower(g, x, y)``, and its size is the Hom-group order of
    the corresponding partitions.
    """
    pairs = hom_automorphism_pairs(g, x, y)
    return AutSet(g, (a for _, a in pairs), UPPER_LOWER_XY)


def autset_equal(s1: AutSet, s2: AutSet) -> bool:
    """Set equality of members; the parents must be the same group."""
    if s1.parent is not s2.parent and s1.parent.table != s2.parent.table:
        raise ParentMismatchError("automorphism sets over different groups")
    return s1.members == s2.members
