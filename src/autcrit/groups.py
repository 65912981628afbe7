"""Concrete finite groups as validated Cayley tables.

Groups here are small (a few hundred elements at most for structural
work), so the representation is the full n x n multiplication table with
the identity normalised to index 0.  That buys O(1) products, trivial
serialisation, and whole-table validation that proves associativity by
Light's test on a generating set; everything structural (center, derived
subgroup, quotients, subgroup lattice, abelian invariants) is computed by
direct scans and closures over the table.

All public objects are immutable after construction; derived data is
memoised in a private cache, so instances are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .abelian import PPartition
from .errors import (
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

DEFAULT_INGEST_BOUND = 10_000
DEFAULT_SUBGROUP_ENUM_BOUND = 128


def prime_power_order(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p**m for n >= 2; None for n = 1.

    Raises NotPGroupError when n is not a prime power.
    """
    if n == 1:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    m = 0
    q = n
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise NotPGroupError(f"order {n} is not a prime power")
    return p, m


class FiniteGroup:
    """A finite group given by its Cayley table (element 0 is the identity)."""

    __slots__ = ("n", "table", "_inv", "_cache")

    def __init__(self, table):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        self.n = len(rows)
        self.table = rows
        self._cache: dict = {}
        _validate_table(rows)
        inv = [0] * self.n
        for a in range(self.n):
            inv[a] = rows[a].index(0)
        self._inv = tuple(inv)

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        """Validate an arbitrary Cayley table, relocating the identity to
        index 0 if needed."""
        rows = [list(row) for row in table]
        n = len(rows)
        e = _find_identity(rows)
        if e is None:
            raise NoIdentityError("table has no two-sided identity")
        if e != 0:
            swap = list(range(n))
            swap[0], swap[e] = e, 0
            # swap is an involution, so it is its own inverse relabelling
            rows = [[swap[rows[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
        return cls(rows)

    @classmethod
    def from_permutation_generators(
        cls, gens, degree: int | None = None, bound: int = DEFAULT_INGEST_BOUND
    ) -> "FiniteGroup":
        """Close a set of permutations (0-based image tuples) under
        composition and return the resulting group.

        The empty generator list gives the trivial group (degree may be
        supplied to fix the domain, otherwise 1 is used).
        """
        gens = [tuple(g) for g in gens]
        if degree is None:
            degree = len(gens[0]) if gens else 1
        identity = tuple(range(degree))
        for g in gens:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise InvalidPermutationError(f"{g} is not a permutation of 0..{degree - 1}")
        elems: list[tuple[int, ...]] = [identity]
        index = {identity: 0}
        i = 0
        while i < len(elems):
            u = elems[i]
            i += 1
            for g in gens:
                v = tuple(u[g[x]] for x in range(degree))
                if v not in index:
                    if len(elems) >= bound:
                        raise OrderBoundExceededError(
                            f"closure exceeds bound {bound}"
                        )
                    index[v] = len(elems)
                    elems.append(v)
        table = [
            [index[tuple(a[b[x]] for x in range(degree))] for b in elems] for a in elems
        ]
        return cls(table)

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        t = self.table
        return t[t[g][x]][self._inv[g]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        r = 0
        t = self.table
        while k:
            if k & 1:
                r = t[r][a]
            a = t[a][a]
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        return self.element_orders()[a]

    def element_orders(self) -> tuple[int, ...]:
        def compute():
            t = self.table
            orders = [0] * self.n
            for a in range(self.n):
                x = a
                k = 1
                while x != 0:
                    x = t[x][a]
                    k += 1
                orders[a] = k
            return tuple(orders)

        return self._memo("orders", compute)

    def centralizer_orders(self) -> tuple[int, ...]:
        def compute():
            t = self.table
            return tuple(
                sum(1 for b in range(self.n) if t[a][b] == t[b][a]) for a in range(self.n)
            )

        return self._memo("centralizer_orders", compute)

    def exponent(self) -> int:
        """lcm of the element orders."""
        e = 1
        for k in set(self.element_orders()):
            e = e * k // gcd(e, k)
        return e

    def is_abelian(self) -> bool:
        def compute():
            t = self.table
            return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

        return self._memo("abelian", compute)

    def prime_power(self) -> tuple[int, int] | None:
        """(p, m) for a p-group of order p**m >= 2, None for the trivial group."""
        return prime_power_order(self.n)

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.n})"

    # -- subgroups ---------------------------------------------------------

    def closure(self, seed) -> frozenset[int]:
        """Subgroup generated by ``seed``: identity plus all products of
        seed elements (inverses come for free in a finite group)."""
        t = self.table
        seed = [s for s in seed if s != 0]
        members = {0}
        members.update(seed)
        work = list(members)
        while work:
            u = work.pop()
            for g in seed:
                v = t[u][g]
                if v not in members:
                    members.add(v)
                    work.append(v)
        return frozenset(members)

    def subgroup(self, members) -> "Subgroup":
        """Wrap an element set as a Subgroup, verifying closure."""
        ms = frozenset(int(x) for x in members) | {0}
        t = self.table
        for a in ms:
            for b in ms:
                if t[a][b] not in ms:
                    raise NotASubgroupError(
                        f"set of size {len(ms)} not closed: {a}*{b} escapes"
                    )
        return Subgroup(self, ms)

    def generated_subgroup(self, seed) -> "Subgroup":
        return Subgroup(self, self.closure(seed))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset({0}))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(range(self.n)))

    def center(self) -> "Subgroup":
        def compute():
            t = self.table
            zs = frozenset(
                a for a in range(self.n)
                if all(t[a][b] == t[b][a] for b in range(self.n))
            )
            s = Subgroup(self, zs)
            s._cache["normal"] = True
            s._cache["central"] = True
            return s

        return self._memo("center", compute)

    def derived_subgroup(self) -> "Subgroup":
        def compute():
            s = self.commutator_with(self.full_subgroup())
            s._cache["normal"] = True
            return s

        return self._memo("derived", compute)

    def commutator_with(self, h: "Subgroup") -> "Subgroup":
        """[G, H]: closure of all commutators [g, h]."""
        t = self.table
        inv = self._inv
        comms = set()
        for a in range(self.n):
            ia = inv[a]
            for b in h.members:
                comms.add(t[t[ia][inv[b]]][t[a][b]])
        return Subgroup(self, self.closure(comms))

    def agemo(self) -> "Subgroup":
        """Subgroup generated by the p-th powers (p-groups only)."""
        pp = self.prime_power()
        if pp is None:
            return self.trivial_subgroup()
        p = pp[0]
        return Subgroup(self, self.closure({self.power(a, p) for a in range(self.n)}))

    def frattini_subgroup(self) -> "Subgroup":
        """Phi(G) = G' * <g^p> for a p-group (Burnside)."""
        def compute():
            return subgroup_product(self.derived_subgroup(), self.agemo())

        return self._memo("frattini", compute)

    def burnside_rank(self) -> int:
        """Minimal number of generators d(G), via the rank of the
        elementary abelian quotient G/Phi(G)."""
        if self.n == 1:
            return 0
        p, _ = self.prime_power()
        q = self.quotient(self.frattini_subgroup()).group
        pp = prime_power_order(q.n)
        return pp[1] if pp else 0

    def greedy_generators(self, pool, start=frozenset()) -> tuple[int, ...]:
        """Elements of ``pool`` that, with ``start``, generate <start, pool>.

        Walks ``pool`` with larger element orders first and keeps each
        element the kept ones and ``start`` do not yet generate."""
        orders = self.element_orders()
        gens: list[int] = []
        reach = self.closure(start)
        for a in sorted(pool, key=lambda a: (-orders[a], a)):
            if a not in reach:
                gens.append(a)
                reach = self.closure(set(start) | set(gens))
        return tuple(gens)

    def generating_sequence(self, start=frozenset()) -> tuple[int, ...]:
        """A small sequence generating G together with ``start``, elements
        of larger order first.

        For p-groups the Frattini argument makes the greedy choice
        minimal (d(G) generators when ``start`` is trivial)."""
        start = frozenset(start) | {0}

        def compute():
            try:
                phi = self.frattini_subgroup().members if self.prime_power() else {0}
            except NotPGroupError:
                phi = {0}
            return self.greedy_generators(range(self.n), start | phi)

        return self._memo(("gens", start), compute)

    # -- quotients and invariants -------------------------------------------

    def quotient(self, kernel: "Subgroup") -> "Quotient":
        if kernel.parent is not self:
            raise ValueError("kernel belongs to a different group")
        if not kernel.is_normal():
            raise NotNormalError(f"subgroup of order {kernel.order} is not normal")
        key = ("quotient", kernel.members)

        def compute():
            t = self.table
            proj = [-1] * self.n
            reps: list[int] = []
            for a in range(self.n):
                if proj[a] >= 0:
                    continue
                c = len(reps)
                reps.append(a)
                for k in kernel.members:
                    proj[t[a][k]] = c
            m = len(reps)
            qtable = [[proj[t[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
            return Quotient(self, kernel, FiniteGroup(qtable), tuple(proj))

        return self._memo(key, compute)

    def abelian_partition(self, p: int | None = None) -> PPartition:
        """Cyclic decomposition of an abelian p-group, recovered from the
        counts of solutions of x**(p**k) = e.

        The count at k is p ** sum_i min(k, lambda_i); successive
        log-differences give the conjugate partition.
        """
        def compute():
            if not self.is_abelian():
                raise NotAbelianError("abelian_partition needs an abelian group")
            pp = self.prime_power()
            if pp is None:
                if p is None:
                    raise NotPGroupError("trivial group: supply the ambient prime")
                return PPartition(p, ())
            q, m = pp
            if p is not None and p != q:
                raise NotPGroupError(f"group has order {q}**{m}, not a {p}-group")
            orders = self.element_orders()
            logs = []  # log_q of the number of elements of order <= q**k
            for k in range(m + 1):
                count = sum(1 for o in orders if o <= q**k)
                s = 0
                while q**s < count:
                    s += 1
                logs.append(s)
            conj = [logs[k] - logs[k - 1] for k in range(1, m + 1)]
            exps = tuple(sum(1 for d in conj if d >= i) for i in range(1, max(conj) + 1))
            part = PPartition(q, exps)
            if part.order != self.n:
                raise InvariantError(f"partition {part} does not have order {self.n}")
            return part

        return self._memo(("partition", p), compute)

    def abelian_basis(self) -> list[tuple[int, int]]:
        """Independent cyclic generators of an abelian p-group, as
        (element, order) pairs with non-increasing orders.

        A maximal-order element spans a direct summand; the remaining
        generators are lifted from the quotient, choosing coset
        representatives of the same order.
        """
        if not self.is_abelian():
            raise NotAbelianError("abelian_basis needs an abelian group")
        if self.n == 1:
            return []
        self.prime_power()
        orders = self.element_orders()
        g = min(range(self.n), key=lambda a: (-orders[a], a))
        q = self.quotient(self.generated_subgroup([g]))
        basis = [(g, orders[g])]
        for qb, qord in q.group.abelian_basis():
            lift = min(
                x for x in range(self.n)
                if q.projection[x] == qb and orders[x] == qord
            )
            basis.append((lift, qord))
        total = 1
        for _, o in basis:
            total *= o
        if total != self.n:
            raise InvariantError(f"basis orders multiply to {total}, not {self.n}")
        return basis

    def nilpotence_class(self) -> int:
        """Length of the lower central series down to the trivial group."""
        def compute():
            if self.n == 1:
                return 0
            current = self.full_subgroup()
            cls = 0
            while current.order > 1:
                nxt = self.commutator_with(current)
                if nxt.members == current.members:
                    raise NotNilpotentError("lower central series stabilises above 1")
                current = nxt
                cls += 1
            return cls

        return self._memo("class", compute)

    def is_purely_nonabelian(self) -> tuple[bool, tuple["Subgroup", "Subgroup"] | None]:
        """Whether G has no nontrivial abelian direct factor.

        Returns (False, (A, B)) with an internal direct decomposition
        G = A x B, A nontrivial abelian, when one exists.  Any abelian
        direct factor is central and its complement contains G', so the
        search runs over subgroups A of Z(G) and over preimages B of
        subgroups of G/G'.
        """
        def compute():
            if self.n == 1:
                return (True, None)
            if self.is_abelian():
                return (False, (self.full_subgroup(), self.trivial_subgroup()))
            z = self.center()
            zg, zmap = z.as_group()
            dquot = self.quotient(self.derived_subgroup())
            comp_cands = []
            for s in dquot.group.all_subgroups():
                members = frozenset(
                    x for x in range(self.n) if dquot.projection[x] in s.members
                )
                comp_cands.append(Subgroup(self, members))
            for a_small in zg.all_subgroups():
                if a_small.order == 1:
                    continue
                a = Subgroup(self, frozenset(zmap[i] for i in a_small.members))
                for b in comp_cands:
                    if a.order * b.order == self.n and len(a.members & b.members) == 1:
                        return (False, (a, b))
            return (True, None)

        return self._memo("purely_nonabelian", compute)

    def _check_subgroup_bound(self, bound: int) -> None:
        # checked before the memo lookup, so a cached lattice never bypasses it
        if self.n > bound:
            raise OrderBoundExceededError(
                f"subgroup enumeration bound {bound} exceeded (order {self.n})"
            )

    def all_subgroups(self, bound: int = DEFAULT_SUBGROUP_ENUM_BOUND) -> list["Subgroup"]:
        """Every subgroup, by closure of growing generator sets.

        Deterministic order: by (order, sorted member tuple).
        """
        self._check_subgroup_bound(bound)

        def compute():
            seen: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
            work = [(frozenset({0}), ())]
            while work:
                members, gens = work.pop()
                for g in range(1, self.n):
                    if g in members:
                        continue
                    new_gens = gens + (g,)
                    new_members = self.closure(new_gens)
                    if new_members not in seen:
                        seen[new_members] = new_gens
                        work.append((new_members, new_gens))
            subs = [Subgroup(self, ms) for ms in seen]
            subs.sort(key=lambda s: (s.order, s.sorted_members))
            return subs

        return self._memo("all_subgroups", compute)

    def normal_subgroups(self, bound: int = DEFAULT_SUBGROUP_ENUM_BOUND) -> list["Subgroup"]:
        self._check_subgroup_bound(bound)

        def compute():
            return [s for s in self.all_subgroups(bound) if s.is_normal()]

        return self._memo("normal_subgroups", compute)

    def to_cayley_text(self) -> str:
        lines = [f"cayley {self.n}"]
        lines.extend(" ".join(str(x) for x in row) for row in self.table)
        return "\n".join(lines) + "\n"


class Subgroup:
    """Subset of a parent group's element indices, closed under products."""

    __slots__ = ("parent", "members", "sorted_members", "_cache")

    def __init__(self, parent: FiniteGroup, members: frozenset[int]):
        self.parent = parent
        self.members = members
        self.sorted_members = tuple(sorted(members))
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __le__(self, other: "Subgroup") -> bool:
        return self.members <= other.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.sorted_members})"

    def is_normal(self) -> bool:
        def compute():
            g = self.parent
            return all(
                g.conjugate(a, x) in self.members
                for a in range(g.n)
                for x in self.sorted_members
            )

        if "normal" not in self._cache:
            self._cache["normal"] = compute()
        return self._cache["normal"]

    def is_central(self) -> bool:
        if "central" not in self._cache:
            self._cache["central"] = self.members <= self.parent.center().members
        return self._cache["central"]

    def generators(self) -> tuple[int, ...]:
        """Small generating set for this subgroup (greedy, larger orders
        first)."""
        if "gens" not in self._cache:
            self._cache["gens"] = self.parent.greedy_generators(self.sorted_members)
        return self._cache["gens"]

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """This subgroup as a standalone FiniteGroup, plus the map from
        its element indices back to parent indices."""
        def compute():
            elems = self.sorted_members
            pos = {e: i for i, e in enumerate(elems)}
            t = self.parent.table
            table = [[pos[t[a][b]] for b in elems] for a in elems]
            return FiniteGroup(table), elems

        if "as_group" not in self._cache:
            self._cache["as_group"] = compute()
        return self._cache["as_group"]

    def partition(self, p: int | None = None) -> PPartition:
        """Abelian invariants of this subgroup (must be abelian)."""
        if p is None:
            pp = self.parent.prime_power()
            p = pp[0] if pp else None
        g, _ = self.as_group()
        return g.abelian_partition(p)


def subgroup_product(h: Subgroup, k: Subgroup) -> Subgroup:
    """The set product HK, valid when at least one factor is normal.

    If neither factor is known normal the product set is still returned
    when it happens to be closed, otherwise NotASubgroupError is raised.
    """
    if h.parent is not k.parent:
        raise ValueError("subgroup product across different parent groups")
    g = h.parent
    t = g.table
    prod = frozenset(t[a][b] for a in h.members for b in k.members)
    if not (h.is_normal() or k.is_normal()):
        for a in prod:
            for b in prod:
                if t[a][b] not in prod:
                    raise NotASubgroupError("HK is not a subgroup (neither factor normal)")
    return Subgroup(g, prod)


@dataclass(frozen=True)
class Quotient:
    """A quotient group with its projection map.

    ``projection[x]`` is the index in ``group`` of the coset of x; the
    identity coset sits at index 0.
    """

    base: FiniteGroup
    kernel: Subgroup
    group: FiniteGroup
    projection: tuple[int, ...]

    def __post_init__(self):
        if not (self.group.n * self.kernel.order == self.base.n
                and all(self.projection[x] == 0 for x in self.kernel.members)
                and self.projection.count(0) == self.kernel.order):
            raise InvariantError("quotient order or projection does not match the kernel")


def _find_identity(rows) -> int | None:
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            return e
    return None


def _validate_table(rows: tuple[tuple[int, ...], ...]) -> None:
    """Check that a Cayley table is a group with identity 0.

    Associativity is Light's test: the g with (x*g)*y = x*(g*y) for all x, y
    are closed under the product, so checking a generating set is enough.
    Before associativity is known, "generates" must mean closure under the
    raw binary product (all bracketings), grown by full pairwise products."""
    n = len(rows)
    if n == 0:
        raise NoIdentityError("empty table")
    arr = np.array(rows, dtype=np.int64)
    if arr.shape != (n, n) or arr.min() < 0 or arr.max() >= n:
        raise NotLatinSquareError("table is not n x n over 0..n-1")
    ident = np.arange(n)
    if not (np.array_equal(np.sort(arr, axis=1), np.tile(ident, (n, 1)))
            and np.array_equal(np.sort(arr, axis=0), np.tile(ident[:, None], (1, n)))):
        raise NotLatinSquareError("a row or column is not a permutation")
    if not (np.array_equal(arr[0], ident) and np.array_equal(arr[:, 0], ident)):
        raise NoIdentityError("element 0 is not a two-sided identity")
    gens: list[int] = []
    closure = {0}
    while len(closure) < n:
        gens.append(min(x for x in range(n) if x not in closure))
        closure.add(gens[-1])
        while True:
            prods = {rows[a][b] for a in closure for b in closure}
            if prods <= closure:
                break
            closure |= prods
    for g in gens:
        if not np.array_equal(arr[arr[:, g], :], arr[:, arr[g, :]]):
            raise NotAssociativeError(f"associativity fails through generator {g}")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   bound: int = DEFAULT_INGEST_BOUND) -> FiniteGroup:
    """Componentwise product; element (a, b) is indexed a * |H| + b."""
    n = g.n * h.n
    if n > bound:
        raise OrderBoundExceededError(f"product order {n} exceeds bound {bound}")
    gt, ht = g.table, h.table
    table = [
        [gt[a1][a2] * h.n + ht[b1][b2] for a2 in range(g.n) for b2 in range(h.n)]
        for a1 in range(g.n)
        for b1 in range(h.n)
    ]
    return FiniteGroup(table)
