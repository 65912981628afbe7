"""Concrete finite groups as validated Cayley tables.

Groups here are small (a few hundred elements at most for structural
work), so the representation is the full n x n multiplication table with
the identity normalised to index 0.  That buys O(1) products, trivial
serialisation, and whole-table validation that proves associativity by
Light's test on a generating set, picked by one greedy walk of right
products whatever built the table; everything structural (center, derived
subgroup, quotients, a p-group's normal lattice by index-p covers) is
computed by scans and closures over the table, and the abelian invariants
of a section H/K are counted on the parent's table, with no quotient or
copy built to read them (``section_partition``).  The one quotient a
summary builds is G/G': the abelian-factor test reads its powers, and
the sections G/G'N are counted on it.  One walk grows every
subgroup: ``FiniteGroup.join`` adds a left coset of the subgroup so far
for each new product of a generator and a coset representative, and
closure, greedy generator choice and the lattice all call it.
Permutation generators become a table through their Cayley graph,
composed by one itemgetter per generator.

All public objects are immutable after construction; derived data is
memoised in a private cache, so instances are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index, itemgetter

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
_MISSING = object()  # a memo miss; a cached value may be None


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
        arr, rows = _validate_table(_square(table))
        self.n = len(rows)
        self.table = tuple(map(tuple, rows))
        self._cache: dict = {}
        self._inv = tuple(arr.argmin(1).tolist())  # each row holds 0 once

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        """Validate an arbitrary Cayley table whose identity, if not 0,
        trades labels with element 0; every other element keeps its own."""
        arr = _square(table)
        ar = np.arange(len(arr))
        # an identity e has e*0 = 0, so only those rows are candidates
        e = next((int(r) for r in np.flatnonzero(arr[:, 0] == 0)
                  if (arr[r] == ar).all() and (arr[:, r] == ar).all()), None)
        if e is None:
            raise NoIdentityError("table has no two-sided identity")
        if e:
            # relabel by the swap of 0 and e: rows, then columns, then
            # entries; entries outside 0..n-1 stay for validation to refuse
            arr = arr.copy()
            arr[[0, e]] = arr[[e, 0]]
            arr[:, [0, e]] = arr[:, [e, 0]]
            zeros, es = arr == 0, arr == e
            arr[zeros], arr[es] = e, 0
        return cls(arr)

    @classmethod
    def from_permutation_generators(cls, gens, degree: int | None = None) -> "FiniteGroup":
        """Close a set of permutations (0-based image tuples) under
        composition and return the resulting group.

        Elements are numbered breadth-first from the identity and a*b is
        a(b(x)).  The closure composes through one itemgetter per
        generator, records u -> u*g_k for every generator and the edge
        j = parent(j)*g_k that first reached j; as a*j = (a*parent(j))*g_k,
        column j is column parent(j) read through g_k's map.  Cost
        O(n*|gens|*degree + n**2), not O(n**2*degree).

        The empty generator list gives the trivial group (degree may be
        supplied to fix the domain, otherwise 1 is used).  An entry that
        is not an integer, or a generator that is not a sequence, raises
        InvalidPermutationError.  A closure past DEFAULT_INGEST_BOUND
        raises OrderBoundExceededError."""
        try:
            gens = [tuple(g) for g in gens]
        except TypeError as exc:  # a generator that is not a sequence of points
            raise InvalidPermutationError(f"a generator is not a sequence: {exc}") from None
        if degree is None:
            degree = len(gens[0]) if gens else 1
        identity = tuple(range(degree))
        for g in gens:
            try:
                ok = len(g) == degree and sorted(map(index, g)) == list(identity)
            except TypeError:  # a point that is not an integer
                ok = False
            if not ok:
                raise InvalidPermutationError(f"{g} is not a permutation of 0..{degree - 1}")
        if degree < 2:
            # the only permutation is the identity, and itemgetter needs two
            # indices to return a tuple
            return cls([[0]])
        steps = [itemgetter(*g) for g in gens]
        elems: list[tuple[int, ...]] = [identity]
        index_of = {identity: 0}
        right: list[list[int]] = [[] for _ in gens]
        edge = [(0, 0)]
        for i, u in enumerate(elems):  # elems grows while it is walked
            for k, step in enumerate(steps):
                v = step(u)
                j = index_of.get(v)
                if j is None:
                    if len(elems) >= DEFAULT_INGEST_BOUND:
                        raise OrderBoundExceededError(
                            f"closure exceeds bound {DEFAULT_INGEST_BOUND}")
                    j = index_of[v] = len(elems)
                    elems.append(v)
                    edge.append((i, k))
                right[k].append(j)
        n = len(elems)
        # int32 halves the transient n x n array at the ingest bound
        rmul = np.array(right, dtype=np.int32)
        cols = np.empty((n, n), dtype=np.int32)
        cols[0] = np.arange(n)
        for j in range(1, n):
            parent, k = edge[j]
            cols[j] = rmul[k, cols[parent]]
        return cls(cols.T)

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
            # one walk a, a^2, ..., a^m = 1 finds m; a second sets order(a^j) = m / gcd(j, m)
            t, orders = self.table, [1] + [0] * (self.n - 1)
            for a in range(1, self.n):
                if not orders[a]:
                    row, x, m = t[a], a, 1
                    while x:
                        x, m = row[x], m + 1
                    for j in range(1, m):
                        orders[x := row[x]] = m // gcd(j, m)
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
        return self.center().order == self.n

    def prime_power(self) -> tuple[int, int] | None:
        """(p, m) for a p-group of order p**m >= 2, None for the trivial group."""
        return self._memo("prime_power", lambda: prime_power_order(self.n))

    def _powers(self, p: int) -> tuple[int, ...]:
        """x**p for every element x, memoised."""
        return self._memo(("powers", p), lambda: tuple(self.power(x, p) for x in range(self.n)))

    def _memo(self, key, fn):
        """The cached value for ``key``, computed by ``fn`` on first use; an
        exception from ``fn`` propagates and caches nothing."""
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = fn()
        return value

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.n})"

    # -- subgroups ---------------------------------------------------------

    def join(self, members, gens) -> frozenset[int]:
        """<H, gens> for the subgroup H = ``members``, grown one left coset
        vH at a time, for each new product v = s*r of an s in ``gens`` and
        a coset representative r.

        The walk ends with <gens>H, which is the join only when ``gens``
        and H generate it and ``gens`` includes H's generators unless H
        is normal."""
        t = self.table
        gens = [s for s in gens if s != 0]
        reach = set(members)
        coset = itemgetter(0, *reach)  # row v -> vH, a tuple even for H = {0}
        reps = [0]  # H itself
        for r in reps:  # grows while it is walked
            for s in gens:
                v = t[s][r]
                if v not in reach:  # a new coset vH
                    reach.update(coset(t[v]))
                    reps.append(v)
        return frozenset(reach)

    def closure(self, seed) -> frozenset[int]:
        """Subgroup generated by ``seed``: its join with {0}."""
        return self.join((0,), seed)

    def subgroup(self, members) -> "Subgroup":
        """Wrap an element set as a Subgroup, verifying indices and closure."""
        ms = frozenset(int(x) for x in members) | {0}
        bad = [x for x in ms if not 0 <= x < self.n]
        if bad:
            raise NotASubgroupError(f"index {min(bad)} outside 0..{self.n - 1}")
        if self.closure(ms) != ms:
            raise NotASubgroupError(f"set of size {len(ms)} is not closed")
        return Subgroup(self, ms)

    def generated_subgroup(self, seed) -> "Subgroup":
        return Subgroup(self, self.closure(seed))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset({0}))

    def full_subgroup(self) -> "Subgroup":
        return self._memo("full", lambda: Subgroup(self, frozenset(range(self.n))))

    def center(self) -> "Subgroup":
        """Z(G): the elements that commute with each of G's generators."""
        def compute():
            t, gens = self.table, self.full_subgroup().generators()
            s = Subgroup(self, frozenset(
                a for a in range(self.n) if all(t[a][b] == t[b][a] for b in gens)))
            s._cache["normal"] = True
            return s

        return self._memo("center", compute)

    def derived_subgroup(self) -> "Subgroup":
        return self._memo("derived", lambda: self.commutator_with(self.full_subgroup()))

    def commutator_with(self, h: "Subgroup") -> "Subgroup":
        """[G, H] for normal H: the normal closure of the commutators [a, b]
        of G's generators a and H's generators b.  Their conjugates by G's
        generators are added until nothing is new, so the closure is normal
        and is marked so."""
        t, inv = self.table, self._inv
        gens = self.full_subgroup().generators()
        comms = new = {t[t[inv[a]][inv[b]]][t[a][b]] for a in gens for b in h.generators()}
        while new:
            new = {t[t[a][x]][inv[a]] for a in gens for x in new} - comms
            comms |= new
        s = Subgroup(self, self.closure(comms))
        s._cache["normal"] = True
        return s

    def agemo(self) -> "Subgroup":
        """Subgroup generated by the p-th powers (p-groups only)."""
        pp = self.prime_power()
        if pp is None:
            return self.trivial_subgroup()
        return Subgroup(self, self.closure(set(self._powers(pp[0]))))

    def frattini_subgroup(self) -> "Subgroup":
        """Phi(G) = G' * <g^p> for a p-group (Burnside)."""
        def compute():
            return subgroup_product(self.derived_subgroup(), self.agemo())

        return self._memo("frattini", compute)

    def burnside_rank(self) -> int:
        """Minimal number of generators d(G) = log_p |G/Phi(G)|, by
        Burnside's basis theorem."""
        if self.n == 1:
            return 0
        self.prime_power()  # refuses a non-p-group
        pp = prime_power_order(self.n // self.frattini_subgroup().order)
        return pp[1] if pp else 0

    def greedy_generators(self, pool, start=frozenset()) -> tuple[int, ...]:
        """Elements of ``pool`` that, with ``start``, generate <start, pool>.

        Walks ``pool`` with larger element orders first and keeps each
        element the kept ones and ``start`` do not yet generate.  Keeping
        a grows the reach R to <R, a> by ``join``."""
        orders = self.element_orders()
        gens: list[int] = []
        mults = [s for s in start if s != 0]  # start and the kept elements
        reach = self.closure(mults)
        for a in sorted(pool, key=lambda a: (-orders[a], a)):
            if a not in reach:
                gens.append(a)
                mults.append(a)
                reach = self.join(reach, mults)
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
            return self.greedy_generators(range(self.n), self.greedy_generators(start | phi))

        return self._memo(("gens", start), compute)

    # -- quotients and invariants -------------------------------------------

    def quotient(self, kernel: "Subgroup") -> "Quotient":
        if kernel.parent is not self:
            raise ValueError("kernel belongs to a different group")
        key = ("quotient", kernel.members)

        def compute():
            # a cached key already proves its members normal
            if not kernel.is_normal():
                raise NotNormalError(f"subgroup of order {kernel.order} is not normal")
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
            qtable = [[proj[t[a][b]] for b in reps] for a in reps]
            return Quotient(self, kernel, FiniteGroup(qtable), tuple(proj))

        return self._memo(key, compute)

    def section_partition(self, h: "Subgroup", k: "Subgroup", p: int | None = None) -> PPartition:
        """Cyclic decomposition of the abelian p-group H/K, for K <= H normal
        in H, counted on this group's table: no quotient is built.

        H/K is abelian iff [a, b] lies in K for every pair of H's
        generators.  The number of x in H with x**(p**j) in K is
        |K| * p ** sum_i min(j, lambda_i); successive log-differences give
        the conjugate partition.  A trivial section needs ``p``."""
        t, inv, kms = self.table, self._inv, k.members
        gens = h.generators()
        if any(t[t[inv[a]][inv[b]]][t[a][b]] not in kms for a in gens for b in gens):
            raise NotAbelianError("the section is not abelian")
        pp = prime_power_order(h.order // k.order)
        if pp is None:
            if p is None:
                raise NotPGroupError("trivial section: supply the ambient prime")
            return PPartition(p, ())
        q, m = pp
        if p is not None and p != q:
            raise NotPGroupError(f"section has order {q}**{m}, not a {p}-group")
        powers = self._powers(q)
        first = [0] * (m + 1)  # first[j]: the x in H with x**(q**j) in K but no lower power
        for x in h.members:
            j = 0
            while x not in kms:
                x, j = powers[x], j + 1
            first[j] += 1
        # log_q of the count at j over |K|: 0 at j = 0, where the count is
        # |K|; the counts grow with j, so one running sum and one rising s
        logs, count, s = [0], first[0], 0
        for j in range(1, m + 1):
            count += first[j]
            while q**s < count // k.order:
                s += 1
            logs.append(s)
        conj = [b - a for a, b in zip(logs, logs[1:])]
        exps = tuple(sum(1 for d in conj if d >= i) for i in range(1, max(conj) + 1))
        part = PPartition(q, exps)
        if part.order * k.order != h.order:
            raise InvariantError(f"partition {part} does not have order {h.order // k.order}")
        return part

    def abelian_partition(self, p: int | None = None) -> PPartition:
        """Cyclic decomposition of an abelian p-group: its section G/1."""
        return self._memo(("partition", p), lambda: self.section_partition(
            self.full_subgroup(), self.trivial_subgroup(), p))

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

    def is_purely_nonabelian(self) -> bool:
        """Whether G has no nontrivial abelian direct factor.  A group that
        is not a p-group raises NotPGroupError.

        G has an abelian factor iff it has a cyclic one, <z> with z central,
        and a complement of <z> holds G'.  So <z> of order m is a factor iff
        <zG'> has order m and is pure, hence a summand (Kulikov), in G/G':
        iff z**(m/p) G' is not an m-th power there (1 = 1**m refuses z**(m/p)
        in G').  One quotient is built and no lattice is read."""
        def compute():
            if (pp := self.prime_power()) is None:
                return True
            if self.is_abelian():
                return False
            q, orders = self.quotient(self.derived_subgroup()), self.element_orders()
            ab, proj, zs = q.group, q.projection, self.center().sorted_members[1:]
            powers = {m: {ab.power(y, m) for y in range(ab.n)} for m in {orders[z] for z in zs}}
            return all(proj[self.power(z, orders[z] // pp[0])] in powers[orders[z]] for z in zs)

        return self._memo("purely_nonabelian", compute)

    def normal_subgroups(self) -> list["Subgroup"]:
        """Every normal subgroup, ordered by (order, sorted member tuple).

        Breadth-first from {0}, each found N is joined with one x at a time,
        as <x>N.  In a p-group, for normal N < K, K/N meets Z(G/N): some x
        in K - N has x**p and [x, t] in N for each generator t of G, so N<x>
        is normal, of index p over N and inside K.  That test is one
        bitmask per x, read once per group: need[x] within N's mask.  An x
        in a cover found from N gives that cover again, so the covers' union
        is kept as a mask too.  Each Subgroup is born with "normal" and its
        mask cached.  A group that is not a p-group raises NotPGroupError;
        the trivial group's lattice is {1}."""
        # checked before the memo lookup, so a cached lattice never bypasses it
        if self.n > DEFAULT_SUBGROUP_ENUM_BOUND:
            raise OrderBoundExceededError(
                f"subgroup enumeration bound {DEFAULT_SUBGROUP_ENUM_BOUND} exceeded"
                f" (order {self.n})"
            )

        def compute():
            t, inv, n = self.table, self._inv, self.n
            pp = self.prime_power()  # NotPGroupError for a group that is not a p-group
            p = pp[0] if pp else 1  # the trivial group has no cover to find
            gens = self.full_subgroup().generators()
            powers, bit = self._powers(p), [1 << x for x in range(n)]
            # need[x]: the bits of x**p and of [x, s] for each generator s
            need = []
            for x, row, ix in zip(range(n), t, inv):
                m = bit[powers[x]]
                for s in gens:
                    m |= bit[t[t[ix][inv[s]]][row[s]]]
                need.append(m)
            found = {frozenset({0}): 1}  # members -> mask
            work = [frozenset({0})]
            for members in work:  # grows while it is walked, so breadth-first
                mask = covered = found[members]
                for x in range(1, n):
                    if not covered & bit[x] and need[x] | mask == mask:
                        cover = self.join(members, (x,))
                        if len(cover) != p * len(members):
                            raise InvariantError(f"a cover of N has order {len(cover)}")
                        cm = found.get(cover)
                        if cm is None:
                            cm = found[cover] = sum(map(bit.__getitem__, cover))
                            work.append(cover)
                        covered |= cm
            subs = [Subgroup(self, ms) for ms in found]
            subs.sort(key=lambda s: (s.order, s.sorted_members))
            for s in subs:
                s._cache["normal"] = True
                s._cache["mask"] = found[s.members]
            return subs

        return self._memo("normal_subgroups", compute)


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

    _memo = FiniteGroup._memo

    def is_normal(self) -> bool:
        def compute():
            g = self.parent
            return all(
                g.conjugate(a, x) in self.members
                for a in range(g.n)
                for x in self.sorted_members
            )

        return self._memo("normal", compute)

    def generators(self) -> tuple[int, ...]:
        """Small generating set for this subgroup (greedy, larger orders
        first)."""
        return self._memo("gens", lambda: self.parent.greedy_generators(self.sorted_members))

    def mask(self) -> int:
        """The members as one int, bit x set for member x."""
        return self._memo("mask", lambda: sum(1 << x for x in self.sorted_members))

    def partition(self, p: int | None = None) -> PPartition:
        """Abelian invariants of this subgroup (must be abelian): the
        section H/1, counted on the parent's table."""
        g = self.parent
        if p is None:
            pp = g.prime_power()
            p = pp[0] if pp else None
        return self._memo(("partition", p),
                          lambda: g.section_partition(self, g.trivial_subgroup(), p))


def subgroup_product(h: Subgroup, k: Subgroup) -> Subgroup:
    """The set product HK, valid when at least one factor is normal.

    If neither factor is known normal the product set is still returned
    when it happens to be closed, otherwise NotASubgroupError is raised.
    A product of two factors already known normal is itself marked normal;
    normality is never computed just to set that mark.
    """
    if h.parent is not k.parent:
        raise ValueError("subgroup product across different parent groups")
    g = h.parent
    t = g.table
    prod = frozenset(t[a][b] for a in h.members for b in k.members)
    if not (h.is_normal() or k.is_normal()) and g.closure(prod) != prod:
        raise NotASubgroupError("HK is not a subgroup (neither factor normal)")
    s = Subgroup(g, prod)
    if h._cache.get("normal") and k._cache.get("normal"):
        s._cache["normal"] = True
    return s


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


def _square(table) -> np.ndarray:
    """A table as an n x n integer array: an integer ndarray as it is,
    anything else converted once."""
    arr = table
    if not (isinstance(table, np.ndarray) and table.dtype.kind in "iu"):
        try:
            arr = np.array(table, dtype=np.int64)
        except (ValueError, OverflowError):  # ragged, or an entry beyond int64
            raise NotLatinSquareError("table is not n x n over 0..n-1") from None
    if len(arr) == 0:
        raise NoIdentityError("empty table")
    if arr.shape != (len(arr), len(arr)):
        raise NotLatinSquareError("table is not n x n over 0..n-1")
    return arr


def _validate_table(arr: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Check that an n x n integer array is a group table with identity 0;
    return it as int32 and as nested lists.

    Associativity is Light's test: the g with (x*g)*y = x*(g*y) for all x,
    y hold 0 and are closed under the product, so checking the picks of
    ``_right_generators`` is enough, as every element is reached from 0 by
    right multiplication by picks."""
    n = len(arr)
    # before the narrowing, which would wrap an entry like 2**32 onto 0
    if arr.min() < 0 or arr.max() >= n:
        raise NotLatinSquareError("an entry lies outside 0..n-1")
    arr = arr.astype(np.int32, copy=False)
    ident = np.arange(n, dtype=np.int32)
    if not ((np.sort(arr, axis=1) == ident).all() and (np.sort(arr, axis=0).T == ident).all()):
        raise NotLatinSquareError("a row or column is not a permutation of 0..n-1")
    if not ((arr[0] == ident).all() and (arr[:, 0] == ident).all()):
        raise NoIdentityError("element 0 is not a two-sided identity")
    rows = arr.tolist()
    for g in _right_generators(rows):
        if not (arr[arr[:, g]] == arr[:, arr[g]]).all():
            raise NotAssociativeError(f"associativity fails through generator {g}")
    return arr, rows


def _right_generators(rows: list[list[int]]) -> list[int]:
    """Greedy generators of a Latin square with identity 0: each pick is
    the least element not yet reached from 0 by the steps x -> x*s over
    the picks s.  On a group table the reach is the subgroup the picks
    generate."""
    gens: list[int] = []
    reached, seen, s = [0], bytearray([1]) + bytes(len(rows) - 1), 0
    while len(reached) < len(rows):
        s = seen.index(0, s)
        gens.append(s)
        old = len(reached)  # the elements before s took every earlier pick
        seen[s] = 1  # s = 0*s
        reached.append(s)
        for i, x in enumerate(reached):  # grows while it is walked
            row = rows[x]
            for g in (gens if i >= old else (s,)):
                if not seen[y := row[g]]:
                    seen[y] = 1
                    reached.append(y)
    return gens


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) is indexed a * |H| + b."""
    n = g.n * h.n
    if n > DEFAULT_INGEST_BOUND:
        raise OrderBoundExceededError(f"product order {n} exceeds bound {DEFAULT_INGEST_BOUND}")
    gt, ht = np.array(g.table), np.array(h.table)
    # axes (a1, b1, a2, b2): row a1 * |H| + b1, column a2 * |H| + b2
    return FiniteGroup((gt[:, None, :, None] * h.n + ht[None, :, None, :]).reshape(n, n))
