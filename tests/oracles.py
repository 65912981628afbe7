"""Independent brute-force oracles for freezing expected test values,
and the test-only helpers that check the library's results.

Most of what is here avoids the library's arithmetic: abelian groups are
concrete tuples of residues, homomorphism counts come from scanning
generator images in the target, and searches are raw set scans over
multiplication tables.  These rest on library code, and say so:

- ``hom_automorphism_pairs`` and ``hom_construct_auts`` take G/Y and its
  abelianisation from ``FiniteGroup.quotient``, and ``abelian_basis``
  lifts a basis through ``quotient`` too; ``hom_construct_auts`` and
  ``verify_closed`` sort rows with the library's ``_canonical``;
- ``member_rows`` and ``members`` read an ``AutSet``'s members: a
  composed set's rows, or a search's products composed by the library's
  ``compose_transversals``;
- ``distinguished_members`` filters the members of ``automorphism_group``;
- ``all_automorphisms`` and ``transversals_by_candidate`` share the
  search's generating sequence and fingerprint pools (``_search_parts``);
- ``direct_factor_by_pairs`` reads ``normal_subgroups`` and ``quotient``;
- the ``*_by_subsets`` sweeps read ``criteria.mod_derived_part`` and
  ``Subgroup.partition``;
- ``lemma_2_11_check`` and ``adney_yen_check`` state two facts of the
  paper on one group: they read the library's partitions and
  ``is_purely_nonabelian``, and the Adney-Yen count compares
  ``distinguished`` with ``hom_order``;
- ``report_of`` stores hand-built rows through ``Report.intern``;
- ``sweep_2_3`` and ``sweep_2_45`` walk ``report.containment`` and
  ``containing`` one tuple at a time, and ``verify_group_by_tuples``, the
  row loop over them, shares ``report.CRITERIA``, the order table's
  ``aut_orders`` and ``Report.intern`` with the library's block loop.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from autcrit import automorphisms
from autcrit import criteria as crit
from autcrit.abelian import hom_order, rank
from autcrit.automorphisms import (
    C_STAR,
    CENTRAL,
    IA_STAR,
    UPPER_LOWER_XY,
    AutSet,
    _canonical,
    _fingerprints,
    automorphism_group,
    compose_transversals,
    distinguished,
)
from autcrit.errors import (
    AbelianInputError,
    ClassNotTwoError,
    GroupFileError,
    HypothesisViolationError,
    InvariantError,
    NoIdentityError,
    NotAbelianError,
    OrderBoundExceededError,
)
from autcrit.groups import FiniteGroup, Subgroup
from autcrit.report import (
    CRITERIA,
    Head,
    Report,
    aut_bound,
    center_subgroups,
    containing,
    containment,
    group_summary,
    selected_criteria,
)


@dataclass(frozen=True, slots=True)
class Automorphism:
    """A group automorphism stored as the full image array."""

    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]


def member_rows(s):
    """An ``AutSet``'s members as ``_canonical`` image rows: a composed
    set's own rows, or every product of a search's transversals."""
    return s.rows if s.rows is not None else compose_transversals(s.parent.n, s.transversals)


def members(s):
    """An ``AutSet``'s members as a frozenset of ``Automorphism``."""
    return frozenset(Automorphism(tuple(r)) for r in member_rows(s).tolist())


def meets(s, rows):
    """Which image ``rows`` lie in Aut^X_Y(G) for the (X, Y) that the
    ``AutSet`` s records, tested at every element: g^-1 a(g) in X for
    every g of G, and a(y) = y for every y of Y."""
    g = s.parent
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, g.n)
    table = np.array(g.table, dtype=np.int64)
    inv = np.array([g.inv(e) for e in range(g.n)], dtype=np.int64)
    upper = np.zeros(g.n, dtype=bool)
    upper[list(s.upper.members)] = True
    lower = np.array(s.lower.sorted_members, dtype=np.int64)
    return upper[table[inv, rows]].all(axis=1) & (rows[:, lower] == lower).all(axis=1)


def tuple_elements(p, exps):
    """All elements of Z_{p^e1} x ... x Z_{p^ek} as tuples."""
    return list(product(*[range(p**e) for e in exps]))


def tuple_order(x, mods):
    o = 1
    for a, m in zip(x, mods):
        o = max(o, m // gcd(a, m))
    return o


def count_homs(p, src_exps, dst_exps):
    """Exhaustive homomorphism count.

    A hom out of a direct sum of cyclic groups is exactly a choice, for
    each cyclic generator, of a target element killed by that
    generator's order; the choices are independent, and each candidate
    is tested by concrete scalar multiplication in the target.
    """
    mods = [p**e for e in dst_exps]
    elems = tuple_elements(p, dst_exps)
    total = 1
    for e in src_exps:
        k = p**e
        kills = sum(
            1 for x in elems if all((k * a) % m == 0 for a, m in zip(x, mods))
        )
        total *= kills
    return total


def count_homs_verified(p, src_exps, dst_exps):
    """Stronger (and slower) count for small cases: build each candidate
    map in full from arbitrary generator images and keep it only if it
    is additive on every pair of source elements."""
    src = tuple_elements(p, src_exps)
    dst = tuple_elements(p, dst_exps)
    src_mods = [p**e for e in src_exps]
    dst_mods = [p**e for e in dst_exps]

    def apply(images, a):
        out = [0] * len(dst_mods)
        for coeff, img in zip(a, images):
            for i, (c, m) in enumerate(zip(img, dst_mods)):
                out[i] = (out[i] + coeff * c) % m
        return tuple(out)

    def add(a, b, mods):
        return tuple((x + y) % m for x, y, m in zip(a, b, mods))

    count = 0
    for images in product(dst, repeat=len(src_exps)):
        ok = True
        for a in src:
            for b in src:
                if apply(images, add(a, b, src_mods)) != add(
                    apply(images, a), apply(images, b), dst_mods
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def count_homs_killed_by(p, src_exps, dst_exps, k):
    """Number of homomorphisms f with f^(p**k) trivial, by scanning."""
    mods = [p**e for e in dst_exps]
    elems = tuple_elements(p, dst_exps)
    pk = p**k
    total = 1
    for e in src_exps:
        pe = p**e
        kills = sum(
            1
            for x in elems
            if all((pe * a) % m == 0 and (pk * a) % m == 0 for a, m in zip(x, mods))
        )
        total *= kills
    return total


def order_dividing_counts(p, exps):
    """For the abelian type exps: map k -> #elements x with x^(p**k) = e."""
    mods = [p**e for e in exps]
    elems = tuple_elements(p, exps)
    out = {}
    k = 0
    while True:
        pk = p**k
        out[k] = sum(
            1 for x in elems if all((pk * a) % m == 0 for a, m in zip(x, mods))
        )
        if out[k] == len(elems):
            return out
        k += 1


def order_dividing_count_by_factors(p, exps, k):
    """#elements killed by p**k in the type exps, as a product of per-factor
    scans (components of a direct product are independent); usable when the
    whole group is too large to enumerate."""
    pk = p**k
    total = 1
    for e in exps:
        m = p**e
        total *= sum(1 for a in range(m) if (pk * a) % m == 0)
    return total


def closure(table, seed):
    """Subgroup generated by ``seed``, grown element by element from the
    raw table: no cosets, so it shares no code with ``FiniteGroup.join``."""
    seed = list(seed)
    members = {0, *seed}
    work = list(members)
    while work:
        u = work.pop()
        for g in seed:
            v = table[u][g]
            if v not in members:
                members.add(v)
                work.append(v)
    return frozenset(members)


def min_generating_size(table):
    """Smallest size of a generating subset, by raw subset enumeration
    with the independent ``closure``."""
    n = len(table)
    if n == 1:
        return 0
    for k in range(1, n):
        for combo in combinations(range(1, n), k):
            if len(closure(table, combo)) == n:
                return k
    return n  # unreachable for a real group


def all_subgroups(g):
    """Every subgroup, by the element-wise ``closure`` of growing
    generator sets; the library grows subgroups a coset at a time.

    Deterministic order: by (order, sorted member tuple).
    """
    seen = {frozenset({0}): ()}
    work = [(frozenset({0}), ())]
    while work:
        members, gens = work.pop()
        for x in range(1, g.n):
            if x in members:
                continue
            new_gens = gens + (x,)
            new_members = closure(g.table, new_gens)
            if new_members not in seen:
                seen[new_members] = new_gens
                work.append((new_members, new_gens))
    subs = [Subgroup(g, ms) for ms in seen]
    subs.sort(key=lambda s: (s.order, s.sorted_members))
    return subs


def greedy_generators_by_closure(g, pool, start=frozenset()):
    """``FiniteGroup.greedy_generators`` with its reach reclosed by the
    element-wise ``closure`` from {0} after each kept element, where the
    library joins a coset of the previous reach at a time."""
    orders = g.element_orders()
    gens = []
    reach = closure(g.table, start)
    for a in sorted(pool, key=lambda a: (-orders[a], a)):
        if a not in reach:
            gens.append(a)
            reach = closure(g.table, [*start, *gens])
    return tuple(gens)


def unpruned_direct_factor(g):
    """Direct-factor search with no centrality pruning: scan all pairs of
    normal subgroups (A, B) with A nontrivial abelian, A intersecting B
    trivially and |A||B| = |G|."""
    t = g.table
    normals = [s for s in all_subgroups(g) if s.is_normal()]

    def abelian_set(s):
        ms = s.sorted_members
        return all(t[a][b] == t[b][a] for a in ms for b in ms)

    for a in normals:
        if a.order == 1 or not abelian_set(a):
            continue
        for b in normals:
            if a.order * b.order == g.n and len(a.members & b.members) == 1:
                return a, b
    return None


def direct_factor_by_pairs(g):
    """``FiniteGroup.is_purely_nonabelian`` by the pair search it replaced:
    any abelian direct factor is central and its complement contains G',
    so try every nontrivial subgroup A of Z(G), read from the lattice of a
    copy of Z(G), against every preimage B of a subgroup of G/G'."""
    if g.n == 1:
        return (True, None)
    if g.is_abelian():
        return (False, (g.full_subgroup(), g.trivial_subgroup()))
    z = g.center()
    zg, zmap = as_group(z)
    dquot = g.quotient(g.derived_subgroup())
    comp_cands = []
    for s in dquot.group.normal_subgroups():
        members = frozenset(
            x for x in range(g.n) if dquot.projection[x] in s.members
        )
        comp_cands.append(Subgroup(g, members))
    for a_small in zg.normal_subgroups():
        if a_small.order == 1:
            continue
        a = Subgroup(g, frozenset(zmap[i] for i in a_small.members))
        for b in comp_cands:
            if a.order * b.order == g.n and len(a.members & b.members) == 1:
                return (False, (a, b))
    return (True, None)


def is_associative(table):
    """Whether (a*b)*c == a*(b*c) for every triple, by a raw scan of the
    table: row a*b must equal row a read through row b."""
    for row_a in table:
        for b, row_b in enumerate(table):
            if list(table[row_a[b]]) != [row_a[x] for x in row_b]:
                return False
    return True


def find_identity(rows):
    """The first e with rows[e][x] == x == rows[x][e] for every x, by a
    scan of the nested lists; None when there is none."""
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            return e
    return None


def cayley_rows(text):
    """The table of a ``cayley n`` file by the per-token path: int() on
    every entry, a count of rows and of each row's entries, the identity
    found by ``find_identity`` and traded with element 0 through a list
    relabelling.  Errors are raised as that path raised them: a token
    int() refuses is a bare ValueError, an entry outside 0..n-1 is an
    IndexError or, when negative, read from the end of the swap."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    size = int(lines[0].split()[1])
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise GroupFileError(f"expected {size} rows of {size} entries")
    n = len(rows)
    e = find_identity(rows)
    if e is None:
        raise NoIdentityError("table has no two-sided identity")
    if e != 0:
        swap = list(range(n))
        swap[0], swap[e] = e, 0
        rows = [[swap[rows[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
    return rows


def raw_generators(table):
    """Greedy generators of a Latin square with identity 0 under the raw
    binary product: each is the least element outside the set that every
    product of earlier ones, in any bracketing, reaches; the set is grown by
    scanning all pairs until a scan adds nothing."""
    n = len(table)
    gens = []
    reach = {0}
    while len(reach) < n:
        gens.append(min(set(range(n)) - reach))
        reach.add(gens[-1])
        while True:
            new = {table[a][b] for a in reach for b in reach} - reach
            if not new:
                break
            reach |= new
    return gens


def permutation_table(gens, degree):
    """Cayley table of the group generated by permutations (0-based image
    tuples), by breadth-first closure and then composing every pair of
    elements: row a, column b holds the index of a(b(x))."""
    gens = [tuple(g) for g in gens]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    i = 0
    while i < len(elems):
        u = elems[i]
        i += 1
        for g in gens:
            v = tuple(u[g[x]] for x in range(degree))
            if v not in index:
                index[v] = len(elems)
                elems.append(v)
    return [
        [index[tuple(a[b[x]] for x in range(degree))] for b in elems] for a in elems
    ]


def _search_parts(g, upper, fixed):
    """The library's generating sequence, fingerprint pools and seed state
    for Aut^upper_fixed(G), with an element-wise ``extend`` of its own:
    it closes each partial map element by element, multiplying every new
    element by every active generator, where the library's search maps a
    whole coset of the already mapped subgroup at a time."""
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

    return gens, pools, (img0, used0, base_members[:]), extend


def all_automorphisms(g, upper, fixed):
    """Sorted image tuples of Aut^upper_fixed(G), every member reached as
    its own leaf of a backtracking search over generator images.

    It shares the library's generating sequence and fingerprint pools but
    not its enumeration: nothing here relies on the result being a group.
    Nor its arithmetic (``_search_parts``)."""
    gens, pools, state0, extend = _search_parts(g, upper, fixed)
    results: list[tuple[int, ...]] = []

    def dfs(img, used, elems, depth):
        if depth == len(gens):
            if len(elems) != g.n:
                raise InvariantError(f"generator images reach {len(elems)} of {g.n} elements")
            results.append(tuple(img))
            return
        for cand in pools[depth]:
            state = extend(img, used, elems, depth, cand)
            if state is not None:
                dfs(state[0], state[1], state[2], depth + 1)

    dfs(*state0, 0)
    results.sort()
    return results


def transversals_by_candidate(g, upper, fixed):
    """Per level d of the library's generating sequence, one image tuple
    for each image of gens[d] that some member fixing gens[:d] reaches:
    the identity, then the first completion found for every other
    candidate in the pool, each searched on its own with no orbit
    argument."""
    gens, pools, state, extend = _search_parts(g, upper, fixed)

    def first(img, used, elems, depth):
        if depth == len(gens):
            return tuple(img)
        for cand in pools[depth]:
            below = extend(img, used, elems, depth, cand)
            found = below and first(*below, depth + 1)
            if found:
                return found
        return None

    transversals = []
    for depth, h in enumerate(gens):
        reps = [tuple(range(g.n))]
        for cand in pools[depth]:
            below = None if cand == h else extend(*state, depth, cand)
            rep = below and first(*below, depth + 1)
            if rep:
                reps.append(rep)
        transversals.append(reps)
        state = extend(*state, depth, h)
    return transversals


def element_orders_by_powers(g):
    """The order of every element, by walking each element's own powers
    up to the identity."""
    orders = []
    for a in range(g.n):
        x, k = a, 1
        while x != 0:
            x = g.table[x][a]
            k += 1
        orders.append(k)
    return tuple(orders)


def distinguished_members(g, which):
    """Members of a distinguished subgroup, by testing g^-1 a(g) at every
    element of G and, for C_STAR and IA_STAR, a(z) = z at every z in Z(G)."""
    full = automorphism_group(g)
    z = g.center().members
    dsub = g.derived_subgroup().members
    target = z if which in (CENTRAL, C_STAR) else dsub
    table = g.table
    inv = [g.inv(a) for a in range(g.n)]
    found = []
    for a in members(full):
        im = a.images
        if all(table[inv[x]][im[x]] in target for x in range(g.n)):
            if which in (C_STAR, IA_STAR) and not all(im[x] == x for x in z):
                continue
            found.append(a)
    return frozenset(found)


def commutator_subgroup(g, h_members):
    """[G, H] by a full scan: the element-wise ``closure`` of every
    commutator [a, b] = a^-1 b^-1 a b with a in G and b in H."""
    t = g.table
    inv = [row.index(0) for row in t]
    return closure(t, {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(g.n) for b in h_members})


def _partitions_of(m, cap=None):
    """Non-increasing tuples of positive integers summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap or m), 0, -1):
        for rest in _partitions_of(m - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _killed_counts(p, exps, m):
    counts = order_dividing_counts(p, exps)
    return tuple(counts.get(k, p**m) for k in range(m + 1))


def section_exps(g, h_members, k_members, p):
    """Exponents of the abelian p-group H/K, or None when H/K is not
    abelian, by raw table scans: H/K is abelian when every commutator of
    two members of H lies in K; the order of a coset xK is the least o
    with x**o in K, found by multiplying by x.  The type is the one whose
    ``order_dividing_counts`` match the number of cosets killed by each
    p**k.  Calls neither ``abelian_partition`` nor ``quotient``."""
    t = g.table
    inv = [row.index(0) for row in t]
    hs = sorted(h_members)
    if any(t[t[inv[a]][inv[b]]][t[a][b]] not in k_members for a in hs for b in hs):
        return None
    coset_orders = []
    for x in hs:
        y, o = x, 1
        while y not in k_members:
            y, o = t[y][x], o + 1
        coset_orders.append(o)
    index = len(hs) // len(k_members)
    m = 0
    while p**m < index:
        m += 1
    assert p**m == index, "H/K is not a p-group"
    killed = tuple(sum(1 for o in coset_orders if p**k % o == 0) // len(k_members)
                   for k in range(m + 1))
    found = [exps for exps in _partitions_of(m) if _killed_counts(p, exps, m) == killed]
    assert len(found) == 1, found
    return found[0]


# The criteria sweeps as they were before the containment lists: every
# containment is a frozenset subset test.  Same tuples, keys and order.
def center_subgroups_by_subsets(g):
    """Indices into ``g.normal_subgroups()`` of the subgroups of Z(G)."""
    z = g.center().members
    return [i for i, s in enumerate(g.normal_subgroups()) if s.members <= z]


def _ids(parts):
    """A small int per partition, equal exactly when the partitions are."""
    ids = {}
    return [ids.setdefault(q, len(ids)) for q in parts]


def sweep_2_3_by_subsets(g):
    """Admissible (M1, N1, M2, N2): M_i <= Z(G) and M_i <= N_i, M1 <= M2,
    N2 <= N1; each with the key ``cor_2_3`` reads: the ids of G/G'N1,
    G/G'N2, M1 and M2."""
    p = g.prime_power()[0]
    normals = g.normal_subgroups()
    zsubs = center_subgroups_by_subsets(g)
    q = _ids(crit.mod_derived_part(g, n, p) for n in normals)
    mp = _ids(normals[i].partition(p) for i in zsubs)
    # below[j]: each M1 <= M2 = zsubs[j], with its id
    below = [[(i, mp[k]) for k, i in enumerate(zsubs) if normals[i].members <= normals[j].members]
             for j in zsubs]
    for i1, n1 in enumerate(normals):
        for i2, n2 in enumerate(normals):
            if not n2.members <= n1.members:
                continue
            for k, j in enumerate(zsubs):
                if normals[j].members <= n2.members:
                    for m1, mp1 in below[k]:
                        yield (m1, i1, j, i2), (q[i1], q[i2], mp1, mp[k])


def sweep_2_45_by_subsets(g):
    """Admissible (M, N) pairs with M <= Z(G) <= N; each with the key
    ``cor_2_4`` and ``cor_2_5`` read: the ids of G/G'N and M."""
    p = g.prime_power()[0]
    normals, z = g.normal_subgroups(), g.center().members
    above = [i for i, n in enumerate(normals) if z <= n.members]
    zsubs = center_subgroups_by_subsets(g)
    q = _ids(crit.mod_derived_part(g, normals[i], p) for i in above)
    mp = _ids(normals[i].partition(p) for i in zsubs)
    for i, qn in zip(above, q):
        for k, mpm in zip(zsubs, mp):
            yield (k, i), (qn, mpm)


# The criteria sweeps one tuple at a time, as ``verify_group`` walked them
# before it walked blocks: each yields (args, key), the key a tuple of the
# partition ids ``criteria._nested`` reads.  Same tuples and order as the
# blocks flattened, and keys equal exactly when the blocks' int keys are.
def sweep_2_3(g):
    """Admissible (M1, N1, M2, N2), each with the ids of G/G'N1, G/G'N2,
    M1 and M2, from the containment lists."""
    p = g.prime_power()[0]
    normals, below = g.normal_subgroups(), containment(g)
    zsubs = center_subgroups(g)
    q = _ids(crit.mod_derived_part(g, n, p) for n in normals)
    mp = dict(zip(zsubs, _ids(normals[i].partition(p) for i in zsubs)))
    # each central M2 with its (M1, id) pairs; each N2 with its central M2s
    pairs = {j: [(i, mp[i]) for i in below[j]] for j in zsubs}
    central = [[j for j in b if j in mp] for b in below]
    for i1, b1 in enumerate(below):
        for i2 in b1:
            for j in central[i2]:
                for m1, mp1 in pairs[j]:
                    yield (m1, i1, j, i2), (q[i1], q[i2], mp1, mp[j])


def sweep_2_45(g):
    """Admissible (M, N) pairs with M <= Z(G) <= N, each with the ids of
    G/G'N and M, from the containment lists."""
    p = g.prime_power()[0]
    normals, zsubs = g.normal_subgroups(), center_subgroups(g)
    above = containing(g)[zsubs[-1]]
    q = _ids(crit.mod_derived_part(g, normals[i], p) for i in above)
    mp = _ids(normals[i].partition(p) for i in zsubs)
    for i, qn in zip(above, q):
        for k, mpm in zip(zsubs, mp):
            yield (k, i), (qn, mpm)


TUPLE_SWEEPS = {crit.COR_2_3: sweep_2_3, crit.COR_2_4: sweep_2_45, crit.COR_2_5: sweep_2_45}


def verify_group_by_tuples(name, g, criteria_filter=None, force=False, explicit=False,
                           sweeps=TUPLE_SWEEPS):
    """``report.verify_group`` as a loop over one tuple at a time: each
    swept row resumes a (args, key) sweep of ``sweeps``, looks its verdict
    up by the tuple key, reads both sides from the order table and builds
    its elapsed_ms afresh.  It takes the predicates, sides and labels from
    ``report.CRITERIA`` and counts with the same ``aut_orders``; the row
    path is the reference the block loop is held to."""
    bound = aut_bound()
    skip = "" if force or g.n <= bound else (
        f"skipped: group order {g.n} exceeds automorphism bound {bound}")
    pp = g.prime_power()
    p = pp[0] if pp else None
    report = Report(name, g.n, p, group_summary(g, p))
    selected = selected_criteria(criteria_filter)
    if g.n == 1 or g.is_abelian():
        if explicit:
            raise AbelianInputError(
                f"{name} is abelian; criteria apply to non-abelian p-groups only")
        report.notes.append("abelian input: all criteria skipped (ABELIAN_INPUT)")
        return report
    normals = g.normal_subgroups() if any(CRITERIA[c][1] for c in selected) else []
    report.lattice = tuple(s.sorted_members for s in normals)
    zsubs, above = (center_subgroups(g), containing(g)) if normals else ([], [])
    at = [None] * len(normals)
    for k, m in enumerate(zsubs):
        at[m] = k * len(normals)
    orders = [None] * (len(zsubs) * len(normals))

    def count(m, n):
        row = above[m]
        sides = automorphisms.aut_orders(g, normals[m], [normals[i] for i in row])
        for i, k in zip(row, sides):
            orders[at[m] + i] = k
        return orders[at[m] + n]

    hs, es, xs = report.head_of, report.elapsed, report.args
    for cid in sorted(selected):
        predicate, blocks, _, left, right = CRITERIA[cid]
        sweep = sweeps[cid] if blocks else None
        verdicts = {}
        tag = isinstance(right, str)
        lm, ln = left if sweep else (None, None)
        rm, rn = (None, None) if tag else right
        z = zsubs[-1] if sweep and right == C_STAR else None
        fixed = None
        for args, key in sweep(g) if sweep else [((), None)]:
            t0 = perf_counter_ns()
            note = skip
            v = verdicts.get(key)
            if v is None:
                try:
                    verdict = predicate(g, *(normals[i] for i in args))
                except ClassNotTwoError as exc:
                    if explicit:
                        raise
                    report.notes.append(f"{cid}: skipped ({exc})")
                    continue
                v = verdicts[key] = (verdict.predicted_equal, verdict.clause, {})
            predicted, clause, heads = v
            try:
                if skip:
                    observed = None
                elif sweep:
                    m, n = args[lm], args[ln]
                    small = orders[at[m] + n] or count(m, n)
                    if tag:
                        large = fixed = fixed or (
                            len(automorphisms.distinguished(g, right)) if z is None
                            else orders[at[z] + z] or count(z, z))
                    else:
                        m, n = args[rm], args[rn]
                        large = orders[at[m] + n] or count(m, n)
                    if large % small:
                        raise InvariantError(f"{cid}: left order {small} does not divide {large}")
                    observed = small == large
                else:
                    observed = automorphisms.autset_equal(automorphisms.distinguished(g, left),
                                                          automorphisms.distinguished(g, right))
            except OrderBoundExceededError as exc:
                observed, note = None, f"skipped: {exc}"
            elapsed = (perf_counter_ns() - t0 + 500) // 1000 / 1000
            h = heads.get((observed, note))
            if h is None:
                match = None if observed is None else observed == predicted
                h = heads[observed, note] = report.intern(
                    Head(name, g.n, p, cid, predicted, observed, match, clause, note))
            hs.append(h)
            es.append(elapsed)
            xs.append(args)
    return report


def is_identity(a):
    return all(i == x for x, i in enumerate(a.images))


def compose(a, b):
    """a after b: (a * b)(x) = a(b(x))."""
    return Automorphism(tuple(a.images[y] for y in b.images))


def inverse(a):
    inv = [0] * len(a.images)
    for x, i in enumerate(a.images):
        inv[i] = x
    return Automorphism(tuple(inv))


def verify(a, g):
    """Whether ``a`` is an automorphism of g: a bijection fixing 0 that
    preserves the whole multiplication table."""
    n = g.n
    if len(a.images) != n or a.images[0] != 0 or set(a.images) != set(range(n)):
        return False
    img = np.array(a.images, dtype=np.int64)
    t = np.array(g.table, dtype=np.int64)
    return bool(np.array_equal(img[t], t[np.ix_(img, img)]))


def verify_closed(s):
    """Whether an ``AutSet`` is closed under composition, which makes a
    finite set closed under inverses too: a * S is S for every member a."""
    rows = member_rows(s)
    data = rows.tobytes()
    return all(_canonical(s.parent.n, a[rows]).tobytes() == data for a in rows)


def inner_automorphisms(g):
    """Conjugation maps, one per coset aZ(G), as a frozenset of
    ``Automorphism``; there are |G| / |Z(G)| of them.  Inn(G) is no
    Aut^X_Y(G), so it is no ``AutSet``."""
    z = g.center().members
    reps = {min(row[k] for k in z) for row in g.table}  # the least element of aZ(G)
    return frozenset(Automorphism(tuple(g.conjugate(a, x) for x in range(g.n))) for a in reps)


def as_group(s):
    """A subgroup as a standalone ``FiniteGroup``, plus the map from its
    element indices back to the parent's."""
    elems = s.sorted_members
    pos = {e: i for i, e in enumerate(elems)}
    t = s.parent.table
    return FiniteGroup([[pos[t[a][b]] for b in elems] for a in elems]), elems


def is_central(s):
    """Whether a subgroup lies in its parent's centre."""
    return s.members <= s.parent.center().members


def abelian_basis(g):
    """Independent cyclic generators of an abelian p-group, as (element,
    order) pairs with non-increasing orders.

    A maximal-order element spans a direct summand; the remaining
    generators are lifted from the quotient, choosing coset
    representatives of the same order."""
    if not g.is_abelian():
        raise NotAbelianError("abelian_basis needs an abelian group")
    if g.n == 1:
        return []
    g.prime_power()
    orders = g.element_orders()
    top = min(range(g.n), key=lambda a: (-orders[a], a))
    q = g.quotient(g.generated_subgroup([top]))
    basis = [(top, orders[top])]
    for qb, qord in abelian_basis(q.group):
        lift = min(x for x in range(g.n) if q.projection[x] == qb and orders[x] == qord)
        basis.append((lift, qord))
    total = 1
    for _, o in basis:
        total *= o
    if total != g.n:
        raise InvariantError(f"basis orders multiply to {total}, not {g.n}")
    return basis


def factor_orders(part):
    """Orders of a partition's cyclic factors, largest first."""
    return tuple(part.p**e for e in part.exps)


def hom_automorphism_pairs(g, x, y):
    """The Adney-Yen correspondence between Hom(G/Y, X) and Aut^X_Y(G),
    for X a central subgroup contained in the normal subgroup Y.

    Every homomorphism f from G/Y into X is enumerated through the
    abelianization of G/Y; it is returned as the tuple of images
    (elements of X, as parent indices) of a fixed basis of that
    abelianization, paired with the automorphism alpha_f(g) = g * f(gY).
    Componentwise product of the image tuples is the Hom-group operation.
    """
    if not is_central(x):
        raise HypothesisViolationError("X must be central in G")
    if not x.members <= y.members:
        raise HypothesisViolationError("X must be contained in Y")
    if not y.is_normal():
        raise HypothesisViolationError("Y must be normal")
    q = g.quotient(y)
    qab = q.group.quotient(q.group.derived_subgroup())
    a = qab.group
    basis = abelian_basis(a)

    # coordinates of every abelianized-quotient element in that basis
    coords = {}
    for vec in product(*(range(o) for _, o in basis)):
        elem = 0
        for (b, _), k in zip(basis, vec):
            elem = a.mul(elem, a.power(b, k))
        coords[elem] = vec
    if len(coords) != a.n:
        raise InvariantError(f"basis coordinates reach {len(coords)} of {a.n} elements")

    to_ab = [qab.projection[q.projection[gg]] for gg in range(g.n)]
    orders = g.element_orders()
    cand_lists = [[e for e in x.sorted_members if o % orders[e] == 0] for _, o in basis]
    pairs = []
    for choice in product(*cand_lists):
        f_val = {}
        for elem, vec in coords.items():
            v = 0
            for e, k in zip(choice, vec):
                v = g.mul(v, g.power(e, k))
            f_val[elem] = v
        images = tuple(g.mul(gg, f_val[to_ab[gg]]) for gg in range(g.n))
        pairs.append((tuple(choice), Automorphism(images)))
    return pairs


def hom_construct_auts(g, x, y):
    """Aut^X_Y(G) as an ``AutSet``, built from Hom(G/Y, X) by
    ``hom_automorphism_pairs``; it must equal ``aut_upper_lower(g, x, y)``."""
    pairs = hom_automorphism_pairs(g, x, y)
    return AutSet(g, _canonical(g.n, [a.images for _, a in pairs]), x, y, UPPER_LOWER_XY)


def lemma_2_11_check(g):
    """Lemma 2.11 on one group: a class-2 group with d(G') = d(Z(G)) is
    purely non-abelian.  Returns whether G is; a group outside the
    hypotheses raises HypothesisViolationError."""
    p = crit._require_nonabelian_p_group(g)
    if g.nilpotence_class() != 2:
        raise HypothesisViolationError("stated for nilpotence class 2")
    dp = g.derived_subgroup().partition(p)
    zp = g.center().partition(p)
    if rank(dp) != rank(zp):
        raise HypothesisViolationError(f"d(G') = {rank(dp)} differs from d(Z(G)) = {rank(zp)}")
    return g.is_purely_nonabelian()[0]


def adney_yen_check(g):
    """The Adney-Yen count on one purely non-abelian group: whether
    |Aut_c(G)| = |Hom(G/G', Z(G))|, the left side from the search engine
    and the right from ``hom_order``."""
    p = crit._require_nonabelian_p_group(g)
    if not g.is_purely_nonabelian()[0]:
        raise HypothesisViolationError("stated for purely non-abelian groups")
    q0 = g.section_partition(g.full_subgroup(), g.derived_subgroup(), p)
    zp = g.center().partition(p)
    return len(distinguished(g, CENTRAL)) == hom_order(q0, zp)


def to_cayley_text(g):
    """A group's table as a ``cayley n`` file."""
    return f"cayley {g.n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in g.table)


def write_cayley_file(g, path):
    Path(path).write_text(to_cayley_text(g))


def format_cycles(perm):
    """A 0-based image tuple in 1-based disjoint-cycle notation."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        cycles.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def report_of(group, order, prime, rows):
    """A ``Report`` holding hand-built ``Row``s in order: each row's head
    stored through ``Report.intern``, and its elapsed_ms and args in the
    columns."""
    rep = Report(group, order, prime, {})
    for r in rows:
        rep.head_of.append(rep.intern(Head(r.group, r.order, r.prime, r.criterion, r.predicted,
                                           r.observed, r.match, r.clause, r.note)))
        rep.elapsed.append(r.elapsed_ms)
        rep.args.append(r.args)
    return rep
