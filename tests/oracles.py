"""Independent brute-force oracles for freezing expected test values.

Everything here deliberately avoids the library's arithmetic: abelian
groups are concrete tuples of residues, homomorphism counts come from
scanning generator images in the target, and searches are raw set scans
over multiplication tables.
"""

from itertools import combinations, product
from math import gcd

from autcrit.automorphisms import (
    C_STAR,
    CENTRAL,
    IA_STAR,
    _fingerprints,
    automorphism_group,
)
from autcrit.errors import InvariantError
from autcrit.groups import Subgroup


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


def min_generating_size(table):
    """Smallest size of a generating subset, by raw subset enumeration
    with an independent closure routine."""
    n = len(table)
    if n == 1:
        return 0

    def generates(subset):
        members = {0, *subset}
        work = list(members)
        while work:
            u = work.pop()
            for g in subset:
                v = table[u][g]
                if v not in members:
                    members.add(v)
                    work.append(v)
        return len(members) == n

    for k in range(1, n):
        for combo in combinations(range(1, n), k):
            if generates(combo):
                return k
    return n  # unreachable for a real group


def all_subgroups(g):
    """Every subgroup, by closure of growing generator sets.

    ``FiniteGroup.closure`` grows element by element; the library's
    normal-subgroup lattice joins whole cosets and does not call it.

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
            new_members = g.closure(new_gens)
            if new_members not in seen:
                seen[new_members] = new_gens
                work.append((new_members, new_gens))
    subs = [Subgroup(g, ms) for ms in seen]
    subs.sort(key=lambda s: (s.order, s.sorted_members))
    return subs


def greedy_generators_by_closure(g, pool, start=frozenset()):
    """``FiniteGroup.greedy_generators`` with its reach reclosed element
    by element from {0} after each kept element, where the library grows
    it a coset of the previous reach at a time."""
    orders = g.element_orders()
    gens = []
    reach = g.closure(start)
    for a in sorted(pool, key=lambda a: (-orders[a], a)):
        if a not in reach:
            gens.append(a)
            reach = g.closure(set(start) | set(gens))
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


def is_associative(table):
    """Whether (a*b)*c == a*(b*c) for every triple, by a raw scan of the
    table: row a*b must equal row a read through row b."""
    for row_a in table:
        for b, row_b in enumerate(table):
            if list(table[row_a[b]]) != [row_a[x] for x in row_b]:
                return False
    return True


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


def all_automorphisms(g, upper, fixed):
    """Sorted image tuples of Aut^upper_fixed(G), every member reached as
    its own leaf of a backtracking search over generator images.

    It shares the library's generating sequence and fingerprint pools but
    not its enumeration: nothing here relies on the result being a group.
    Nor its arithmetic: ``extend`` closes each partial map element by
    element, multiplying every new element by every active generator,
    where the library's search maps a whole coset of the already mapped
    subgroup at a time."""
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


def distinguished_members(g, which):
    """Members of a distinguished subgroup, by testing g^-1 a(g) at every
    element of G and, for C_STAR and IA_STAR, a(z) = z at every z in Z(G)."""
    full = automorphism_group(g)
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
    return frozenset(members)
