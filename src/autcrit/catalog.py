"""Built-in corpus of small p-groups, plus group loading by name or file.

Every entry is described by a constructor recipe (``dihedral 16``,
``product(quaternion 8, cyclic 2)``, ...).  Evaluating a recipe builds
the abstract group, derives explicit permutation generators for it
(a natural action where one is obvious, the regular action otherwise),
and re-ingests those generators through the standard permutation
pipeline, so the ingestion path is exercised for every catalog group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import GroupFileError
from .formats import read_group_file
from .groups import FiniteGroup, direct_product

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[(),]")


@dataclass(frozen=True)
class GroupSpec:
    """One catalog entry: a unique name, its prime, and the recipe that
    constructs it."""

    name: str
    prime: int
    recipe: str
    description: str = ""


# -- abstract constructors ----------------------------------------------


def _table_from(elems, mul) -> FiniteGroup:
    idx = {e: i for i, e in enumerate(elems)}
    return FiniteGroup.from_table(
        [[idx[mul(a, b)] for b in elems] for a in elems]
    )


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def abelian_group(p: int, exps: tuple[int, ...]) -> FiniteGroup:
    g = cyclic_group(1)
    for e in exps:
        g = direct_product(g, cyclic_group(p**e))
    return g


def metacyclic_group(m: int, k: int, t: int) -> FiniteGroup:
    """Split metacyclic C_m x| C_k, the C_k generator acting as a -> a^t."""
    if pow(t, k, m) != 1:
        raise ValueError(f"t = {t} has order not dividing {k} mod {m}")
    elems = [(i, j) for i in range(m) for j in range(k)]

    def mul(x, y):
        return ((x[0] + pow(t, x[1], m) * y[0]) % m, (x[1] + y[1]) % k)

    return _table_from(elems, mul)


def dihedral_group(order: int) -> FiniteGroup:
    if order % 2 or order < 4:
        raise ValueError(f"no dihedral group of order {order}")
    return metacyclic_group(order // 2, 2, order // 2 - 1)


def quaternion_group(order: int) -> FiniteGroup:
    """Generalized quaternion: a of order n/2, b^2 = a^{n/4}, bab^-1 = a^-1."""
    if order < 8 or order & (order - 1):
        raise ValueError(f"no generalized quaternion group of order {order}")
    m2 = order // 2
    half = m2 // 2
    elems = [(i, j) for i in range(m2) for j in range(2)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        if j1 == 0:
            return ((i1 + i2) % m2, j2)
        i = (i1 - i2) % m2
        if j2 == 0:
            return (i, 1)
        return ((i + half) % m2, 0)

    return _table_from(elems, mul)


def semidihedral_group(order: int) -> FiniteGroup:
    if order < 16 or order & (order - 1):
        raise ValueError(f"no semidihedral group of order {order}")
    return metacyclic_group(order // 2, 2, order // 4 - 1)


def modular_group(order: int) -> FiniteGroup:
    """M_{p^k}: the acting generator sends a to a^{1 + p^{k-2}}."""
    from .groups import prime_power_order

    p, k = prime_power_order(order)
    if k < 3 or (p == 2 and k < 4):
        raise ValueError(f"no modular group of order {order}")
    m = order // p
    return metacyclic_group(m, p, m // p + 1)


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over F_p; extraspecial of exponent p
    for odd p."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mul(x, y):
        return (
            (x[0] + y[0]) % p,
            (x[1] + y[1]) % p,
            (x[2] + y[2] + x[0] * y[1]) % p,
        )

    return _table_from(elems, mul)


def wreath_group(p: int) -> FiniteGroup:
    """C_p wr C_p acting on p^2 points (maximal class for p odd)."""
    return FiniteGroup.from_permutation_generators(_wreath_gens(p))


def _wreath_gens(p: int) -> list[tuple[int, ...]]:
    n = p * p
    base = tuple((x + 1) % p if x < p else x for x in range(n))
    shift = tuple((x + p) % n for x in range(n))
    return [base, shift]


def pauli_type_16() -> FiniteGroup:
    """(C4 x C2) x| C2 with the order-2 action a -> ab, b -> b."""
    elems = [(i, j, k) for i in range(4) for j in range(2) for k in range(2)]

    def mul(x, y):
        i1, j1, k1 = x
        i2, j2, k2 = y
        return ((i1 + i2) % 4, (j1 + j2 + k1 * i2) % 2, (k1 + k2) % 2)

    return _table_from(elems, mul)


def central_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """(G x H) / <(z_g, z_h)>, merging one central involution of each
    factor (the smallest-index one; unique for the catalog's factors)."""
    zg = _central_involution(g)
    zh = _central_involution(h)
    prod = direct_product(g, h)
    diag = prod.generated_subgroup([zg * h.n + zh])
    return prod.quotient(diag).group


def _central_involution(g: FiniteGroup) -> int:
    for x in g.center().sorted_members:
        if g.element_order(x) == 2:
            return x
    raise ValueError("factor has no central involution")


# -- recipe evaluation ---------------------------------------------------


def eval_recipe(text: str) -> FiniteGroup:
    """Evaluate a constructor expression to an abstract group."""
    tokens = _TOKEN_RE.findall(text)
    group, rest = _parse_expr(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest} in recipe {text!r}")
    return group


def _parse_expr(tokens):
    if not tokens:
        raise ValueError("empty recipe")
    head, *rest = tokens
    if head in ("product", "central_product"):
        if not rest or rest[0] != "(":
            raise ValueError(f"{head} needs parenthesised arguments")
        left, rest = _parse_expr(rest[1:])
        if not rest or rest[0] != ",":
            raise ValueError(f"{head} needs two arguments")
        right, rest = _parse_expr(rest[1:])
        if not rest or rest[0] != ")":
            raise ValueError(f"unclosed {head}")
        combine = direct_product if head == "product" else central_product
        return combine(left, right), rest[1:]
    args = []
    while rest and rest[0].isdigit():
        args.append(int(rest[0]))
        rest = rest[1:]
    builders = {
        "cyclic": lambda: cyclic_group(args[0]),
        "abelian": lambda: abelian_group(args[0], tuple(args[1:])),
        "dihedral": lambda: dihedral_group(args[0]),
        "quaternion": lambda: quaternion_group(args[0]),
        "semidihedral": lambda: semidihedral_group(args[0]),
        "modular": lambda: modular_group(args[0]),
        "metacyclic": lambda: metacyclic_group(args[0], args[1], args[2]),
        "heisenberg": lambda: heisenberg_group(args[0]),
        "wreath": lambda: wreath_group(args[0]),
        "pauli_type_16": pauli_type_16,
    }
    if head not in builders:
        raise ValueError(f"unknown constructor {head!r}")
    return builders[head](), rest


def permutation_generators(spec: GroupSpec) -> list[tuple[int, ...]]:
    """Explicit permutation generators for a catalog entry.

    Natural actions are used where they are immediate (cyclic rotations,
    the dihedral polygon action, disjoint cycles for abelian groups, the
    wreath action on p^2 points); other entries use the rows of a
    generating sequence in the regular action.
    """
    tokens = spec.recipe.split()
    kind = tokens[0]
    if kind == "cyclic":
        n = int(tokens[1])
        return [tuple((x + 1) % n for x in range(n))]
    if kind == "abelian":
        p = int(tokens[1])
        exps = [int(t) for t in tokens[2:]]
        gens = []
        offset = 0
        total = sum(p**e for e in exps)
        for e in exps:
            m = p**e
            gen = list(range(total))
            for x in range(m):
                gen[offset + x] = offset + (x + 1) % m
            gens.append(tuple(gen))
            offset += m
        return gens
    if kind == "dihedral":
        m = int(tokens[1]) // 2
        rot = tuple((x + 1) % m for x in range(m))
        refl = tuple((-x) % m for x in range(m))
        return [rot, refl]
    if kind == "wreath":
        return _wreath_gens(int(tokens[1]))
    group = eval_recipe(spec.recipe)
    return [group.table[x] for x in group.generating_sequence()]


_CACHE: dict[str, FiniteGroup] = {}


def build_group(spec: GroupSpec, fresh: bool = False) -> FiniteGroup:
    """Construct (and cache) the group for a catalog entry, always via
    the permutation-generator ingestion path."""
    if not fresh and spec.name in _CACHE:
        return _CACHE[spec.name]
    gens = permutation_generators(spec)
    degree = len(gens[0]) if gens else 1
    group = FiniteGroup.from_permutation_generators(gens, degree=degree)
    if not fresh:
        _CACHE[spec.name] = group
    return group


# -- the corpus -----------------------------------------------------------


def _abelian_specs() -> list[GroupSpec]:
    from .abelian import partitions_up_to

    specs = []
    for p in (2, 3):
        for part in partitions_up_to(p, 5):
            if part.is_trivial:
                continue
            name = "x".join(f"C{p**e}" for e in part.exps)
            specs.append(
                GroupSpec(
                    name,
                    p,
                    f"abelian {p} " + " ".join(str(e) for e in part.exps),
                    f"abelian group of type {part}",
                )
            )
    return specs


def catalog() -> list[GroupSpec]:
    """All built-in groups: the non-abelian corpus (orders 8..81) plus
    every abelian type with exponent sum at most 5 at p = 2 and 3."""
    specs = [
        GroupSpec("Q8", 2, "quaternion 8", "quaternion group"),
        GroupSpec("D8", 2, "dihedral 8", "dihedral group of the square"),
        GroupSpec("D16", 2, "dihedral 16", "dihedral group of order 16"),
        GroupSpec("SD16", 2, "semidihedral 16", "semidihedral group of order 16"),
        GroupSpec("Q16", 2, "quaternion 16", "generalized quaternion of order 16"),
        GroupSpec("M16", 2, "modular 16", "modular group of order 16"),
        GroupSpec("D8xC2", 2, "product(dihedral 8, cyclic 2)", "D8 x C2"),
        GroupSpec("Q8xC2", 2, "product(quaternion 8, cyclic 2)", "Q8 x C2"),
        GroupSpec("D8oC4", 2, "central_product(dihedral 8, cyclic 4)",
                  "central product D8 o C4 (Pauli group)"),
        GroupSpec("C4:C4", 2, "metacyclic 4 4 3", "C4 x| C4, inverting action"),
        GroupSpec("C4xC2:C2", 2, "pauli_type_16", "(C4 x C2) x| C2, a -> ab"),
        GroupSpec("He3", 3, "heisenberg 3",
                  "extraspecial of order 27 and exponent 3"),
        GroupSpec("M27", 3, "modular 27",
                  "extraspecial of order 27 and exponent 9"),
        GroupSpec("D32", 2, "dihedral 32", "dihedral group of order 32"),
        GroupSpec("SD32", 2, "semidihedral 32", "semidihedral group of order 32"),
        GroupSpec("Q32", 2, "quaternion 32", "generalized quaternion of order 32"),
        GroupSpec("M32", 2, "modular 32", "modular group of order 32"),
        GroupSpec("D8xC4", 2, "product(dihedral 8, cyclic 4)", "D8 x C4"),
        GroupSpec("Q8xC4", 2, "product(quaternion 8, cyclic 4)", "Q8 x C4"),
        GroupSpec("D16xC2", 2, "product(dihedral 16, cyclic 2)", "D16 x C2"),
        GroupSpec("D8oD8", 2, "central_product(dihedral 8, dihedral 8)",
                  "extraspecial of order 32, plus type"),
        GroupSpec("D8oQ8", 2, "central_product(dihedral 8, quaternion 8)",
                  "extraspecial of order 32, minus type"),
        GroupSpec("M81", 3, "modular 81", "modular group of order 81"),
        GroupSpec("C9:C9", 3, "metacyclic 9 9 4", "C9 x| C9, a -> a^4"),
        GroupSpec("C3wrC3", 3, "wreath 3", "C3 wr C3, maximal class"),
    ]
    specs.extend(_abelian_specs())
    return specs


def get_spec(name: str) -> GroupSpec:
    for spec in catalog():
        if spec.name == name:
            return spec
    raise KeyError(f"no catalog group named {name!r}")


def load_group(ref: str) -> tuple[str, FiniteGroup]:
    """Resolve a catalog name or a file path to (display name, group)."""
    try:
        spec = get_spec(ref)
    except KeyError:
        spec = None
    if spec is not None:
        return spec.name, build_group(spec)
    path = Path(ref)
    if path.exists():
        return path.name, read_group_file(path)
    raise GroupFileError(f"{ref!r} is neither a catalog name nor a readable file")
