"""Arithmetic over cyclic decompositions of finite abelian p-groups.

A finite abelian p-group is recorded by its prime and the non-increasing
sequence of cyclic-factor exponents, so ``PPartition(2, (2, 1))`` is
C4 x C2 and the empty sequence is the trivial group.  On top of that
representation this module computes rank, exponent, embedding order,
Hom-group orders and structure, and the ``var`` marker: for two embedded
groups of equal rank, the order of the last cyclic factor of the smaller
group that is strictly below the corresponding factor of the larger one.

One decision, ``decide_hom_equal_targets``, settles by pure arithmetic
whether enlarging the target of a Hom group changes it, and returns a
structured verdict naming the clause that fired, so callers can report
why two automorphism subgroups coincide.  Shrinking the source is the
same decision with the roles swapped, since |Hom(X, Y)| = |Hom(Y, X)|;
``decide_hom_equal_sources`` is that call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    HypothesisViolationError,
    InvariantError,
    PrimeMismatchError,
    VarUndefinedError,
)

# Clause tags for HomVerdict.
IDENTICAL = "IDENTICAL"
RANK_AND_VAR = "RANK_AND_VAR"
TRIVIAL_HOM = "TRIVIAL_HOM"
UNEQUAL = "UNEQUAL"

_PARTITION_RE = re.compile(r"^\s*(\d+)\s*\^\s*\[([\d\s,]*)\]\s*$")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PPartition:
    """Cyclic decomposition of a finite abelian p-group.

    ``exps`` is non-increasing and every entry is >= 1; the empty tuple
    denotes the trivial group.
    """

    p: int
    exps: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(int(e) for e in self.exps))
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        for e in self.exps:
            if e < 1:
                raise ValueError(f"exponent {e} is not positive")
        if any(a < b for a, b in zip(self.exps, self.exps[1:])):
            raise ValueError(f"exponents {self.exps} are not non-increasing")

    @property
    def order(self) -> int:
        return self.p ** sum(self.exps)

    @property
    def is_trivial(self) -> bool:
        return not self.exps

    @classmethod
    def parse(cls, text: str) -> "PPartition":
        """Parse the CLI syntax ``p^[e1,e2,...]``, e.g. ``2^[2,1]``."""
        m = _PARTITION_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse partition {text!r}; expected p^[e1,e2,...]")
        body = m.group(2).strip()
        exps = tuple(int(t) for t in re.split(r"[\s,]+", body) if t) if body else ()
        return cls(int(m.group(1)), exps)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        return f"{self.p}^[{','.join(str(e) for e in self.exps)}]"

@dataclass(frozen=True)
class HomVerdict:
    """Outcome of a Hom-group equality decision.

    ``clause`` records which branch settled the question: IDENTICAL (the
    two compared groups coincide), RANK_AND_VAR (equal ranks and the
    exponent bound against var holds; ``r_index`` is the 1-based index
    of the last differing cyclic factor), TRIVIAL_HOM (both Hom groups
    are trivial because the varying side maps from or to the trivial
    group), or UNEQUAL.
    """

    equal: bool
    clause: str
    r_index: int | None = None
    detail: str = ""

    def __post_init__(self):
        if self.equal == (self.clause == UNEQUAL):
            raise InvariantError(f"clause {self.clause} with equal = {self.equal}")
        if (self.r_index is not None) != (self.clause == RANK_AND_VAR):
            raise InvariantError(f"clause {self.clause} with r_index = {self.r_index}")


def _require_same_prime(*parts: PPartition) -> int:
    p = parts[0].p
    for q in parts[1:]:
        if q.p != p:
            raise PrimeMismatchError(f"mixed primes {p} and {q.p}")
    return p


def rank(x: PPartition) -> int:
    """Number of cyclic factors, d(X)."""
    return len(x.exps)


def exponent(x: PPartition) -> int:
    """Largest cyclic-factor order; p**0 = 1 for the trivial group."""
    return x.p ** (x.exps[0] if x.exps else 0)


def embeds(x: PPartition, y: PPartition) -> bool:
    """True iff X occurs inside Y, i.e. rank(X) <= rank(Y) and the
    exponents dominate componentwise.

    For finite abelian p-groups this single test characterises both "X
    is isomorphic to a subgroup of Y" and "X is a quotient of Y".
    """
    _require_same_prime(x, y)
    if len(x.exps) > len(y.exps):
        return False
    return all(a <= b for a, b in zip(x.exps, y.exps))


def var_with_index(x: PPartition, y: PPartition) -> tuple[int, int]:
    """var(X, Y) together with its 1-based factor index r.

    Defined for X properly embedded in Y with rank(X) = rank(Y): r is
    the largest index with x_r < y_r (equivalently the unique index such
    that all later factors agree), and the value is p**x_r.
    """
    _require_same_prime(x, y)
    if x == y:
        raise VarUndefinedError(f"var({x}, {y}): the groups coincide")
    if len(x.exps) != len(y.exps):
        raise VarUndefinedError(f"var({x}, {y}): ranks {len(x.exps)} != {len(y.exps)}")
    if not embeds(x, y):
        raise VarUndefinedError(f"var({x}, {y}): {x} is not embedded in {y}")
    r = max(i for i, (a, b) in enumerate(zip(x.exps, y.exps)) if a < b)
    return x.p ** x.exps[r], r + 1


def var(x: PPartition, y: PPartition) -> int:
    """Order of the last cyclic factor of X strictly smaller than the
    corresponding factor of Y."""
    return var_with_index(x, y)[0]


def hom_order(a: PPartition, b: PPartition) -> int:
    """|Hom(A, B)| = product over all factor pairs of p**min(alpha_i, beta_j)."""
    p = _require_same_prime(a, b)
    s = sum(min(ai, bj) for ai in a.exps for bj in b.exps)
    return p**s


def hom_type(a: PPartition, b: PPartition) -> PPartition:
    """Cyclic decomposition of Hom(A, B): the multiset of min(alpha_i, beta_j).

    Hom(C_{p^a}, C_{p^b}) is cyclic of order p**min(a, b) and Hom
    distributes over direct sums, so the factor exponents are exactly
    these minima.
    """
    p = _require_same_prime(a, b)
    mins = sorted((min(ai, bj) for ai in a.exps for bj in b.exps), reverse=True)
    return PPartition(p, tuple(mins))


def decide_hom_equal_targets(a: PPartition, b: PPartition, c: PPartition) -> HomVerdict:
    """Decide whether Hom(A, B) = Hom(A, C) for B a subgroup of C.

    Equality holds iff B = C, or A is trivial (both Hom groups are then
    trivial), or d(B) = d(C) and exp(A) <= var(B, C).  The verdict's
    hom orders always agree with :func:`hom_order`.
    """
    _require_same_prime(a, b, c)
    if not embeds(b, c):
        raise HypothesisViolationError(f"{b} is not a subgroup of {c}")
    if b == c:
        return HomVerdict(True, IDENTICAL, detail=f"B = C = {b}")
    if a.is_trivial:
        return HomVerdict(True, TRIVIAL_HOM, detail="A is trivial; both Hom groups are trivial")
    if rank(b) != rank(c):
        return HomVerdict(
            False, UNEQUAL, detail=f"d(B) = {rank(b)} != d(C) = {rank(c)}"
        )
    v, r = var_with_index(b, c)
    if exponent(a) <= v:
        return HomVerdict(
            True, RANK_AND_VAR, r_index=r,
            detail=f"exp(A) = {exponent(a)} <= var(B, C) = {v} at r = {r}",
        )
    return HomVerdict(
        False, UNEQUAL, detail=f"exp(A) = {exponent(a)} > var(B, C) = {v} at r = {r}"
    )


def decide_hom_equal_sources(d: PPartition, a: PPartition, b: PPartition) -> HomVerdict:
    """Decide whether |Hom(D, B)| = |Hom(A, B)| for D a quotient of A.

    Both orders are products of p**min(x_i, y_j) over factor pairs, so
    |Hom(X, Y)| = |Hom(Y, X)| and this is the targets decision for (B, D, A):
    same hypothesis, branches and ``r_index``; the detail uses its letters.
    """
    return decide_hom_equal_targets(b, d, a)


def partitions_up_to(p: int, max_sum: int) -> list[PPartition]:
    """All partitions at prime p with exponent sum <= max_sum, the trivial
    group included.  Enumeration order is deterministic: by sum, then
    lexicographically descending."""
    out: list[PPartition] = [PPartition(p, ())]
    for total in range(1, max_sum + 1):
        out.extend(PPartition(p, exps) for exps in _partitions_of(total))
    return out


def _partitions_of(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    cap = n if cap is None else min(cap, n)
    result = []
    for first in range(cap, 0, -1):
        for rest in _partitions_of(n - first, first):
            result.append((first,) + rest)
    return result
