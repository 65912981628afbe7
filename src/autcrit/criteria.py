"""Equality criteria for distinguished automorphism subgroups.

Each predicate takes a concrete non-abelian p-group (plus any required
normal subgroups), validates the statement's hypotheses, evaluates a
purely invariant-level condition (ranks, exponents, var markers of
abelian quotients and central subgroups), and returns a structured
verdict naming the clause that fired.  None of them enumerates a single
automorphism; the corpus harness checks every verdict against the
brute-force engine.

Seven criteria compare Aut^{M1}_{N1}(G) with Aut^{M2}_{N2}(G), M1 <= M2
central and N2 <= N1, and share one condition, that of COR_2_3, at the
(M1, N1, M2, N2) listed below (Z = Z(G); Aut_c = Aut^{Z}_{1}, C* =
Aut^{Z}_{Z}, IA = Aut^{G'}_{1}, IA* = Aut^{G'}_{Z}).  Criterion ids are
the stable vocabulary used in reports:

* COR_2_3   Aut^{M1}_{N1}(G) = Aut^{M2}_{N2}(G)   (M1, N1, M2, N2)
* COR_2_4   Aut^{M}_{N}(G) = C*                   (M, N, Z, Z)
* COR_2_5   Aut^{M}_{N}(G) = Aut_c(G)             (M, N, Z, 1)
* COR_2_6   IA(G)* = Aut_c(G)                     iff G' = Z(G)
* COR_2_7   Aut_c(G) = C*                         (Z, Z, Z, 1)
* COR_2_8   IA(G) = IA(G)*    (class 2 only)      (G', Z, G', 1)
* COR_2_9   IA(G)* = C*                           (G', Z, Z, Z)
* COR_2_10  IA(G) = C*                            rank and exponent test
* THM_2_12  IA(G) = Aut_c(G)                      (G', 1, Z, 1)

COR_2_9, COR_2_10 and THM_2_12 are false outright when G' is not central.

Clause tags: CASE_I / CASE_II are the two alternative conditions of the
parameterised criteria; for the single-group criteria the degenerate
containment branch (G' = Z(G), or Z(G) <= G') is tagged
DEGENERATE_EQUALITY and the rank/exponent/var branch CASE_II.  NONE
always means predicted unequal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import (
    IDENTICAL,
    HomVerdict,
    PPartition,
    decide_hom_equal_sources,
    decide_hom_equal_targets,
    exponent,
    rank,
    var,
)
from .errors import (
    AbelianInputError,
    ClassNotTwoError,
    HypothesisViolationError,
    InvariantError,
)
from .groups import FiniteGroup, Subgroup

COR_2_3 = "COR_2_3"
COR_2_4 = "COR_2_4"
COR_2_5 = "COR_2_5"
COR_2_6 = "COR_2_6"
COR_2_7 = "COR_2_7"
COR_2_8 = "COR_2_8"
COR_2_9 = "COR_2_9"
COR_2_10 = "COR_2_10"
THM_2_12 = "THM_2_12"

CRITERION_IDS = (
    COR_2_3, COR_2_4, COR_2_5, COR_2_6, COR_2_7, COR_2_8, COR_2_9, COR_2_10,
    THM_2_12,
)

CASE_I = "CASE_I"
CASE_II = "CASE_II"
NONE = "NONE"
DEGENERATE_EQUALITY = "DEGENERATE_EQUALITY"


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    predicted_equal: bool
    clause: str
    evidence: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if (self.clause == NONE) == self.predicted_equal:
            raise InvariantError(f"clause {self.clause} contradicts predicted_equal")


def _require_nonabelian_p_group(g: FiniteGroup) -> int:
    pp = g.prime_power()
    if pp is None:
        raise AbelianInputError("trivial group")
    if g.is_abelian():
        raise AbelianInputError("criterion stated for non-abelian groups")
    return pp[0]


def mod_derived_part(g: FiniteGroup, n: Subgroup, p: int) -> PPartition:
    """Partition of G / (G' N), read as the section A / pi(N) of the
    abelian A = G/G', the one quotient G builds (memoised, and built by
    ``FiniteGroup.is_purely_nonabelian`` too), with pi its projection.
    The count is memoised on A by pi(N), so every N with the same G'N
    shares one; the result is memoised on G by N."""
    def compute():
        q = g.quotient(g.derived_subgroup())
        a, image = q.group, frozenset(map(q.projection.__getitem__, n.members))
        return a._memo(("section", image), lambda: a.section_partition(
            a.full_subgroup(), Subgroup(a, image), p))

    return g._memo(("mod_derived_part", n.members), compute)


def _hom_targets(g: FiniteGroup, a: PPartition, b: PPartition, c: PPartition) -> HomVerdict:
    """``decide_hom_equal_targets(a, b, c)``, decided once per group; an
    exception propagates and is not memoised."""
    return g._memo(("hom_targets", a, b, c), lambda: decide_hom_equal_targets(a, b, c))


def _hom_sources(g: FiniteGroup, d: PPartition, a: PPartition, b: PPartition) -> HomVerdict:
    """``decide_hom_equal_sources(d, a, b)``, which is the targets decision
    for (b, d, a), so the two share one memo entry."""
    return g._memo(("hom_targets", b, d, a), lambda: decide_hom_equal_sources(d, a, b))


def _decided(criterion: str, clause: str, sub, evidence: dict[str, str]) -> CriterionVerdict:
    """The single-group verdict from ``_nested``: NONE when its clause is,
    DEGENERATE_EQUALITY when the deciding Hom equality took its identical
    branch, else CASE_II."""
    if clause == NONE:
        return CriterionVerdict(criterion, False, NONE, evidence)
    clause = DEGENERATE_EQUALITY if sub.clause == IDENTICAL else CASE_II
    return CriterionVerdict(criterion, True, clause, evidence)


def _above_class_two(criterion: str, g: FiniteGroup) -> CriterionVerdict | None:
    """NONE outright when G' is not central (class > 2), else None."""
    if g.derived_subgroup().members <= g.center().members:
        return None
    return CriterionVerdict(criterion, False, NONE, {"class": "G' is not central (class > 2)"})


def _check_normal_roles(g, roles) -> None:
    """Each (subgroup, role) must be a normal subgroup of g."""
    for s, role in roles:
        if s.parent is not g:
            raise HypothesisViolationError(f"{role} belongs to a different group")
        if not s.is_normal():
            raise HypothesisViolationError(f"{role} is not normal")


def _check_cor_2_3_hypotheses(g, m1, n1, m2, n2) -> None:
    z = g.center()
    _check_normal_roles(g, ((m1, "M1"), (n1, "N1"), (m2, "M2"), (n2, "N2")))
    for m, n, i in ((m1, n1, 1), (m2, n2, 2)):
        if not (m.members <= z.members and m.members <= n.members):
            raise HypothesisViolationError(f"M{i} is not contained in Z(G) and N{i}")
    if not m1.members <= m2.members:
        raise HypothesisViolationError("M1 is not contained in M2")
    if not n2.members <= n1.members:
        raise HypothesisViolationError("N2 is not contained in N1")


def _nested(g, p, m1, n1, m2, n2,
            labels=("G/G'N1", "G/G'N2", "M1", "M2", "case_i", "case_ii")):
    """The COR_2_3 condition at (M1, N1, M2, N2), as (clause, the
    HomVerdict that settled it or None, evidence).  ``labels`` name the
    evidence: the partitions of G/G'N1, G/G'N2, M1, M2, then the detail
    of the Hom decision of clause (i) and of clause (ii).

    Clause (i): M1 = M2 and G/G'N1, G/G'N2 are interchangeable Hom
    sources against M1.  Clause (ii): the quotients agree (as invariants,
    which for nested kernels is G'N1 = G'N2) and M1, M2 are
    interchangeable Hom targets against them.  Needs only M1 <= M2
    central and N2 <= N1, all normal; callers check their hypotheses.
    """
    q1 = mod_derived_part(g, n1, p)
    q2 = mod_derived_part(g, n2, p)
    mp1 = m1.partition(p)
    mp2 = m2.partition(p)
    k1, k2, km1, km2, ki, kii = labels
    evidence = {k1: str(q1), k2: str(q2), km1: str(mp1), km2: str(mp2)}
    sub = None
    if m1.members == m2.members:
        sub = _hom_sources(g, q1, q2, mp1)
        evidence[ki] = sub.detail
        if sub.equal:
            return CASE_I, sub, evidence
    if q1 == q2:
        sub = _hom_targets(g, q1, mp1, mp2)
        evidence[kii] = sub.detail
        if sub.equal:
            return CASE_II, sub, evidence
    return NONE, sub, evidence


def cor_2_3(g: FiniteGroup, m1: Subgroup, n1: Subgroup,
            m2: Subgroup, n2: Subgroup) -> CriterionVerdict:
    """Equality of Aut^{M1}_{N1}(G) and Aut^{M2}_{N2}(G): the condition
    of ``_nested``.

    Hypotheses: M_i <= Z(G) and M_i <= N_i, all normal, M1 <= M2 and
    N2 <= N1.
    """
    p = _require_nonabelian_p_group(g)
    _check_cor_2_3_hypotheses(g, m1, n1, m2, n2)
    clause, _, evidence = _nested(g, p, m1, n1, m2, n2)
    return CriterionVerdict(COR_2_3, clause != NONE, clause, evidence)


def _check_m_z_n(g, m, n) -> Subgroup:
    z = g.center()
    _check_normal_roles(g, ((m, "M"), (n, "N")))
    if not (m.members <= z.members and z.members <= n.members):
        raise HypothesisViolationError("need M <= Z(G) <= N")
    return z


def cor_2_4(g: FiniteGroup, m: Subgroup, n: Subgroup) -> CriterionVerdict:
    """Aut^{M}_{N}(G) = C* for M <= Z(G) <= N: COR_2_3 at (M, N, Z, Z),
    whose hypotheses M <= Z(G) <= N implies."""
    p = _require_nonabelian_p_group(g)
    z = _check_m_z_n(g, m, n)
    labels = ("G/G'N", "G/G'Z", "M", "Z", "case_i", "case_ii")
    clause, _, evidence = _nested(g, p, m, n, z, z, labels)
    return CriterionVerdict(COR_2_4, clause != NONE, clause, evidence)


def cor_2_5(g: FiniteGroup, m: Subgroup, n: Subgroup) -> CriterionVerdict:
    """Aut^{M}_{N}(G) = Aut_c(G) for M <= Z(G) <= N: the condition at
    (M, N, Z, 1), whose clause (ii) needs N <= G' (equal quotients)."""
    p = _require_nonabelian_p_group(g)
    z = _check_m_z_n(g, m, n)
    labels = ("G/G'N", "G/G'", "M", "Z", "case_i", "case_ii")
    clause, _, evidence = _nested(g, p, m, n, z, g.trivial_subgroup(), labels)
    return CriterionVerdict(COR_2_5, clause != NONE, clause, evidence)


def cor_2_6(g: FiniteGroup) -> CriterionVerdict:
    """IA(G)* = Aut_c(G) holds exactly when G' = Z(G)."""
    _require_nonabelian_p_group(g)
    d = g.derived_subgroup()
    z = g.center()
    evidence = {"|G'|": str(d.order), "|Z|": str(z.order)}
    if d.members == z.members:
        return CriterionVerdict(COR_2_6, True, DEGENERATE_EQUALITY, evidence)
    return CriterionVerdict(COR_2_6, False, NONE, evidence)


def cor_2_7(g: FiniteGroup) -> CriterionVerdict:
    """Aut_c(G) = C* iff Z(G) <= G', or the quotients G/G'Z(G) and G/G'
    have equal rank and exp(Z(G)) <= var between them: (Z, Z, Z, 1)."""
    p = _require_nonabelian_p_group(g)
    z = g.center()
    labels = ("G/G'Z", "G/G'", "Z", "Z", "detail", "detail")
    return _decided(COR_2_7, *_nested(g, p, z, z, z, g.trivial_subgroup(), labels))


def cor_2_8(g: FiniteGroup) -> CriterionVerdict:
    """IA(G) = IA(G)* for class-2 groups: G' = Z(G), or G/Z(G) and G/G'
    have equal rank and exp(G') <= var between them: (G', Z, G', 1)."""
    p = _require_nonabelian_p_group(g)
    if g.nilpotence_class() != 2:
        raise ClassNotTwoError(f"nilpotence class is {g.nilpotence_class()}, not 2")
    d = g.derived_subgroup()
    labels = ("G/Z", "G/G'", "G'", "G'", "detail", "detail")
    return _decided(COR_2_8, *_nested(g, p, d, g.center(), d, g.trivial_subgroup(), labels))


def cor_2_9(g: FiniteGroup) -> CriterionVerdict:
    """IA(G)* = C* iff G' = Z(G), or G' < Z(G) with equal ranks and
    exp(G/Z(G)) <= var(G', Z(G)): (G', Z, Z, Z).  False outright above
    class 2."""
    p = _require_nonabelian_p_group(g)
    if (outright := _above_class_two(COR_2_9, g)) is not None:
        return outright
    z = g.center()
    labels = ("G/Z", "G/Z", "G'", "Z", "detail", "detail")
    return _decided(COR_2_9, *_nested(g, p, g.derived_subgroup(), z, z, z, labels))


def cor_2_10(g: FiniteGroup) -> CriterionVerdict:
    """IA(G) = C* iff G' = Z(G), or G' < Z(G) with both rank conditions
    and the four-way equality exp(G') = var(G/Z, G/G') = exp(G/Z) =
    var(G', Z).  False outright above class 2."""
    p = _require_nonabelian_p_group(g)
    if (outright := _above_class_two(COR_2_10, g)) is not None:
        return outright
    z = g.center()
    d = g.derived_subgroup()
    if d.members == z.members:
        return CriterionVerdict(COR_2_10, True, DEGENERATE_EQUALITY, {"G'": "Z(G)"})
    dp = d.partition(p)
    zp = z.partition(p)
    qz = g.section_partition(g.full_subgroup(), z, p)
    q0 = g.section_partition(g.full_subgroup(), d, p)
    evidence = {"G'": str(dp), "Z": str(zp), "G/Z": str(qz), "G/G'": str(q0)}
    if rank(dp) != rank(zp) or rank(qz) != rank(q0):
        evidence["ranks"] = (
            f"d(G')={rank(dp)} d(Z)={rank(zp)} d(G/Z)={rank(qz)} d(G/G')={rank(q0)}"
        )
        return CriterionVerdict(COR_2_10, False, NONE, evidence)
    quantities = {
        "exp(G')": exponent(dp),
        "var(G/Z,G/G')": var(qz, q0),
        "exp(G/Z)": exponent(qz),
        "var(G',Z)": var(dp, zp),
    }
    evidence.update({k: str(v) for k, v in quantities.items()})
    values = set(quantities.values())
    if len(values) == 1:
        return CriterionVerdict(COR_2_10, True, CASE_II, evidence)
    return CriterionVerdict(COR_2_10, False, NONE, evidence)


def thm_2_12(g: FiniteGroup) -> CriterionVerdict:
    """IA(G) = Aut_c(G) iff G' = Z(G), or G' < Z(G) with equal ranks and
    exp(G/G') <= var(G', Z(G)): (G', 1, Z, 1).  False outright above
    class 2."""
    p = _require_nonabelian_p_group(g)
    if (outright := _above_class_two(THM_2_12, g)) is not None:
        return outright
    one = g.trivial_subgroup()
    labels = ("G/G'", "G/G'", "G'", "Z", "detail", "detail")
    return _decided(THM_2_12, *_nested(g, p, g.derived_subgroup(), one, g.center(), one, labels))

