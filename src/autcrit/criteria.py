"""Equality criteria for distinguished automorphism subgroups.

Each predicate takes a concrete non-abelian p-group (plus any required
normal subgroups), validates the statement's hypotheses, evaluates a
purely invariant-level condition (ranks, exponents, var markers of
abelian quotients and central subgroups), and returns a structured
verdict naming the clause that fired.  None of them enumerates a single
automorphism; the corpus harness checks every verdict against the
brute-force engine.

Criterion ids (COR_2_3 ... THM_2_12) are the stable vocabulary used in
reports:

* COR_2_3   Aut^{M1}_{N1}(G) = Aut^{M2}_{N2}(G) for nested (M_i, N_i)
* COR_2_4   Aut^{M}_{N}(G) = C*
* COR_2_5   Aut^{M}_{N}(G) = Aut_c(G)
* COR_2_6   IA(G)* = Aut_c(G)
* COR_2_7   Aut_c(G) = C*
* COR_2_8   IA(G) = IA(G)*          (class-2 hypothesis)
* COR_2_9   IA(G)* = C*
* COR_2_10  IA(G) = C*
* THM_2_12  IA(G) = Aut_c(G)

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
    hom_order,
    rank,
    var,
)
from .errors import (
    AbelianInputError,
    ClassNotTwoError,
    HypothesisViolationError,
    InvariantError,
)
from .automorphisms import CENTRAL, distinguished
from .groups import FiniteGroup, Subgroup, subgroup_product

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
    """Partition of G / (G' N); the quotient is abelian by construction."""
    key = ("mod_derived_part", n.members)

    def compute():
        return _quotient_part(g, subgroup_product(g.derived_subgroup(), n), p)

    return g._memo(key, compute)


def _quotient_part(g: FiniteGroup, kernel: Subgroup, p: int) -> PPartition:
    return g.quotient(kernel).group.abelian_partition(p)


def _hom_targets(g: FiniteGroup, a: PPartition, b: PPartition, c: PPartition) -> HomVerdict:
    """``decide_hom_equal_targets(a, b, c)``, decided once per group; an
    exception propagates and is not memoised."""
    return g._memo(("hom_targets", a, b, c), lambda: decide_hom_equal_targets(a, b, c))


def _hom_sources(g: FiniteGroup, d: PPartition, a: PPartition, b: PPartition) -> HomVerdict:
    """``decide_hom_equal_sources(d, a, b)``, which is the targets decision
    for (b, d, a), so the two share one memo entry."""
    return g._memo(("hom_targets", b, d, a), lambda: decide_hom_equal_sources(d, a, b))


def _decided(criterion: str, sub, evidence: dict[str, str]) -> CriterionVerdict:
    """The single-group verdict from one Hom-equality decision: NONE when
    unequal, DEGENERATE_EQUALITY on its identical branch, else CASE_II."""
    if not sub.equal:
        return CriterionVerdict(criterion, False, NONE, evidence)
    clause = DEGENERATE_EQUALITY if sub.clause == IDENTICAL else CASE_II
    return CriterionVerdict(criterion, True, clause, evidence)


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


def cor_2_3(g: FiniteGroup, m1: Subgroup, n1: Subgroup,
            m2: Subgroup, n2: Subgroup) -> CriterionVerdict:
    """Equality of Aut^{M1}_{N1}(G) and Aut^{M2}_{N2}(G).

    Hypotheses: M_i <= Z(G) and M_i <= N_i, all normal, M1 <= M2 and
    N2 <= N1.  Clause (i): M1 = M2 and the two quotients G/G'N_i are
    interchangeable as Hom sources against M1.  Clause (ii): the
    quotients agree and M1, M2 are interchangeable as Hom targets.
    Quotient equality is read as equality of abelian invariants, which
    for nested kernels is the same as G'N1 = G'N2.
    """
    p = _require_nonabelian_p_group(g)
    _check_cor_2_3_hypotheses(g, m1, n1, m2, n2)
    q1 = mod_derived_part(g, n1, p)
    q2 = mod_derived_part(g, n2, p)
    mp1 = m1.partition(p)
    mp2 = m2.partition(p)
    evidence = {
        "G/G'N1": str(q1), "G/G'N2": str(q2), "M1": str(mp1), "M2": str(mp2),
    }
    if m1.members == m2.members:
        sub = _hom_sources(g, q1, q2, mp1)
        evidence["case_i"] = sub.detail
        if sub.equal:
            return CriterionVerdict(COR_2_3, True, CASE_I, evidence)
    if q1 == q2:
        sub = _hom_targets(g, q1, mp1, mp2)
        evidence["case_ii"] = sub.detail
        if sub.equal:
            return CriterionVerdict(COR_2_3, True, CASE_II, evidence)
    return CriterionVerdict(COR_2_3, False, NONE, evidence)


def _check_m_z_n(g, m, n) -> Subgroup:
    z = g.center()
    _check_normal_roles(g, ((m, "M"), (n, "N")))
    if not (m.members <= z.members and z.members <= n.members):
        raise HypothesisViolationError("need M <= Z(G) <= N")
    return z


def cor_2_4(g: FiniteGroup, m: Subgroup, n: Subgroup) -> CriterionVerdict:
    """Aut^{M}_{N}(G) = C* for M <= Z(G) <= N.

    C* is Aut^{Z}_{Z}(G), so this is COR_2_3 with (M2, N2) = (Z(G), Z(G)):
    clause (i) is M = Z(G) with G/G'N, G/G'Z(G) interchangeable Hom
    sources against M; clause (ii) is G/G'N = G/G'Z(G) with M, Z(G)
    interchangeable Hom targets.
    """
    _require_nonabelian_p_group(g)
    z = _check_m_z_n(g, m, n)
    v = cor_2_3(g, m, n, z, z)
    labels = {"G/G'N1": "G/G'N", "G/G'N2": "G/G'Z", "M1": "M", "M2": "Z"}
    evidence = {labels.get(k, k): val for k, val in v.evidence.items()}
    return CriterionVerdict(COR_2_4, v.predicted_equal, v.clause, evidence)


def cor_2_5(g: FiniteGroup, m: Subgroup, n: Subgroup) -> CriterionVerdict:
    """Aut^{M}_{N}(G) = Aut_c(G) for M <= Z(G) <= N.

    Clause (i): M = Z(G) and either N <= G' or G/G'N and G/G' are
    interchangeable Hom sources against M; clause (ii): N <= G' and
    either M = Z(G) or M, Z(G) are interchangeable Hom targets against
    G/G'.
    """
    p = _require_nonabelian_p_group(g)
    z = _check_m_z_n(g, m, n)
    d = g.derived_subgroup()
    qn = mod_derived_part(g, n, p)
    q0 = _quotient_part(g, d, p)
    mp = m.partition(p)
    zp = z.partition(p)
    evidence = {"G/G'N": str(qn), "G/G'": str(q0), "M": str(mp), "Z": str(zp)}
    if m.members == z.members:
        # N <= G' is exactly the identical-quotient branch of the decision
        sub = _hom_sources(g, qn, q0, mp)
        evidence["case_i"] = sub.detail
        if sub.equal:
            return CriterionVerdict(COR_2_5, True, CASE_I, evidence)
    if n.members <= d.members:
        sub = _hom_targets(g, q0, mp, zp)
        evidence["case_ii"] = sub.detail
        if sub.equal:
            return CriterionVerdict(COR_2_5, True, CASE_II, evidence)
    return CriterionVerdict(COR_2_5, False, NONE, evidence)


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
    have equal rank and exp(Z(G)) <= var between them."""
    p = _require_nonabelian_p_group(g)
    z = g.center()
    d = g.derived_subgroup()
    qz = mod_derived_part(g, z, p)
    q0 = _quotient_part(g, d, p)
    zp = z.partition(p)
    sub = _hom_sources(g, qz, q0, zp)
    evidence = {"G/G'Z": str(qz), "G/G'": str(q0), "Z": str(zp), "detail": sub.detail}
    return _decided(COR_2_7, sub, evidence)


def cor_2_8(g: FiniteGroup) -> CriterionVerdict:
    """IA(G) = IA(G)* for class-2 groups: G' = Z(G), or G/Z(G) and G/G'
    have equal rank and exp(G') <= var between them."""
    p = _require_nonabelian_p_group(g)
    if g.nilpotence_class() != 2:
        raise ClassNotTwoError(f"nilpotence class is {g.nilpotence_class()}, not 2")
    z = g.center()
    d = g.derived_subgroup()
    qz = _quotient_part(g, z, p)
    q0 = _quotient_part(g, d, p)
    dp = d.partition(p)
    sub = _hom_sources(g, qz, q0, dp)
    evidence = {"G/Z": str(qz), "G/G'": str(q0), "G'": str(dp), "detail": sub.detail}
    return _decided(COR_2_8, sub, evidence)


def cor_2_9(g: FiniteGroup) -> CriterionVerdict:
    """IA(G)* = C* iff G' = Z(G), or G' < Z(G) with equal ranks and
    exp(G/Z(G)) <= var(G', Z(G)).  False outright above class 2."""
    p = _require_nonabelian_p_group(g)
    z = g.center()
    d = g.derived_subgroup()
    if not d.members <= z.members:
        return CriterionVerdict(
            COR_2_9, False, NONE, {"class": "G' is not central (class > 2)"}
        )
    dp = d.partition(p)
    zp = z.partition(p)
    qz = _quotient_part(g, z, p)
    sub = _hom_targets(g, qz, dp, zp)
    evidence = {"G'": str(dp), "Z": str(zp), "G/Z": str(qz), "detail": sub.detail}
    return _decided(COR_2_9, sub, evidence)


def cor_2_10(g: FiniteGroup) -> CriterionVerdict:
    """IA(G) = C* iff G' = Z(G), or G' < Z(G) with both rank conditions
    and the four-way equality exp(G') = var(G/Z, G/G') = exp(G/Z) =
    var(G', Z).  False outright above class 2."""
    p = _require_nonabelian_p_group(g)
    z = g.center()
    d = g.derived_subgroup()
    if not d.members <= z.members:
        return CriterionVerdict(
            COR_2_10, False, NONE, {"class": "G' is not central (class > 2)"}
        )
    if d.members == z.members:
        return CriterionVerdict(COR_2_10, True, DEGENERATE_EQUALITY, {"G'": "Z(G)"})
    dp = d.partition(p)
    zp = z.partition(p)
    qz = _quotient_part(g, z, p)
    q0 = _quotient_part(g, d, p)
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
    exp(G/G') <= var(G', Z(G)).  False outright above class 2."""
    p = _require_nonabelian_p_group(g)
    z = g.center()
    d = g.derived_subgroup()
    if not d.members <= z.members:
        return CriterionVerdict(
            THM_2_12, False, NONE, {"class": "G' is not central (class > 2)"}
        )
    dp = d.partition(p)
    zp = z.partition(p)
    q0 = _quotient_part(g, d, p)
    sub = _hom_targets(g, q0, dp, zp)
    evidence = {"G'": str(dp), "Z": str(zp), "G/G'": str(q0), "detail": sub.detail}
    return _decided(THM_2_12, sub, evidence)


def lemma_2_11_check(g: FiniteGroup) -> bool:
    """For class-2 groups with d(G') = d(Z(G)): assert G is purely
    non-abelian."""
    p = _require_nonabelian_p_group(g)
    if g.nilpotence_class() != 2:
        raise HypothesisViolationError("stated for nilpotence class 2")
    dp = g.derived_subgroup().partition(p)
    zp = g.center().partition(p)
    if rank(dp) != rank(zp):
        raise HypothesisViolationError(
            f"d(G') = {rank(dp)} differs from d(Z(G)) = {rank(zp)}"
        )
    return g.is_purely_nonabelian()[0]


def adney_yen_check(g: FiniteGroup) -> bool:
    """For purely non-abelian G: |Aut_c(G)| = |Hom(G/G', Z(G))|."""
    p = _require_nonabelian_p_group(g)
    if not g.is_purely_nonabelian()[0]:
        raise HypothesisViolationError("stated for purely non-abelian groups")
    q0 = _quotient_part(g, g.derived_subgroup(), p)
    zp = g.center().partition(p)
    return len(distinguished(g, CENTRAL)) == hom_order(q0, zp)
