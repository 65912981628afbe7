"""autcrit: decision procedures for equality of distinguished
automorphism subgroups of finite p-groups, plus the brute-force
machinery that verifies them on a corpus of small groups."""

from .abelian import (
    HomVerdict,
    PPartition,
    decide_hom_equal_sources,
    decide_hom_equal_targets,
    embeds,
    exponent,
    hom_order,
    hom_type,
    rank,
    var,
)
from .groups import FiniteGroup, Quotient, Subgroup, direct_product
from .automorphisms import (
    AutSet,
    Automorphism,
    aut_upper_lower,
    automorphism_group,
    autset_equal,
    distinguished,
    hom_construct_auts,
    inner_automorphisms,
)
from .criteria import (
    CriterionVerdict,
    adney_yen_check,
    cor_2_3,
    cor_2_4,
    cor_2_5,
    cor_2_6,
    cor_2_7,
    cor_2_8,
    cor_2_9,
    cor_2_10,
    lemma_2_11_check,
    thm_2_12,
)
from .catalog import GroupSpec, catalog, get_spec, load_group

__version__ = "0.1.0"

__all__ = [
    "AutSet",
    "Automorphism",
    "CriterionVerdict",
    "FiniteGroup",
    "GroupSpec",
    "HomVerdict",
    "PPartition",
    "Quotient",
    "Subgroup",
    "adney_yen_check",
    "aut_upper_lower",
    "automorphism_group",
    "autset_equal",
    "catalog",
    "cor_2_3",
    "cor_2_4",
    "cor_2_5",
    "cor_2_6",
    "cor_2_7",
    "cor_2_8",
    "cor_2_9",
    "cor_2_10",
    "decide_hom_equal_sources",
    "decide_hom_equal_targets",
    "direct_product",
    "distinguished",
    "embeds",
    "exponent",
    "get_spec",
    "hom_construct_auts",
    "hom_order",
    "hom_type",
    "inner_automorphisms",
    "lemma_2_11_check",
    "load_group",
    "rank",
    "thm_2_12",
    "var",
]
