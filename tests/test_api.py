"""The public API: symfai.__all__ lists exactly these names, each of which resolves.

A new public name has to be added here on purpose.
"""

import symfai

PUBLIC = [
    "AttackCertificate",
    "BoundReport",
    "CapabilityError",
    "DecomposedForm",
    "DenseAnf",
    "DenseBooleanFunction",
    "GapStatistic",
    "ImmunityProfile",
    "InvariantViolation",
    "Sanfv",
    "SearchReport",
    "SplitForm",
    "WeightValueVector",
    "add",
    "affine_multiplier",
    "ai",
    "ai_symmetric",
    "all_certificates",
    "anf_to_table",
    "bound_suite",
    "compose",
    "decompose",
    "dense_degree",
    "dense_from_sanfv",
    "dense_from_values",
    "dense_mul",
    "evaluate",
    "find_symmetric_mai",
    "is_aar",
    "majority",
    "min_annihilator_degree",
    "min_multiplier_degree",
    "moebius",
    "mul",
    "near_power_certificate",
    "parse_function",
    "product_degree_gap_statistic",
    "profile",
    "profile_all",
    "residue_multipliers",
    "sigma",
    "sigma_product_binomial",
    "split",
    "tables_csv",
    "threshold",
    "to_sanfv",
    "to_values",
]


def test_public_names_are_fixed():
    assert len(PUBLIC) == 47
    assert sorted(symfai.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in symfai.__all__:
        assert getattr(symfai, name, None) is not None, name
