"""symfai: exact analysis of symmetric Boolean functions against algebraic attacks.

The public names resolve lazily through a module ``__getattr__`` (PEP 562):
importing the package loads none of its modules, and each name imports its
home module when it is read.  So a CLI command loads only the modules it
runs, and ``symfai.attacks`` and the other submodules resolve on first use.
Names are looked up in their home module on every access and never copied
into this namespace, so a binding replaced there is the one seen here.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "attacks": (
        "AttackCertificate",
        "BoundReport",
        "GapStatistic",
        "affine_multiplier",
        "all_certificates",
        "bound_suite",
        "near_power_certificate",
        "product_degree_gap_statistic",
        "residue_multipliers",
        "tables_csv",
    ),
    "dense": (
        "DenseAnf",
        "DenseBooleanFunction",
        "ai",
        "anf_to_table",
        "dense_degree",
        "dense_from_sanfv",
        "dense_from_values",
        "dense_mul",
        "min_annihilator_degree",
        "min_multiplier_degree",
        "moebius",
    ),
    "errors": ("CapabilityError", "InvariantViolation"),
    "immunity": ("ImmunityProfile", "ai_symmetric", "is_aar", "profile"),
    "sanfv": (
        "DecomposedForm",
        "Sanfv",
        "SplitForm",
        "WeightValueVector",
        "add",
        "compose",
        "decompose",
        "evaluate",
        "majority",
        "mul",
        "parse_function",
        "sigma",
        "sigma_product_binomial",
        "split",
        "threshold",
        "to_sanfv",
        "to_values",
    ),
    "search": ("SearchReport", "find_symmetric_mai", "profile_all"),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset({*_PUBLIC, "cli", "gf2"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
