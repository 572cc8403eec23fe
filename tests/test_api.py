"""The public API: symfai.__all__ lists exactly these names, each of which resolves.

Names resolve lazily from their home modules, so importing the package
loads no submodule.

A new public name has to be added here on purpose.
"""

import importlib

import pytest

import symfai

from conftest import run_python

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


def test_every_public_name_is_its_home_modules_object():
    # the home module is where the object is defined, so resolving a name
    # loads no module it does not need
    for name in PUBLIC:
        obj = getattr(symfai, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__ == f"symfai.{symfai._HOME[name]}", name
        assert getattr(home, name) is obj, name


def test_public_names_are_read_from_their_home_module(monkeypatch):
    # nothing is copied into the package namespace, so a rebinding in the
    # home module is what the package serves
    from symfai import sanfv

    marker = object()
    monkeypatch.setattr(sanfv, "majority", marker)
    assert symfai.majority is marker
    assert "majority" not in vars(symfai)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from symfai import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    assert set(PUBLIC) <= set(dir(symfai))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symfai.no_such_name  # noqa: B018
    assert getattr(symfai, "no_such_name", None) is None


def test_import_symfai_loads_no_submodule():
    proc = run_python("-c", "import sys, symfai; print(sorted(m for m in sys.modules if m.startswith('symfai.')))",
                      text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


SUBMODULES = ["attacks", "cli", "dense", "errors", "gf2", "immunity", "sanfv", "search"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_before_it_is_imported(name):
    code = (
        "import sys, symfai\n"
        f"before = 'symfai.{name}' in sys.modules\n"
        f"print(before, symfai.{name} is sys.modules['symfai.{name}'])\n"
    )
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"
