"""Every name the benchmark's span tracer wraps still exists in the package.

The tracer (perfbench/tracer.py) binds private functions by name, and only
the slow benchmark smoke run would otherwise notice a refactor dropping one.
"""

from pathlib import Path

import pytest

from symfai import attacks, cli, dense, gf2, immunity, sanfv, search

MODULES = {
    "attacks": attacks, "cli": cli, "dense": dense, "gf2": gf2,
    "immunity": immunity, "sanfv": sanfv, "search": search,
}


@pytest.fixture(scope="module")
def tracer():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracer
    return tracer


def test_every_traced_name_resolves(tracer):
    targets = list(tracer.TABLE_CACHES)
    for spans in tracer.SPANS.values():
        targets.extend(spans)
    for module_name, path in targets:
        owner = MODULES[module_name]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert callable(owner.__dict__.get(attr)), (module_name, path)


def test_traced_cli_reads_zero_span_cache_info():
    assert callable(immunity._zero_span_min_degree.cache_info)
