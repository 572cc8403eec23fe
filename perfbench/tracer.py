"""Span tracer that wraps symfai's functions from outside the package.

``install()`` replaces every binding of each traced function (the defining
module's name, every ``from .x import y`` copy in the other symfai modules,
and class attributes for methods) with a timing wrapper.  Each wrapper
records a span: its duration goes to the span's total, and its duration
minus the time covered by nested spans goes to the span's self time.
Generator functions are timed per resume and count the items they yield.
``lru_cache`` builders are wrapped from outside, so their caches keep
working; the values they return are remembered so the bytes held by the
per-n tables can be measured after the call.

Nothing here edits the package source.  The tracer is meant to live in a
fresh interpreter that runs one CLI call (see ``traced_cli.py``).
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    items: int = 0
    counters: dict = field(default_factory=dict)
    depth: int = 0  # open spans of this name; total_s counts only the outermost

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _insert_counters(args, result):
    return {"adopted": int(result[0] is not None)}


def _mul_counters(args, result):
    f, g = args
    return {"term_pairs": f.bits.bit_count() * g.bits.bit_count()}


# span name -> (module, attribute path) of every function timed under it
SPANS = {
    "cli.main": [("cli", "main")],
    "search.profile_all": [("search", "profile_all")],
    "search.write_jsonl": [("search", "write_profiles_jsonl")],
    "attacks.bound_suite": [("attacks", "bound_suite")],
    "attacks.certificates": [
        ("attacks", "all_certificates"),
        ("attacks", "affine_multiplier"),
        ("attacks", "residue_multipliers"),
        ("attacks", "near_power_certificate"),
    ],
    "attacks.certificate_check": [
        ("attacks", "AttackCertificate.__post_init__"),
        ("attacks", "_check_window_annihilator"),
    ],
    "attacks.gap_statistic": [("attacks", "product_degree_gap_statistic")],
    "immunity.solve": [
        ("immunity", "profile"),
        ("immunity", "ai_symmetric"),
        ("immunity", "fai_given_ai"),
    ],
    "immunity.class_delta_echelon": [("immunity", "_class_delta_echelon")],
    "immunity.class_product_pieces": [("immunity", "_class_product_pieces")],
    "immunity.zero_span_min_degree": [("immunity", "_zero_span_min_degree")],
    "immunity.all_zero_set_degrees": [("immunity", "all_zero_set_degrees")],
    "immunity.multiplier_scan": [("immunity", "_multiplier_scan")],
    "immunity.product_columns": [("immunity", "_product_columns")],
    "immunity.verify": [("immunity", "_verify_annihilator"), ("immunity", "_verify_pair")],
    "dense.rank_tables": [("dense", "_rank_tables")],
    "dense.permuted_anf_int": [("dense", "permuted_anf_int")],
    "dense.truth_table": [("dense", "_MonomialTables.truth_table")],
    "gf2.insert": [("gf2", "BitBasis.insert")],
    "gf2.subset_xor_transform": [("gf2", "subset_xor_transform")],
    "sanfv.mul": [("sanfv", "mul")],
    "sanfv.to_values": [("sanfv", "to_values")],
    "sanfv.split": [("sanfv", "split")],
}

COUNTERS = {"gf2.insert": _insert_counters, "sanfv.mul": _mul_counters}

# the per-n lru_cache tables of the immunity engine and the dense tables it
# builds on; their returned values are kept to measure the bytes they hold
TABLE_CACHES = [
    ("immunity", "_class_truth_table"),
    ("immunity", "_class_delta_echelon"),
    ("immunity", "_class_product_pieces"),
    ("immunity", "_zero_span_min_degree"),
    ("dense", "_popcounts"),
    ("dense", "_rank_tables"),
    ("dense", "_monomial_tables"),
]


class Tracer:
    """Span statistics of one process plus the values the table caches built."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []  # child time covered, one slot per open span
        self._table_values: dict[tuple, object] = {}

    def _open(self, stats: SpanStats) -> float:
        stats.depth += 1
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, stats: SpanStats, t0: float) -> None:
        dt = perf_counter() - t0
        stats.self_s += dt - self._stack.pop()
        stats.depth -= 1
        if stats.depth == 0:
            stats.total_s += dt
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name: str | None, fn, counters=None, table: bool = False):
        """Timing wrapper for ``fn``; ``name=None`` only records table values."""
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(name, fn)
        else:
            wrapper = self._wrap_call(name, fn, counters, table)
        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _wrap_call(self, name, fn, counters, table):
        tracer = self
        stats = self.stats.setdefault(name, SpanStats()) if name else None

        def traced(*args, **kwargs):
            if stats is None:
                result = fn(*args, **kwargs)
            else:
                t0 = tracer._open(stats)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(stats, t0)
                stats.calls += 1
                if counters is not None:
                    for key, amount in counters(args, result).items():
                        stats.add(key, amount)
            if table:
                tracer._table_values[(fn.__qualname__, args)] = result
            return result

        return traced

    def _wrap_generator(self, name, fn):
        tracer = self
        stats = self.stats.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            stats.calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = tracer._open(stats)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(stats, t0)
                    stats.items += 1
                    yield item
            finally:
                inner.close()

        return traced

    def table_bytes(self) -> int:
        """Bytes held by the distinct values the table caches returned."""
        return deep_bytes(self._table_values.values())


def deep_bytes(objects) -> int:
    """Memory held by ``objects`` and everything they reference, each object counted once."""
    seen = set()
    stack = list(objects)
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)  # an ndarray counts the buffer it owns
        if isinstance(item, np.ndarray):
            if item.base is not None:
                stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            stack.append(item.__dict__)
    return total


def install(tracer: Tracer) -> None:
    """Wrap every traced function and table cache of the loaded symfai modules.

    Raises RuntimeError if any symfai namespace still binds an original
    afterwards, so no call can bypass its span.
    """
    import symfai
    from symfai import attacks, cli, dense, gf2, immunity, sanfv, search

    modules = {
        "attacks": attacks, "cli": cli, "dense": dense, "gf2": gf2,
        "immunity": immunity, "sanfv": sanfv, "search": search,
    }
    namespaces = [symfai, *modules.values()]
    plan: dict[tuple[str, str], str | None] = dict.fromkeys(TABLE_CACHES)
    for name, targets in SPANS.items():
        for target in targets:
            plan[target] = name

    originals = []
    for (module_name, path), name in plan.items():
        owner = modules[module_name]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr]
        originals.append(original)
        wrapper = tracer.wrap(
            name, original, counters=COUNTERS.get(name), table=(module_name, path) in TABLE_CACHES
        )
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)

    leaks = [
        f"{namespace.__name__}.{key}"
        for namespace in namespaces
        for key, value in vars(namespace).items()
        if any(value is original for original in originals)
    ]
    if leaks:
        raise RuntimeError(f"untraced bindings left: {leaks}")
