"""Run one symfai CLI call with every layer traced, then write the trace.

Usage: python3 traced_cli.py TRACE_JSON CLI_ARG...

Behaves like the ``symfai`` console script (same stdout, output files and
exit code) and additionally writes a JSON object with the import time, the
span statistics of each layer, the lru_cache hit counts of
``_zero_span_min_degree`` and the bytes held by the per-n tables.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
from symfai import cli, immunity  # noqa: E402

import_s = perf_counter() - t0

import tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        zero_span = immunity._zero_span_min_degree.cache_info()
        record = {
            "import_s": import_s,
            "spans": {name: vars(stats) for name, stats in spans.stats.items()},
            "zero_span_hits": zero_span.hits,
            "zero_span_misses": zero_span.misses,
            "table_bytes": spans.table_bytes(),
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
