"""One role-forge invocation, launched by run.py as a fresh process.

Usage: python3 perfbench/invoke.py STATS_JSON TRACE(0|1) CLI_ARG...

Calls `roleforge.cli.main` (the entry point of the `role-forge` script) with
the CLI arguments and writes STATS_JSON: the monotonic time at which
`import roleforge.cli` finished, the bounds of `main`, its return code, the
peak RSS of this process image, and with TRACE=1 the spans of the traced layers.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import roleforge.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402

from spans import Tracer, peak_rss_kb  # noqa: E402


def run(stats_path: str, traced: bool, argv: list[str]) -> int:
    tracer = Tracer()
    if traced:
        tracer.install()
    stats = {"imported": IMPORTED, "rc": None}
    try:
        stats["main_start"] = time.monotonic()
        stats["rc"] = roleforge.cli.main(argv)
        stats["main_end"] = time.monotonic()
    finally:
        # Measured here: the parent's RUSAGE_CHILDREN is a maximum over every
        # child reaped so far, not the peak of this one invocation.
        stats["peak_rss_kb"] = peak_rss_kb()
        stats["spans"] = tracer.spans
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
