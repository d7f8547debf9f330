"""Plumbing shared by the benchmark's pass scripts.

A pass is one fresh interpreter started by ``run.py``.  It reads its
settings from the command line, writes one JSON result file, and
reports absolute ``time.perf_counter()`` stamps (``CLOCK_MONOTONIC`` on
Linux, shared across processes), so the parent can time set-up from
the moment it spawned the pass.
"""

from __future__ import annotations

import argparse
import json
import math
import resource

__all__ = ["pass_args", "peak_rss_mb", "percentile", "write_result"]


def pass_args(*extra: tuple[str, dict]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced pass writes spans")
    for flag, options in extra:
        parser.add_argument(flag, **options)
    return parser.parse_args()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_result(path: str, result: dict) -> None:
    result.setdefault("peak_rss_mb", peak_rss_mb())
    with open(path, "w") as fh:
        json.dump(result, fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 <= q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
