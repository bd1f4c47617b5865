"""Tiny-size self-test of the benchmark (not part of the test suite).

  python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload, at a few dozen
packets, it checks that

  * a --trace 0 run and a --trace 1 run are both correct and emit every
    metric BENCHMARK.json names, each with the unit named there;
  * a wrong pinned statistic (one step too many) is counted as a failed
    run and makes the result incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

TINY = {"sampler-cli": 12, "identity-random": 24, "firewall-flows": 40}


def emitted(result: dict, declared: list[dict]) -> list[str]:
    """Declared metrics missing from the result or with another unit."""
    got = result["metrics"]
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors: list[str] = []
    for name, packets in TINY.items():
        before = len(errors)

        def bench(trace, tamper=None):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return run.run_benchmark(name, 7, 0.1, trace, root, packets, tamper)

        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r = bench(trace)
            if not r["correct"] or r["failed"]:
                errors.append(f"{name} --trace {trace}: not correct ({r['failed']} failed)")
            missing = emitted(r, declared)
            if missing:
                errors.append(f"{name} --trace {trace}: missing or mis-united {missing}")
        r = bench(0, tamper=lambda e: e.update(steps=e["steps"] + 1))
        if r["correct"] or r["failed"] < 1 or r["failed"] > r["attempted"]:
            errors.append(f"{name}: a wrong pinned step count was not counted as a failure")
        print(f"{name}: {'ok' if len(errors) == before else 'FAILED'}")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
