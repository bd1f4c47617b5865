"""Record the program's results for a few seeds in pins.json.

  python3 perfbench/pin.py 1 2 3 1009

Run from the root of a checkout.  For each workload and seed, one
library run at full size supplies steps, outputs and
fingerprint; its verdicts must all be ok and it must agree with the
model, or nothing is written.  run.py then checks, on a pinned seed,
that the model still reproduces the pin.
"""

from __future__ import annotations

import json
import os
import sys

import model
import run
import workloads


def main(seeds: list[int]) -> int:
    root = os.getcwd()
    pins: dict = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in seeds:
            r = run.Run(name, seed, root)
            inputs = workloads.generate(name, seed, w["packets"])
            r.write_inputs({"input.jsonl": inputs})
            try:
                got = r.worker("loop", "0")[0]
            finally:
                r.cleanup()
            r.record(f"{name} seed {seed}", got,
                     run.library_want(model.expected(name, seed, inputs), name))
            if r.failed:
                print("\n".join(r.problems), file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = run.sim_stats(got)
            print(name, seed, pins[name][str(seed)])
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
