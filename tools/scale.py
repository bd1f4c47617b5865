"""Scaling probe: `gen`, `sim` and `check` as fresh processes at growing
workload sizes.

  python tools/scale.py [--app sampler|identity|firewall]
                        [--policy fifo-drain|random|adversarial-drop] [--seed 0]
                        [--sizes 2500,5000,10000,20000] [--runs 3] [--src DIR]

For each size it writes a workload with `gen --seed 7 --ports 1,2 --count
N`, then runs `sim --policy POLICY --seed SEED --drain --steps 1000000
--trace` and `check --spec SPEC` (the app's own spec) on it, each `--runs`
times and each in a fresh interpreter spawned by this script.  It prints one JSON object:
per size, each process's wall time, peak RSS (ru_maxrss from os.wait4) and
exit code, the stdout of the first `sim` and `check`, and the trace's bytes
and sha256; then the growth of the median wall times per doubling of the
size.  --src names the source directory whose `dataplane` runs, by default
this checkout's.

On Linux a child's ru_maxrss also counts the image it had before its exec,
which is this process's, so the script imports little and spawns with
posix_spawn; "floor_rss_mb" is its own peak, below which no reading falls.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import tempfile
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
APPS = {  # app: (its config, the spec `check` judges it by)
    "sampler": ({"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 4},
                "sampler"),
    "identity": ({"app": "identity", "forward_port": 2}, "axioms"),
    "firewall": ({"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 64,
                  "keepalive_period": 16}, "firewall:64"),
}
POLICIES = ("fifo-drain", "random", "adversarial-drop")  # sim's oracle policies


def spawn(argv: list[str], env: dict, out_path: str) -> tuple[int, float, float, str]:
    """`python -m dataplane.cli` with argv, to completion: (exit code, wall
    seconds, peak RSS in MB, stdout); its stderr is appended to stdout."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "dataplane.cli", *argv], env,
                         file_actions=actions)
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(out_path) as fh:
        return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, fh.read()


def sha256_of(path: str) -> str:
    """The file's sha256, read a block at a time with the interpreter's own
    sha256: reading it whole, or hashlib's OpenSSL, would raise the floor."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    h = sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            h.update(block)
    return h.hexdigest()


def probe(app: str, policy: str, seed: int, sizes: list[int], runs: int, src: str,
          work: str) -> dict:
    config, spec = APPS[app]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cfg = os.path.join(work, "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    out, tr = os.path.join(work, "stdout.txt"), os.path.join(work, "trace.jsonl")
    result: dict = {"app": app, "spec": spec, "policy": policy, "seed": seed,
                    "runs": runs, "src": src,
                    "python": sys.version.split()[0], "sizes": {}}
    for n in sizes:
        wl = os.path.join(work, f"w{n}.jsonl")
        code, _, _, text = spawn(["gen", "--seed", "7", "--ports", "1,2", "--count", str(n),
                                  "--out", wl], env, out)
        if code != 0:
            raise SystemExit(f"gen --count {n} exited {code}: {text.strip()}")
        phases = {
            "sim": ["sim", "--config", cfg, "--input", wl, "--policy", policy, "--seed",
                    str(seed), "--drain", "--steps", "1000000", "--trace", tr],
            "check": ["check", tr, "--config", cfg, "--spec", spec],
        }
        row: dict = {phase: {"wall_s": [], "rss_mb": [], "exit": []} for phase in phases}
        hashes = set()
        for _ in range(runs):
            for phase, argv in phases.items():
                code, wall, rss, text = spawn(argv, env, out)
                cell = row[phase]
                cell["wall_s"].append(round(wall, 4))
                cell["rss_mb"].append(round(rss, 1))
                cell["exit"].append(code)
                cell.setdefault("stdout", text)
                if phase == "sim":
                    hashes.add(sha256_of(tr))
                    row["trace_bytes"] = os.path.getsize(tr)
        for phase in phases:
            row[phase]["median_s"] = round(median(row[phase]["wall_s"]), 4)
            row[phase]["max_rss_mb"] = max(row[phase]["rss_mb"])
        row["trace_sha256"] = hashes.pop() if len(hashes) == 1 else sorted(hashes)
        result["sizes"][str(n)] = row
    rows = [(n, result["sizes"][str(n)]) for n in sizes]
    result["growth_x2"] = {
        phase: [round((b[phase]["median_s"] / a[phase]["median_s"]) ** (1 / math.log2(m / n)), 2)
                for (n, a), (m, b) in zip(rows, rows[1:])]
        for phase in ("sim", "check")}
    result["floor_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return result


def main(argv: list[str]) -> int:
    opts = {"--app": "sampler", "--policy": "fifo-drain", "--seed": "0",
            "--sizes": "2500,5000,10000,20000", "--runs": "3", "--src": os.path.join(ROOT, "src")}
    if len(argv) % 2 or any(k not in opts for k in argv[::2]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    opts.update(zip(argv[::2], argv[1::2]))
    if opts["--app"] not in APPS:
        print(f"--app must be one of {', '.join(APPS)}", file=sys.stderr)
        return 2
    if opts["--policy"] not in POLICIES:
        print(f"--policy must be one of {', '.join(POLICIES)}", file=sys.stderr)
        return 2
    sizes = [int(x) for x in opts["--sizes"].split(",")]
    with tempfile.TemporaryDirectory(prefix="scale-") as work:
        result = probe(opts["--app"], opts["--policy"], int(opts["--seed"]), sizes,
                       int(opts["--runs"]), os.path.abspath(opts["--src"]), work)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
