"""Benchmark entry point: simulate-then-check, closed loop, one client.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
The seed makes the inputs (``workloads.py``) and the expected results
(``model.py``).  With ``--trace 0`` the run times set-up, then repeats
one simulate-then-check at a time for S seconds and prints the
end-to-end metrics, its times rescaled to a fixed host speed
(``hostspeed.py``); with ``--trace 1`` it runs one untraced and two
traced iterations (full and half size) and prints the per-layer
metrics.  Either way every iteration's results are checked, and the
last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import model
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
LOOP_PROCESSES = 3
DEADLINE_S = 170  # every child is killed by then
PINS = os.path.join(HERE, "pins.json")

END_TO_END = {"sim_s": "s", "check_s": "s", "steps_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}

# "<span>.<calls|total_s|self_s>" read off the traced run's spans
SPAN_METRICS = (
    "switch.trace_to_lines.total_s", "switch.step_to_json.self_s",
    "switch.state_digests.self_s", "switch.queue_digests.self_s",
    "switch.digest.calls", "switch.digest.self_s", "switch.write_trace.self_s",
    "switch.read_trace_lines.total_s",
    "switch.run.total_s", "switch.run.self_s", "switch.ingress_step.calls",
    "switch.ingress_step.self_s", "switch.egress_step.calls",
    "switch.egress_step.self_s", "switch.oracle.calls", "switch.oracle.self_s",
    "engines.input_ports.self_s", "engines.queue_admission.self_s",
    "engines.replication_engine.self_s", "engines.packet_scheduler.self_s",
    "engines.output_ports.self_s", "engines.packet_generator.self_s",
    "pipeline.ingress_pipeline.calls", "pipeline.ingress_pipeline.self_s",
    "pipeline.egress_pipeline.calls", "pipeline.egress_pipeline.self_s",
    "apps.in_parser.self_s", "apps.in_control.self_s", "apps.in_deparser.self_s",
    "apps.e_parser.self_s", "apps.e_control.self_s", "apps.e_deparser.self_s",
    "apps.parse_standard.calls", "apps.parse_standard.self_s",
    "apps.deparse_slots.self_s",
    "packet_format.extract.calls", "packet_format.extract.self_s",
    "packet_format.encode.calls", "packet_format.encode.self_s",
    "checker.check_trace.total_s", "checker.check_trace.self_s",
    "checker.check_step.calls", "checker.check_step.self_s",
    "checker.sampler_trace_check.total_s",
    "checker.firewall_freshness_check.total_s", "checker.dense_flow_check.total_s",
    "cli.cmd_sim.self_s", "cli.cmd_check.self_s",
)
COUNT_METRICS = ("engines.admission.offered", "engines.admission.admitted",
                 "engines.generator.emitted", "engines.q_input.max_depth",
                 "engines.q_egress.max_depth", "pipeline.parser_rejects")
# time(N) / time(N/2) of these spans' total time
GROWTH_SPANS = ("switch.trace_to_lines", "switch.run", "checker.check_trace",
                "pipeline.ingress_pipeline")


class Run:
    """One benchmark run: its work directory, deadline and tallies."""

    def __init__(self, workload: str, seed: int, root: str) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def write_inputs(self, files: dict[str, list]) -> None:
        """The config plus each named input file, in a fresh work dir."""
        os.makedirs(self.workdir)
        with open(os.path.join(self.workdir, "config.json"), "w") as fh:
            json.dump(workloads.WORKLOADS[self.workload]["config"], fh)
        for name, inputs in files.items():
            workloads.write_jsonl(inputs, os.path.join(self.workdir, name))

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run still uses it
            pass

    def record(self, label: str, got: dict, want: dict) -> None:
        """One attempted run; it fails when any pinned key differs."""
        self.attempted += 1
        bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: (got, expected) {bad}")

    def spawn(self, argv: list[str], name: str):
        """Run a child to completion; (exit code, stdout, stderr, wall
        seconds, peak RSS in MB).  Killed at the run's deadline."""
        out_path = os.path.join(self.workdir, f"{name}.out")
        err_path = os.path.join(self.workdir, f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh_out, open(err_path) as fh_err:
            return proc.returncode, fh_out.read(), fh_err.read(), wall, usage.ru_maxrss / 1024

    def worker(self, job: str, *extra: str) -> list[dict]:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), job, self.workload,
                self.workdir, str(self.seed), *extra]
        code, out, err, _wall, _rss = self.spawn(argv, job)
        if code != 0:
            raise RuntimeError(f"worker {job} exited {code}: {err.strip()[-2000:]}")
        return [json.loads(line) for line in out.splitlines() if line.strip()]


def pinned(workload: str, seed: int) -> dict | None:
    with open(PINS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def sim_stats(e: dict) -> dict:
    return {k: e[k] for k in ("steps", "outputs", "fingerprint")}


def library_want(e: dict, workload: str) -> dict:
    verdicts = {"sampler-cli": ["axioms: ok", "sampler: ok"],
                "identity-random": ["axioms: ok"],
                "firewall-flows": ["axioms: ok", "firewall: ok", "denseflow: ok"]}[workload]
    return {**sim_stats(e), "fault": None, "verdicts": verdicts}


def cli_want(e: dict) -> dict:
    return {"sim": list(e["sim"]), "check": list(e["check"])}


def measure_setup(run: Run, gauge: hostspeed.Gauge) -> tuple[list[float], list[float]]:
    """Fresh interpreters, each timed from spawn to the moment its first
    simulated step would start; (at reference host speed, wall)."""
    out, walls = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "setup",
                run.workload, run.workdir, str(run.seed)]
        t0 = time.monotonic()
        code, stdout, err, _wall, _rss = run.spawn(argv, f"setup{i}")
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {err.strip()[-2000:]}")
        walls.append(json.loads(stdout.splitlines()[-1])["ready"] - t0)
        out.append(gauge.scale(walls[-1]))
    return out, walls


def measure_cli(run: Run, seconds: float, want: dict, steps: int, gauge: hostspeed.Gauge) -> dict:
    """`dataplane sim` then `dataplane check`, each a fresh interpreter,
    one pair at a time until the time is up."""
    cli = [sys.executable, "-m", "dataplane.cli"]
    sims, checks, rss, sizes, rates = [], [], [], [], []
    walls = {"sim_s": [], "check_s": []}
    t_end = time.monotonic() + seconds
    while True:
        got = {}
        for phase, times in (("sim", sims), ("check", checks)):
            code, out, _err, wall, peak = run.spawn(
                cli + workloads.cli_argv(phase, run.workdir, "input.jsonl"), phase)
            got[phase] = [code, out.strip()]
            times.append(gauge.scale(wall))
            walls[f"{phase}_s"].append(wall)
            rss.append(peak)
            if phase == "sim":
                sizes.append(os.path.getsize(os.path.join(run.workdir, "trace.jsonl")))
        got["trace_bytes"] = sizes[-1]
        run.record(f"iteration {len(sims)}", got, {**want, "trace_bytes": sizes[0]})
        rates.append(steps / (sims[-1] + checks[-1]))
        if time.monotonic() >= t_end:
            break
    return {"sim_s": sims, "check_s": checks, "steps_per_s": rates,
            "peak_rss_mb": max(rss), "trace_bytes": sizes[0], "wall": walls}


def measure_library(run: Run, seconds: float, want: dict) -> dict:
    """LOOP_PROCESSES fresh workers one after the other, each looping for
    its share of the time: how fast one process runs the same code
    depends a little on where its memory landed, so the median takes
    iterations from several."""
    iterations, ends = [], []
    for _ in range(LOOP_PROCESSES):
        lines = run.worker("loop", str(seconds / LOOP_PROCESSES))
        iterations += [r for r in lines if "sim_s" in r]
        ends.append(lines[-1])
    for i, r in enumerate(iterations, 1):
        run.record(f"iteration {i}", r, want)
    return {"sim_s": [r["sim_s"] for r in iterations],
            "check_s": [r["check_s"] for r in iterations],
            "steps_per_s": [r["steps"] / (r["sim_s"] + r["check_s"]) for r in iterations],
            "peak_rss_mb": max(e["peak_rss_mb"] for e in ends),
            "kernel_s": [k for e in ends for k in e["kernel_s"]],
            "wall": {"sim_s": [r["sim_wall_s"] for r in iterations],
                     "check_s": [r["check_wall_s"] for r in iterations]}}


def end_to_end(run: Run, seconds: float, expect: dict) -> dict:
    gauge = hostspeed.Gauge()
    setup, setup_wall = measure_setup(run, gauge)
    if run.workload == "sampler-cli":
        # the library run supplies the output fingerprint the CLI does not print
        run.record("library run", run.worker("loop", "0")[0], library_want(expect, run.workload))
        gauge = hostspeed.Gauge()
        timed = measure_cli(run, seconds, cli_want(expect), expect["steps"], gauge)
        timed["kernel_s"] = gauge.kernel_s
    else:
        timed = measure_library(run, seconds, library_want(expect, run.workload))
    timed["setup_s"] = setup
    timed["wall"]["setup_s"] = setup_wall
    print(f"{run.workload}  times below are at reference host speed: wall time x "
          f"{hostspeed.REF_S} s / the gauge kernel's time around each phase "
          f"(kernel median {statistics.median(timed['kernel_s']):.4g} s here)")
    for name, unit in END_TO_END.items():
        v = timed[name]
        if isinstance(v, list):
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            print(f"{run.workload}  {name:<12} median {statistics.median(v):.6g} {unit}"
                  f"  (n={len(v)}, q1 {q[0]:.6g}, q3 {q[2]:.6g})")
            if name in timed["wall"]:
                print(f"{run.workload}  {'':<12} wall median {statistics.median(timed['wall'][name]):.6g} s")
        else:
            print(f"{run.workload}  {name:<12} {v:.6g} {unit}  (peak over the run)")
    if "trace_bytes" in timed:
        print(f"{run.workload}  trace_bytes  {timed['trace_bytes']} B")
    print(f"{run.workload}  failed_frac  {run.failed}/{run.attempted}")
    return {name: statistics.median(timed[name]) if isinstance(timed[name], list)
            else timed[name] for name in END_TO_END}


def per_layer(run: Run, expect: dict, expect_half: dict) -> dict:
    lines = run.worker("traced")
    res = {k: v for line in lines for k, v in line.items()}
    untraced, full, half = res["untraced"], res["full"], res["half"]
    if run.workload == "sampler-cli":
        want = {**cli_want(expect), **sim_stats(expect)}
        half_want = {**cli_want(expect_half), **sim_stats(expect_half)}
        run.record("untraced run", untraced, cli_want(expect))
    else:
        want = library_want(expect, run.workload)
        half_want = library_want(expect_half, run.workload)
        run.record("untraced run", untraced, want)
    # the traced run must simulate exactly what the untraced one did, and
    # leave every wrapped attribute restored
    run.record("traced run", full, {**want, "restored": True})
    run.record("traced half-size run", half, {**half_want, "restored": True})

    spans = full["layers"]
    metrics = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        metrics[name] = (spans.get(span, {}).get(stat, 0), "count" if stat == "calls" else "s")
    counts = full["counts"]
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "count")
    offered = counts["engines.admission.offered"]
    metrics["engines.admission.ratio"] = (
        counts["engines.admission.admitted"] / offered if offered else 0.0, "ratio")
    run_total = spans.get("switch.run", {}).get("total_s", 0.0)
    metrics["switch.us_per_step"] = (1e6 * run_total / full["run_steps"], "us")
    trace_bytes = full.get("trace_bytes", 0)
    metrics["switch.trace.bytes"] = (trace_bytes, "B")
    metrics["switch.trace.bytes_per_step"] = (trace_bytes / full["steps"], "B")
    for span in GROWTH_SPANS:
        t_full = spans.get(span, {}).get("total_s", 0.0)
        t_half = half["layers"].get(span, {}).get("total_s", 0.0)
        metrics[f"{span}.growth_x2"] = (t_full / t_half if t_half else 0.0, "x")
    metrics["bench.trace_overhead"] = (
        (full["sim_s"] + full["check_s"]) / (untraced["sim_s"] + untraced["check_s"]), "x")

    print(f"{run.workload}  per-layer metrics below come from the traced run "
          f"(traced / untraced time = {metrics['bench.trace_overhead'][0]:.3g}x)")
    for name, (value, unit) in metrics.items():
        print(f"{run.workload}  {name:<42} {value:.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dataplane", "__init__.py")):
        print("error: no src/dataplane under the current directory; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every child, so that the gauge
        # kernel runs where the timed phases run and sees that CPU's speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace, root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, root: str,
                  packets: int | None = None, tamper=None) -> dict:
    """Generate, measure and check one run.  `tamper(expected)` may edit
    the expectations before any comparison (the self-test uses it)."""
    run = Run(workload, seed, root)
    n = packets or workloads.WORKLOADS[workload]["packets"]
    inputs = workloads.generate(workload, seed, n)
    expect = model.expected(workload, seed, inputs)
    if packets is None:
        pin = pinned(workload, seed)
        if pin is not None and pin != sim_stats(expect):
            run.problems.append(f"model disagrees with pins.json for seed {seed}: "
                                f"{sim_stats(expect)} != {pin}")
    if tamper is not None:
        tamper(expect)
    files = {"input.jsonl": inputs}
    if trace:
        files["half.jsonl"] = workloads.generate(workload, seed, n // 2)
    run.write_inputs(files)
    try:
        if trace:
            metrics = per_layer(run, expect,
                                model.expected(workload, seed, files["half.jsonl"]))
        else:
            metrics = {k: (v, END_TO_END[k])
                       for k, v in end_to_end(run, seconds, expect).items()}
    except RuntimeError as e:  # a child crashed or was killed at the deadline
        run.attempted += 1
        run.failed += 1
        run.problems.append(str(e))
        metrics = {}
    finally:
        run.cleanup()
    for p in run.problems:
        print(f"CHECK FAILED  {p}", file=sys.stderr)
    return {"correct": not run.problems and run.failed == 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
