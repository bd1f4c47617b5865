"""Child process of the benchmark: one fresh interpreter per job.

  worker.py setup  WORKLOAD DIR SEED          print the clock when the
                                              first step is about to run
  worker.py loop   WORKLOAD DIR SEED SECONDS  closed loop of library
                                              simulate-then-check runs
                                              (at least one)
  worker.py traced WORKLOAD DIR SEED          untraced, traced and
                                              half-size traced runs

DIR holds config.json, input.jsonl (and half.jsonl for `traced`), as
written by run.py.  Every job prints JSON lines on stdout.  Only the
standard library is imported at the top, so that `setup` times nothing
but the program's own start-up path.
"""

import json
import os
import sys
import time


def _drain(state, queues) -> bool:
    return not queues.q_input and not queues.q_egress and queues.p_recirc is None


def prepare(workload: str, workdir: str, seed: int, input_name: str = "input.jsonl"):
    """The library user's set-up path: import, config, app bundle and
    workload load.  Returns the config and a function that builds a
    fresh (switch config, state, queues, oracle, step budget)."""
    from dataplane import apps, switch
    from dataplane.packet_format import BitString

    with open(os.path.join(workdir, "config.json")) as fh:
        config = json.load(fh)
    bundle = apps.app_from_config(config)
    with open(os.path.join(workdir, input_name)) as fh:
        arrivals = tuple(switch.Arrival(int(o["port"]), BitString.from_json(o["packet"]))
                         for o in map(json.loads, fh))

    def start():
        from workloads import STEP_BUDGET, WORKLOADS
        if workload == "identity-random":
            oracle = switch.RandomOracle(seed, reorder=True,
                                         drop_rate=WORKLOADS[workload]["drop_rate"])
        else:
            oracle = switch.FifoDrainOracle()
        return (apps.switch_config(bundle), apps.initial_switch_state(bundle),
                switch.SwitchQueues(q_input=arrivals), oracle, STEP_BUDGET)
    return config, start


def stats(trace) -> dict:
    from model import fingerprint
    q_out = trace.final_queues.q_output
    return {"steps": len(trace.steps), "outputs": len(q_out),
            "fingerprint": fingerprint((port, bits.nbits, bits.to_hex())
                                       for port, bits in q_out),
            "fault": trace.fault}


def checks(workload: str, config: dict, cfg, trace) -> list[str]:
    """The workload's verdict lines: the axioms plus its spec checks."""
    from dataplane import apps, checker

    verdicts = [("axioms", checker.check_trace(cfg, trace))]
    if workload == "firewall-flows":
        fw = apps.FirewallConfig(**{k: v for k, v in config.items() if k != "app"})
        verdicts.append(("firewall", checker.firewall_freshness_check(trace, fw, fw.window)))
        verdicts.append(("denseflow", checker.dense_flow_check(trace, fw.keepalive_period)))
    elif workload == "sampler-cli":
        scfg = apps.SamplerConfig(**{k: v for k, v in config.items() if k != "app"})
        verdicts.append(("sampler", checker.sampler_trace_check(trace, scfg)))
    return [f"{label}: ok" if v.ok else
            f"{label}: VIOLATION clause={v.violated_clause} step={v.step}"
            for label, v in verdicts]


def library_iteration(workload: str, config: dict, start, gauge=None) -> dict:
    """One simulate-then-check through the library, timed in two parts:
    wall times, and with a gauge also the times at reference host speed."""
    from dataplane import switch

    cfg, st, qs, oracle, budget = start()
    t0 = time.perf_counter()
    trace = switch.run(cfg, st, qs, budget, oracle, stop_when=_drain)
    sim_wall = time.perf_counter() - t0
    sim_s = gauge.scale(sim_wall) if gauge else sim_wall
    t1 = time.perf_counter()
    verdicts = checks(workload, config, cfg, trace)
    check_wall = time.perf_counter() - t1
    check_s = gauge.scale(check_wall) if gauge else check_wall
    return {"sim_s": sim_s, "check_s": check_s, "sim_wall_s": sim_wall,
            "check_wall_s": check_wall, "verdicts": verdicts, **stats(trace)}


def cli_iteration(workdir: str, input_name: str) -> dict:
    """`sim` then `check` through the CLI entry point, in this process."""
    import contextlib
    import io

    from dataplane import cli
    from workloads import cli_argv

    out = {}
    for phase in ("sim", "check"):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_argv(phase, workdir, input_name))
        out[f"{phase}_s"] = time.perf_counter() - t0
        out[phase] = [code, buf.getvalue().strip()]
    out["trace_bytes"] = os.path.getsize(os.path.join(workdir, "trace.jsonl"))
    return out


def job_setup(workload: str, workdir: str, seed: int) -> None:
    if workload == "sampler-cli":
        from dataplane import cli, switch
        from workloads import cli_argv

        def first_step(*args, **kwargs):
            print(json.dumps({"ready": time.monotonic()}), flush=True)
            raise SystemExit(0)
        switch.run = first_step
        cli.main(cli_argv("sim", workdir, "input.jsonl"))
        raise SystemExit("sim ended without simulating a step")
    prepare(workload, workdir, seed)[1]()
    print(json.dumps({"ready": time.monotonic()}), flush=True)


def job_loop(workload: str, workdir: str, seed: int, seconds: float) -> None:
    import gc
    import resource

    from hostspeed import Gauge

    config, start = prepare(workload, workdir, seed)
    t_end = time.perf_counter() + seconds
    gauge = Gauge()
    while True:
        gc.collect()  # each iteration starts from a comparable heap, untimed
        print(json.dumps(library_iteration(workload, config, start, gauge)), flush=True)
        if time.perf_counter() >= t_end:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": rss_kb / 1024, "kernel_s": gauge.kernel_s}), flush=True)


def job_traced(workload: str, workdir: str, seed: int) -> None:
    """The untraced iteration first (it also warms caches), then the same
    iteration traced at full and at half size."""
    from tracer import Tracer

    def iteration(input_name: str) -> dict:
        if workload == "sampler-cli":
            return cli_iteration(workdir, input_name)
        config, start = prepare(workload, workdir, seed, input_name)
        return library_iteration(workload, config, start)

    print(json.dumps({"untraced": iteration("input.jsonl")}), flush=True)
    for label, input_name in (("full", "input.jsonl"), ("half", "half.jsonl")):
        tracer = Tracer()
        tracer.install()
        try:
            r = iteration(input_name)
        finally:
            tracer.restore()
        r["restored"] = not tracer.leftovers()
        sim = tracer.runs[0]
        r.update({k: v for k, v in stats(sim).items() if k not in r})
        r["counts"] = trace_counts(sim)
        r["run_steps"] = sum(len(t.steps) for t in tracer.runs)
        r["layers"] = tracer.reduce()
        print(json.dumps({label: r}), flush=True)


def trace_counts(trace) -> dict:
    """Counts read off the simulated trace: admission, generator, queue
    depths and parser rejects."""
    offered = admitted = emitted = rejects = 0
    max_in = len(trace.initial_queues.q_input)
    max_eg = len(trace.initial_queues.q_egress)
    for step in trace.steps:
        max_in = max(max_in, len(step.post_queues.q_input))
        max_eg = max(max_eg, len(step.post_queues.q_egress))
        if step.kind != "ingress":
            continue
        d = step.detail
        if d.p_g is not None and not d.from_recirc:
            emitted += 1
        if d.p_i is not None and d.pipeline_out is None:
            rejects += 1
        if d.m_repl:
            offered += len(d.m_repl)
            admitted += len(d.enqueued)
    return {"engines.admission.offered": offered, "engines.admission.admitted": admitted,
            "engines.generator.emitted": emitted, "engines.q_input.max_depth": max_in,
            "engines.q_egress.max_depth": max_eg, "pipeline.parser_rejects": rejects}


def main(argv: list[str]) -> None:
    job, workload, workdir, seed = argv[0], argv[1], argv[2], int(argv[3])
    if job == "setup":
        job_setup(workload, workdir, seed)
    elif job == "loop":
        job_loop(workload, workdir, seed, float(argv[4]))
    elif job == "traced":
        job_traced(workload, workdir, seed)
    else:
        raise SystemExit(f"unknown job {job!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
