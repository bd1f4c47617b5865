"""Command line front end.

Four subcommands:

  sim    run a configured switch over a workload and record the trace
  check  replay a trace decision for decision and verify it
  fmt    match a hex packet against one of the declared formats
  gen    synthesize a workload file

Each is declared once in COMMANDS, which `parse_args` reads argv
against and the `--help` text is printed from.

Exit codes: 0 success, 1 a check reported a violation, 2 bad usage or
configuration, 3 the simulated switch hit an engine fault.
"""

from __future__ import annotations

import json
import os
import random
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional

from . import switch
from .apps import app_from_config, initial_switch_state
from .headers import (
    IP_PROTO_TCP, IP_PROTO_UDP, SAMPLED_FORMAT, STANDARD_FORMAT, build_packet,
    make_intrinsic_meta, make_ipv4, make_tcp, make_udp,
)
from .packet_format import BitString, TypedValue, match_report

FORMATS = {"standard": STANDARD_FORMAT, "sampled": SAMPLED_FORMAT}
REQUIRED = object()  # the default of an argument that must be given

# command: (the name of its handler, its help, its arguments). An argument
# named --x is an option, the others are positionals in their order. Each is
# (type, default, choices, help): a bool one is a flag, which takes no value,
# and choices, a collection or None, is looked in as argv is parsed, so a
# format added to FORMATS is a choice. The handler is looked up when main
# runs, so a replaced cmd_sim is called.
COMMANDS = {
    "sim": ("cmd_sim", "run a switch and write a trace", {
        "--config": (str, REQUIRED, None, "app config JSON file"),
        "--input": (str, None, None, "workload file from `gen` (JSON lines)"),
        "--steps": (int, 1000, None, ""),
        "--policy": (str, "fifo-drain", switch.ORACLE_POLICIES,
                     "decision policy for the nondeterminism oracle"),
        "--seed": (int, 0, None, ""),
        "--trace": (str, None, None, "trace output path (JSON lines)"),
        "--drain": (bool, False, None, "stop once every queue is empty"),
    }),
    "check": ("cmd_check", "replay and verify a trace", {
        "trace": (str, REQUIRED, None, "trace file written by sim"),
        "--config": (str, REQUIRED, None, "the config the trace was run with"),
        "--spec": (str, "axioms", None,
                   "axioms | sampler | langsec | denseflow:gap | firewall:gap"),
    }),
    "fmt": ("cmd_fmt", "match a packet against a format", {
        "format": (str, REQUIRED, FORMATS, ""),
        "packet": (str, REQUIRED, None, "hex string, or @file with hex inside"),
    }),
    "gen": ("cmd_gen", "synthesize a workload", {
        "--profile": (str, "mixed", ("tcp", "udp", "mixed"), ""),
        "--count": (int, 100, None, ""),
        "--seed": (int, 0, None, ""),
        "--malformed-rate": (float, 0.0, None, ""),
        "--ports": (str, "1", None, "comma separated ingress ports to draw from"),
        "--out": (str, None, None, "output path; stdout when omitted"),
    }),
}
HELP = ("-h", "--help")


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()[COMMANDS[args.cmd][0]](args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read against COMMANDS: a command, then its arguments in any
    order. An option's value follows it or its `=`; the last one wins."""
    cmd = argv[0] if argv else None
    if cmd in HELP:
        _exit(None)
    if cmd not in COMMANDS:
        _exit(None, "no command" if cmd is None else f"unknown command {cmd!r}")
    spec, given, positionals, rest = COMMANDS[cmd][2], {}, [], iter(argv[1:])
    for token in rest:
        name, eq, value = token.partition("=")
        if token in HELP:
            _exit(cmd)
        elif not token.startswith("-"):
            positionals.append(token)
        elif name not in spec or (eq and spec[name][0] is bool):  # an abbreviation too
            _exit(cmd, f"unrecognized option {token}")
        elif eq or spec[name][0] is bool:
            given[name] = value if eq else True
        elif (value := next(rest, None)) is None:  # the next token, whatever it is: --seed -5
            _exit(cmd, f"{name} needs a value")
        else:
            given[name] = value
    named = [name for name in spec if not name.startswith("-")]
    if len(positionals) != len(named):
        _exit(cmd, f"expected {len(named)} positional argument(s), got {len(positionals)}")
    given.update(zip(named, positionals))
    args = SimpleNamespace(cmd=cmd)
    for name, (type_, default, choices, _) in spec.items():
        value = given.get(name, default)
        if value is REQUIRED:
            _exit(cmd, f"{name} is required")
        if name in given:
            try:
                value = type_(value)
            except ValueError:
                _exit(cmd, f"{name}: invalid {type_.__name__} value: {value!r}")
            if choices is not None and value not in choices:
                _exit(cmd, f"{name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def _exit(cmd: Optional[str], error: Optional[str] = None) -> NoReturn:
    from .usage import exit_with_usage  # only --help and bad usage print, so sim compiles none of it

    exit_with_usage(COMMANDS, REQUIRED, cmd, error)


def _load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            return switch.json_value(fh.read())
        except ValueError as e:  # a decoder's line and column are the file's
            raise ValueError(f"config: {e}") from None


def _load_workload(path: str) -> tuple[switch.Arrival, ...]:
    """The arrivals of a workload file; a ValueError names the first bad
    line, one that is not UTF-8 included."""
    arrivals = []
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:  # the line alone, so the decoder's column is the column in the line
                arrivals.append(_arrival(switch.json_value(line.decode().rstrip("\n"))))
            except json.JSONDecodeError as e:
                raise ValueError(f"workload line {n}: {e.msg}: column {e.colno}") from None
            except ValueError as e:
                raise ValueError(f"workload line {n}: {e}") from None
    return tuple(arrivals)


def _arrival(obj) -> switch.Arrival:
    """One workload line: {"port": an integer in 0..511, "packet": a hex
    string, or {"hex", "len_bits"} for a packet that is not byte aligned}."""
    if not isinstance(obj, dict):
        raise ValueError(f"must be a JSON object, got {obj!r}")
    return switch.Arrival(switch.port_from_json(obj.get("port"), "port"),
                          BitString.from_json(obj.get("packet")))


def cmd_sim(args) -> int:
    switch.expect(args.steps >= 0, args.steps, "at least 0", "--steps")
    cfg = app_from_config(_load_config(args.config))
    st = initial_switch_state(cfg)
    qs = switch.SwitchQueues(q_input=_load_workload(args.input) if args.input else ())
    oracle = switch.make_oracle(args.policy, args.seed)

    stop = None
    if args.drain:
        stop = lambda s, q: (not q.q_input and not q.q_egress
                             and q.p_recirc is None)
    if args.trace:
        with open(args.trace, "w") as fh:  # each line is written as its step is taken
            trace = switch.run(cfg, st, qs, args.steps, oracle, stop_when=stop, sink=fh.write)
    else:
        trace = switch.run(cfg, st, qs, args.steps, oracle, stop_when=stop)
    print(f"steps={len(trace.steps)} outputs={len(trace.final_queues.q_output)} "
          f"t={trace.final_state.t} fault={trace.fault or 'none'}")
    return 3 if trace.fault else 0


def cmd_check(args) -> int:
    from . import audit, checker  # only check replays and audits, so sim compiles neither

    with open(args.trace, "rb") as fh:
        records = audit.Records(fh)
        header = records.rec
        if header is None or header.get("type") != "header":
            raise ValueError("trace has no header record")
        fmt = header.get("format")
        if type(fmt) is not int or fmt != switch.TRACE_FORMAT:
            raise ValueError(f"trace format {fmt!r} is not supported; "
                             f"this version reads format {switch.TRACE_FORMAT}")

        cfg = app_from_config(_load_config(args.config))
        if switch.config_digest(cfg) != records.checked(audit.header_digest, header,
                                                        "config_digest"):
            raise ValueError("config does not match the trace header")
        st = initial_switch_state(cfg)
        if switch.digest(st) != records.checked(audit.header_digest, header, "state_digest"):
            raise ValueError("initial state does not match the trace header")
        qs = records.checked(audit.queues_from_header, header)

        spec = audit.spec_fold(args.spec, cfg, st)
        folds = {"axioms": checker.AxiomsFold(cfg, st, qs)}
        if spec is not None:
            folds[args.spec.partition(":")[0]] = spec

        # one pass: the replay reproduces the file record by record, and
        # stops at the first record it does not reproduce
        replayed, n_steps = audit.replay(records, folds.values(), cfg, st, qs)
    if replayed is None:
        print(f"replay: VIOLATION clause=trace.divergence step={max(records.pos - 1, 0)}")
        return 1
    print(f"replay: ok ({n_steps} steps)")

    failed = False
    for label, fold in folds.items():
        v = fold.finish(replayed.state, replayed.queues)
        if v.ok:
            print(f"{label}: ok")
        else:
            failed = True
            where = "" if v.step is None else f" step={v.step}"
            print(f"{label}: VIOLATION clause={v.violated_clause}{where} {v.detail}")
    return 1 if failed else 0


def cmd_fmt(args) -> int:
    text = args.packet
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read().strip()
    p = BitString.from_hex(text)
    report = match_report(p, FORMATS[args.format])
    env = {name: v.as_dict() if isinstance(v, TypedValue) else v.to_json()
           for name, v in report["env"].items()}
    print(json.dumps({**report, "env": env}, sort_keys=True))
    return 0 if report["ok"] else 1


def cmd_gen(args) -> int:
    switch.expect(args.count >= 0, args.count, "at least 0", "--count")
    rate = switch.expect(0 <= args.malformed_rate <= 1, args.malformed_rate, "in 0..1",
                         "--malformed-rate")  # false for nan too
    rng = random.Random(args.seed)
    ports = [_port_item(x) for x in args.ports.split(",") if x]
    if not ports:
        raise ValueError("--ports needs at least one port")
    lines = []
    for _ in range(args.count):
        port = rng.choice(ports)
        p = _random_packet(rng, args.profile)
        if rng.random() < rate:
            # cut inside the fixed headers so no parse can succeed
            cut = rng.randrange(1, min(len(p), 240))
            p = p.take(cut)
        lines.append(json.dumps({"port": port, "packet": p.to_json()},
                                sort_keys=True))
    out = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _port_item(item: str) -> int:
    """One item of `gen --ports`: an integer in 0..511."""
    try:
        port = int(item)
    except ValueError:
        port = item  # port_from_json names it as not an integer
    return switch.port_from_json(port, "--ports item")


def _random_packet(rng: random.Random, profile: str) -> BitString:
    proto = {"tcp": IP_PROTO_TCP, "udp": IP_PROTO_UDP}.get(profile)
    if proto is None:
        proto = rng.choice((IP_PROTO_TCP, IP_PROTO_UDP))
    ipv4 = make_ipv4(src=rng.getrandbits(32), dst=rng.getrandbits(32),
                     protocol=proto, id=rng.getrandbits(16))
    if proto == IP_PROTO_TCP:
        l4 = make_tcp(src_port=rng.getrandbits(16), dst_port=rng.getrandbits(16),
                      seq=rng.getrandbits(32))
    else:
        l4 = make_udp(src_port=rng.getrandbits(16), dst_port=rng.getrandbits(16))
    payload = BitString.from_bytes(rng.randbytes(rng.randrange(0, 33)))
    return build_packet(meta=make_intrinsic_meta(), ipv4=ipv4, l4=l4,
                        payload=payload)


def entry() -> NoReturn:
    """The process: main's exit code ends it through os._exit once stdout
    and stderr are flushed, which skips the interpreter's teardown (about
    10 ms a process), so atexit hooks do not run.  A stdout that cannot
    take the output, such as a closed pipe, fails a run that succeeded
    with a one-line error.  Help and bad usage, which leave main by
    SystemExit, end the same way; a traceback leaves the normal way."""
    try:
        code = main()
    except SystemExit as e:  # usage's: 0 for help, 2 for bad usage
        code = e.code
    try:
        try:
            sys.stdout.flush()
        except OSError as e:
            if code == 0:
                code = 2
                print(f"error: {e}", file=sys.stderr)
        sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    entry()
