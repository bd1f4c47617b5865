"""End-to-end runs of the command line front end.

Everything goes through main(argv), in-process but for one test that
needs a fresh interpreter; workloads, configs and traces live under
tmp_path.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dataplane import switch
from dataplane.apps import (
    KEEPALIVE_ETHERTYPE, SamplerConfig, app_from_config, initial_switch_state, parse_standard,
)
from dataplane.checker import expected_outputs, sampler_spec_check
from dataplane.cli import _load_workload, main
from dataplane.headers import (
    IP_PROTO_TCP, IP_PROTO_UDP, SAMPLE_MARKER, build_packet, make_ethernet,
    make_intrinsic_meta, make_ipv4, make_port_meta, make_tcp, make_udp,
)
from dataplane.packet_format import BitString
from dataplane.switch import ORACLE_POLICIES

from support import (
    BAD_NESTED_CONFIGS, PastTheEndOracle, assert_format_4_loses_nothing, count_pipeline_calls,
    drained, drop_last_multicast_copy, tcp_pkt, udp_pkt,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _dump(rec) -> str:
    """A trace record as the trace writes it."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


CONFIGS = {
    "identity": {"app": "identity", "forward_port": 2},
    "sampler": {"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 4},
    "firewall": {"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 32,
                 "keepalive_period": 8},
}


@pytest.fixture
def identity_cfg(tmp_path):
    return write_config(tmp_path, "identity.json", CONFIGS["identity"])


@pytest.fixture
def sampler_cfg(tmp_path):
    return write_config(tmp_path, "sampler.json", CONFIGS["sampler"])


@pytest.fixture
def firewall_cfg(tmp_path):
    return write_config(tmp_path, "firewall.json", CONFIGS["firewall"])


# ---------------------------------------------------------------------------
# gen


class TestGen:
    def test_deterministic(self, tmp_path, capsys):
        a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
        assert run_cli(capsys, "gen", "--seed", "7", "--out", a)[0] == 0
        assert run_cli(capsys, "gen", "--seed", "7", "--out", b)[0] == 0
        assert run_cli(capsys, "gen", "--seed", "8", "--out", c)[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_stdout_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--count", "5", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for line in lines:
            obj = json.loads(line)
            assert sorted(obj) == ["packet", "port"]
            assert obj["port"] == 1

    def test_profile_tcp(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--profile", "tcp",
                               "--count", "12", "--seed", "3")
        assert code == 0
        for line in out.splitlines():
            p = BitString.from_json(json.loads(line)["packet"])
            parsed = parse_standard(p)
            assert parsed is not None
            assert parsed.slots["ipv4"]["protocol"] == IP_PROTO_TCP

    def test_ports_drawn_from_list(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--count", "40", "--seed", "2",
                               "--ports", "2,5")
        assert code == 0
        seen = {json.loads(line)["port"] for line in out.splitlines()}
        assert seen == {2, 5}

    def test_ports_empty_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--ports", "")
        assert code == 2
        assert "--ports" in err

    @pytest.mark.parametrize("ports, bad", [("600", "600"), ("-1", "-1"), ("x", "'x'"),
                                            ("1,,x", "'x'")], ids=["600", "-1", "x", "1,,x"])
    def test_ports_checked(self, tmp_path, capsys, ports, bad):
        wl = tmp_path / "w.jsonl"
        code, out, err = run_cli(capsys, "gen", "--ports", ports, "--out", str(wl))
        assert code == 2 and out == "" and not wl.exists()
        (line,) = err.splitlines()
        assert line.startswith("error: --ports item ") and line.endswith(f"got {bad}")

    @pytest.mark.parametrize("argv, message", [
        (["--count", "-3"], "--count must be at least 0, got -3"),
        (["--malformed-rate", "7"], "--malformed-rate must be in 0..1, got 7.0"),
        (["--malformed-rate", "-5"], "--malformed-rate must be in 0..1, got -5.0"),
        (["--malformed-rate", "nan"], "--malformed-rate must be in 0..1, got nan"),
    ], ids=["count-negative", "rate-7", "rate-negative", "rate-nan"])
    def test_bad_number_rejected(self, tmp_path, capsys, argv, message):
        wl = tmp_path / "w.jsonl"
        code, out, err = run_cli(capsys, "gen", *argv, "--out", str(wl))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not wl.exists()

    def test_count_zero_writes_an_empty_file(self, tmp_path, capsys):
        wl = tmp_path / "w.jsonl"
        assert run_cli(capsys, "gen", "--count", "0", "--out", str(wl)) == (0, "", "")
        assert wl.read_bytes() == b""

    def test_malformed_rate_one_truncates_everything(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--count", "25", "--seed", "9",
                               "--malformed-rate", "1.0")
        assert code == 0
        for line in out.splitlines():
            p = BitString.from_json(json.loads(line)["packet"])
            assert len(p) < 240
            assert parse_standard(p) is None


# ---------------------------------------------------------------------------
# sim


class TestSim:
    def test_idle_run_ticks_clock(self, identity_cfg, capsys):
        code, out, _ = run_cli(capsys, "sim", "--config", identity_cfg,
                               "--steps", "5")
        assert code == 0
        assert out == "steps=5 outputs=0 t=5 fault=none\n"

    def test_drain_forwards_workload(self, identity_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "12", "--seed", "4", "--out", wl)
        tr = str(tmp_path / "t.jsonl")
        code, out, _ = run_cli(capsys, "sim", "--config", identity_cfg,
                               "--input", wl, "--steps", "500",
                               "--drain", "--trace", tr)
        assert code == 0
        assert "outputs=12" in out and "fault=none" in out
        header = json.loads(open(tr).read().splitlines()[0])
        assert header["type"] == "header"

    def test_negative_steps_rejected(self, identity_cfg, tmp_path, capsys):
        tr = tmp_path / "t.jsonl"
        code, out, err = run_cli(capsys, "sim", "--config", identity_cfg, "--steps", "-1",
                                 "--trace", str(tr))
        assert (code, out, err) == (2, "", "error: --steps must be at least 0, got -1\n")
        assert not tr.exists()

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "sim", "--config", "/nope/none.json")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "typo.json", {"app": "sampler", "sample_evry": 4})
        code, out, err = run_cli(capsys, "sim", "--config", cfg)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "sample_evry" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config", [
        {"app": "sampler", "sample_every": None},
        {"app": "identity", "forward_port": [1]},
    ])
    def test_non_integer_config_value_rejected(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, "bad.json", config)
        code, out, err = run_cli(capsys, "sim", "--config", cfg)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must be an integer" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "config, path", BAD_NESTED_CONFIGS,
        ids=[json.dumps(c, separators=(",", ":")) for c, _ in BAD_NESTED_CONFIGS])
    def test_bad_nested_config_rejected(self, tmp_path, capsys, config, path):
        cfg = write_config(tmp_path, "bad.json", config)
        code, out, err = run_cli(capsys, "sim", "--config", cfg)
        assert code == 2 and out == ""
        assert err.startswith("error:") and path in err
        assert len(err.splitlines()) == 1

    OUT_OF_RANGE = [
        ({"app": "identity", "forward_port": 600},
         "error: config: forward_port must be in 0..511, got 600"),
        ({"app": "firewall", "outside_port": 900},
         "error: config: outside_port must be in 0..511, got 900"),
        ({"app": "sampler", "monitor_port": 700},
         "error: config: monitor_port must be in 0..511, got 700"),
        ({"app": "sampler", "monitor_group": 70000},
         "error: config: monitor_group must be in 1..65535, got 70000"),
        ({"app": "firewall", "bits": 2 ** 70},
         "error: config: bits must be at most 65536 and hash_count at most 16"),
        ({"app": "firewall", "hash_count": 2 ** 70},
         "error: config: bits must be at most 65536 and hash_count at most 16"),
        ({"app": "sampler", "forward_rid": 0},
         "error: config: forward_rid must not be 0, the rid of every unicast copy"),
        ({"app": "sampler", "monitor_rid": 0},
         "error: config: monitor_rid must not be 0, the rid of every unicast copy"),
        ({"app": "firewall", "inside_port": 600},
         "error: config: inside_port must be in 0..511, got 600"),
        ({"app": "sampler", "forward_rid": 70000},
         "error: config: forward_rid must be in 0..65535, got 70000"),
        ({"app": "sampler", "monitor_group": 0},
         "error: config: monitor_group must be in 1..65535, got 0"),
    ]
    OUT_OF_RANGE_IDS = ["identity-forward-600", "firewall-outside-900",
                        "sampler-monitor-700", "sampler-group-70000",
                        "firewall-bits-2^70", "firewall-hash-count-2^70",
                        "sampler-forward-rid-0", "sampler-monitor-rid-0",
                        "firewall-inside-600", "sampler-forward-rid-70000",
                        "sampler-group-0"]

    @pytest.mark.parametrize("config, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_port_or_group_rejected(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, "bad.json", config)
        wl = tmp_path / "w.jsonl"
        wl.write_text("".join(json.dumps({"port": port, "packet": tcp_pkt().to_json()}) + "\n"
                              for port in (1, 2)))
        assert run_cli(capsys, "sim", "--config", cfg, "--input", str(wl)) == (2, "", message + "\n")

    @pytest.mark.parametrize("config, message", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_refused_before_any_packet(self, tmp_path, capsys, config, message):
        # the metadata an app emits is built with the app, so a run that
        # never parses a packet refuses the config as well
        cfg = write_config(tmp_path, "bad.json", config)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for run_args in (["--steps", "0"], ["--input", str(empty)]):
            assert run_cli(capsys, "sim", "--config", cfg, *run_args) == (2, "", message + "\n")

    @pytest.mark.parametrize("line, what", [
        ("[1]", "JSON object"),
        ('{"port": 1, "packet": 5}', "hex string"),
        ('{"port": 1, "packet": "zz"}', "hexadecimal"),
        ('{"port": "1", "packet": "00"}', "port must be an integer"),
        ('{"port": 100000, "packet": "00"}', "port must be in 0..511"),
        ('{"port": -1, "packet": "00"}', "port must be in 0..511"),
        # written as the byte 0xff, which no UTF-8 text holds
        ('{"port": 1, "packet": "\udcff"}', "can't decode byte 0xff in position 23"),
    ])
    def test_bad_workload_line_rejected(self, identity_cfg, tmp_path, capsys, line, what):
        wl = tmp_path / "w.jsonl"
        wl.write_text(json.dumps({"port": 1, "packet": tcp_pkt().to_json()}) + "\n" + line + "\n",
                      errors="surrogateescape")
        code, out, err = run_cli(capsys, "sim", "--config", identity_cfg, "--input", str(wl))
        assert code == 2 and out == ""
        assert err.startswith("error: workload line 2:") and what in err
        assert len(err.splitlines()) == 1

    def test_unknown_policy_rejected(self, identity_cfg, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["sim", "--config", identity_cfg, "--policy", "bogus"])
        assert ei.value.code == 2

    def test_sim_does_not_import_the_check_pass(self, sampler_cfg, tmp_path, capsys):
        # in a fresh interpreter, so that no earlier test has imported it
        wl, tr = str(tmp_path / "w.jsonl"), str(tmp_path / "t.jsonl")
        run_cli(capsys, "gen", "--count", "8", "--seed", "3", "--out", wl)
        script = ("import sys\n"
                  "from dataplane import cli\n"
                  f"code = cli.main(['sim', '--config', {sampler_cfg!r}, '--input', {wl!r},\n"
                  f"                 '--drain', '--trace', {tr!r}])\n"
                  "assert code == 0, code\n"
                  "assert 'dataplane.audit' not in sys.modules\n"
                  "assert 'dataplane.checker' not in sys.modules\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("steps=")


# ---------------------------------------------------------------------------
# check

def _sim_trace(capsys, tmp_path, cfg, *, workload=None, steps=500,
               drain=True, policy="fifo-drain", seed=0):
    tr = str(tmp_path / "trace.jsonl")
    argv = ["sim", "--config", cfg, "--steps", str(steps),
            "--policy", policy, "--seed", str(seed), "--trace", tr]
    if workload:
        argv += ["--input", workload]
    if drain:
        argv.append("--drain")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, (out, err)
    return tr


class TestCheck:
    def test_each_pipeline_runs_once_per_step(self, sampler_cfg, tmp_path, capsys,
                                              monkeypatch):
        # the replay runs each step's pipeline, and the axioms take the
        # replayed step's call instead of running it again
        calls = count_pipeline_calls(monkeypatch)
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "6", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, policy="random", seed=3)
        with open(tr) as fh:
            steps = [r for r in map(json.loads, fh) if r["type"] == "step"]
        carrying = sum(r["decisions"]["kind"] == "egress" or r["detail"]["p_i"] is not None
                       for r in steps)
        calls.clear()
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 0, out
        assert len(calls) == carrying > 0

    def test_identity_roundtrip(self, identity_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "8", "--seed", "5", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, identity_cfg, workload=wl)
        code, out, _ = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 0
        assert "replay: ok" in out and "axioms: ok" in out

    def test_random_policy_replays(self, sampler_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "6", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl,
                        policy="random", seed=11, steps=400)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 0, out
        assert "replay: ok" in out

    def test_sampler_spec_ok(self, sampler_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "6", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                               "--spec", "sampler")
        assert code == 0, out
        assert "sampler: ok" in out

    def test_sampler_spec_wrong_rate_flagged(self):
        # `check` takes the period from the config, which the header's
        # digest pins (test_spec_takes_no_parameter), so only a library
        # call can judge a stream against another period
        inputs = [tcp_pkt(sp=i) for i in range(10)]
        every_4th = SamplerConfig(forward_port=1, monitor_port=3, sample_every=4)
        every_5th = SamplerConfig(forward_port=1, monitor_port=3, sample_every=5)
        v = sampler_spec_check(0, inputs, expected_outputs(0, inputs, every_4th), every_5th)
        assert (v.ok, v.violated_clause) == (False, "sampler.stream")

    def test_sampler_spec_on_a_packet_leading_with_the_marker(self, tmp_path, capsys):
        # ingress accepts any 16-bit meta.ingress_port, the sample
        # marker's value included; egress must still read the forwarded
        # copy as the standard packet it is, not strip a "sample" header
        cfg = write_config(tmp_path, "sampler.json", {"app": "sampler", "sample_every": 4})
        wl = tmp_path / "w.jsonl"
        run_cli(capsys, "gen", "--count", "3", "--seed", "7", "--ports", "1,2",
                "--out", str(wl))
        lines = wl.read_text().splitlines()
        first = json.loads(lines[0])
        first["packet"] = f"{SAMPLE_MARKER:04x}" + first["packet"][4:]
        lines[0] = json.dumps(first, sort_keys=True)
        wl.write_text("\n".join(lines) + "\n")
        tr = _sim_trace(capsys, tmp_path, cfg, workload=str(wl))
        code, out, _ = run_cli(capsys, "check", tr, "--config", cfg, "--spec", "sampler")
        assert (code, out) == (0, "replay: ok (6 steps)\naxioms: ok\nsampler: ok\n")

    def test_sampler_spec_ok_under_adversarial_drop(self, sampler_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "60", "--seed", "7", "--ports", "1,2", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, policy="adversarial-drop")
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                               "--spec", "sampler")
        assert code == 0, out
        assert out.endswith("axioms: ok\nsampler: ok\n")

    def test_sampler_spec_catches_a_dropped_copy(self, sampler_cfg, tmp_path, capsys,
                                                 monkeypatch):
        # every admission kept every copy and the run drained, so
        # completeness is demanded; the mutant loses the monitor copies
        drop_last_multicast_copy(monkeypatch)
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "200", "--seed", "7", "--ports", "1,2", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, steps=1000)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                               "--spec", "sampler")
        assert code == 1, out
        assert out.endswith("axioms: ok\nsampler: VIOLATION clause=sampler.incomplete "
                            "200 outputs for 250 expected\n")

    # a run cut short by --steps: after 90 steps q_egress is drained, so
    # the inputs taken must have all their outputs; after 91 a copy is
    # still queued (a dropping admission: ..._ok_under_adversarial_drop)
    @pytest.mark.parametrize("steps", [90, 91])
    def test_sampler_spec_ok_on_a_run_cut_short(self, sampler_cfg, tmp_path, capsys, steps):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "200", "--seed", "7", "--ports", "1,2", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, steps=steps, drain=False)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                               "--spec", "sampler")
        assert code == 0, out
        assert out.endswith("axioms: ok\nsampler: ok\n")

    def test_sampler_spec_unmet_on_a_reordering_trace(self, sampler_cfg, tmp_path, capsys):
        # the relation holds only when arrivals are taken and copies
        # scheduled oldest first; --policy random does neither
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "60", "--seed", "7", "--ports", "1,2", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, policy="random",
                        seed=7, steps=2000)
        steps = [json.loads(line) for line in open(tr)][1:-1]
        # the packets are distinct, so the first index past the head is
        # the first arrival taken out of order
        i = next(i for i, r in enumerate(steps) if r["decisions"]["input_index"])
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                                 "--spec", "sampler")
        assert code == 2
        assert out == f"replay: ok ({len(steps)} steps)\n"
        assert err == (f"sampler: precondition unmet "
                       f"(step {i} takes an arrival behind the head of q_input)\n")

    @pytest.mark.parametrize("edit", ["reversed-keys", "spaced"])
    def test_record_rewritten_without_change_diverges(self, sampler_cfg, tmp_path, capsys,
                                                      edit):
        # the same record in other key order or spacing is not the line
        # the replay writes, so the byte comparison rejects it
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        lines = open(tr).read().splitlines()
        rec = json.loads(lines[3])
        if edit == "reversed-keys":
            lines[3] = json.dumps(dict(reversed(list(rec.items()))))
        else:
            lines[3] = json.dumps(rec, sort_keys=True)
        assert json.loads(lines[3]) == rec
        open(tr, "w").write("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 1 and err == ""
        assert out == "replay: VIOLATION clause=trace.divergence step=2\n"

    def test_tampered_step_diverges(self, identity_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "4", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, identity_cfg, workload=wl)
        lines = open(tr).read().splitlines()
        obj = json.loads(lines[1])
        assert obj["type"] == "step"
        obj["post"]["lens"][0] += 1
        lines[1] = _dump(obj)
        open(tr, "w").write("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 1
        assert "replay: VIOLATION clause=trace.divergence" in out

    @staticmethod
    def _edit_record(tr, index, edit):
        lines = open(tr).read().splitlines()
        obj = json.loads(lines[index])
        edit(obj)
        lines[index] = _dump(obj)
        open(tr, "w").write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("format"),
        lambda h: h.update(format=1),
        lambda h: h.update(format=2),
        lambda h: h.update(format=3),
        lambda h: h.update(format=4),
    ], ids=["no-format", "format-1", "format-2", "format-3", "format-4"])
    def test_other_trace_format_rejected(self, identity_cfg, tmp_path, capsys,
                                         edit):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=3, drain=False)
        self._edit_record(tr, 0, edit)
        code, out, err = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 2 and out == ""
        assert err.startswith("error: trace format") and len(err.splitlines()) == 1
        assert err.endswith(" is not supported; this version reads format 5\n")

    def test_tampered_end_queues_diverge(self, identity_cfg, tmp_path, capsys):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "4", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, identity_cfg, workload=wl)

        def edit(end):
            assert end["type"] == "end"
            end["final_queues"]["q_output"] = "0" * 16

        self._edit_record(tr, -1, edit)
        code, out, _ = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 1
        assert "replay: VIOLATION clause=trace.divergence" in out

    def test_wrong_config_rejected(self, identity_cfg, sampler_cfg, tmp_path,
                                   capsys):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=3, drain=False)
        code, _, err = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 2
        assert "config does not match" in err

    @pytest.mark.parametrize("app, key, value", [
        ("sampler", "sample_every", 8),
        ("identity", "forward_port", 3),
        ("firewall", "hash_seed", 7),
    ])
    def test_config_differing_in_an_app_field_rejected(self, request, tmp_path,
                                                       capsys, app, key, value):
        cfg = request.getfixturevalue(f"{app}_cfg")
        tr = _sim_trace(capsys, tmp_path, cfg, steps=20, drain=False)
        other = write_config(tmp_path, "other.json",
                             {**json.loads(open(cfg).read()), key: value})
        code, out, err = run_cli(capsys, "check", tr, "--config", other,
                                 "--spec", "sampler" if app == "sampler" else "axioms")
        assert code == 2 and out == ""
        assert err == "error: config does not match the trace header\n"

    def test_sampler_spec_on_other_app_rejected(self, firewall_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, firewall_cfg, steps=20, drain=False)
        code, _, err = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                               "--spec", "sampler")
        assert code == 2
        assert err == "error: --spec sampler needs a sampler config\n"

    def test_non_object_record_rejected(self, identity_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=3, drain=False)
        with open(tr, "a") as fh:
            fh.write("[1]\n")
        code, out, err = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 2 and out == ""
        assert err.startswith("error: every trace record") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("where, line, message", [
        ("first", b"{", "Expecting property name enclosed in double quotes: column 2"),
        ("middle", b"{", "Expecting property name enclosed in double quotes: column 2"),
        ("middle", b'{"type":"\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    ], ids=["first", "middle", "not-utf-8"])
    def test_non_json_line_named(self, identity_cfg, tmp_path, capsys, where, line, message):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=6, drain=False)
        lines = open(tr, "rb").read().splitlines()
        index = {"first": 0, "middle": len(lines) // 2}[where]
        lines[index] = line
        open(tr, "wb").write(b"\n".join(lines) + b"\n")
        code, out, err = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 2 and out == ""
        assert err == f"error: trace line {index + 1}: {message}\n"

    @pytest.mark.parametrize("key", ["config_digest", "state_digest"])
    def test_missing_header_digest_named(self, identity_cfg, tmp_path, capsys, key):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=3, drain=False)
        self._edit_record(tr, 0, lambda h: h.pop(key))
        code, out, err = run_cli(capsys, "check", tr, "--config", identity_cfg)
        assert code == 2 and out == ""
        assert err == f"error: trace line 1: key {key!r} is missing\n"

    def test_headerless_file_rejected(self, identity_cfg, tmp_path, capsys):
        tr = tmp_path / "junk.jsonl"
        tr.write_text('{"type":"end","steps":0}\n')
        code, _, err = run_cli(capsys, "check", str(tr),
                               "--config", identity_cfg)
        assert code == 2
        assert "header" in err

    def test_missing_trace_file(self, identity_cfg, capsys):
        code, _, err = run_cli(capsys, "check", "/nope/t.jsonl",
                               "--config", identity_cfg)
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_selector(self, identity_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=2, drain=False)
        code, _, err = run_cli(capsys, "check", tr, "--config", identity_cfg,
                               "--spec", "bogus")
        assert code == 2
        assert "unknown spec selector" in err

    def test_denseflow_needs_gap(self, identity_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, identity_cfg, steps=2, drain=False)
        code, _, err = run_cli(capsys, "check", tr, "--config", identity_cfg,
                               "--spec", "denseflow")
        assert code == 2
        assert "denseflow" in err

    def test_denseflow_firewall_keepalives(self, firewall_cfg, tmp_path,
                                           capsys):
        # keepalive generator period is 8, so 8 is tight and 7 is too strict
        tr = _sim_trace(capsys, tmp_path, firewall_cfg, steps=120,
                        drain=False)
        code, out, _ = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                               "--spec", "denseflow:8")
        assert code == 0, out
        assert "denseflow: ok" in out
        code, out, _ = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                               "--spec", "denseflow:7")
        assert code == 1
        assert "denseflow: VIOLATION clause=denseflow.gap" in out

    def test_langsec_on_malformed_workload(self, sampler_cfg, tmp_path,
                                           capsys):
        wl = str(tmp_path / "bad.jsonl")
        run_cli(capsys, "gen", "--count", "15", "--seed", "8",
                "--malformed-rate", "1.0", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                               "--spec", "langsec")
        assert code == 0, out
        assert "langsec: ok" in out

    def test_langsec_precondition_unmet(self, firewall_cfg, tmp_path, capsys):
        # the firewall runs a keepalive generator, which injects traffic
        # the langsec claim does not cover
        tr = _sim_trace(capsys, tmp_path, firewall_cfg, steps=40, drain=False)
        code, _, err = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                               "--spec", "langsec")
        assert code == 2
        assert "precondition" in err

    def test_firewall_spec(self, firewall_cfg, tmp_path, capsys):
        # an outbound packet, then filler the parser rejects, then the
        # reply: it comes after the window of 32 ticks and is dropped,
        # which the freshness claim allows for gaps up to the window only
        out = tcp_pkt(src=0x0A000001, dst=0xC0A80001, sp=4000, dp=443)
        back = tcp_pkt(src=0xC0A80001, dst=0x0A000001, sp=443, dp=4000)
        wl = tmp_path / "flows.jsonl"
        wl.write_text("".join(json.dumps({"port": port, "packet": p}) + "\n" for port, p in
                              [(1, out.to_hex())] + [(1, "00")] * 40 + [(2, back.to_hex())]))
        tr = _sim_trace(capsys, tmp_path, firewall_cfg, workload=str(wl))
        code, out, _ = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                               "--spec", "firewall:32")
        assert code == 0, out
        assert out.endswith("axioms: ok\nfirewall: ok\n")
        # a gap above the window asks for more than the filter promises
        for gap in (33, 100):
            code, out, err = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                                     "--spec", f"firewall:{gap}")
            assert code == 2 and out == ""
            assert err == (f"error: --spec firewall:{gap} is above the config's window "
                           f"of 32; freshness holds only for a gap up to the window\n")

    def test_firewall_spec_needs_gap(self, firewall_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, firewall_cfg, steps=20, drain=False)
        code, out, err = run_cli(capsys, "check", tr, "--config", firewall_cfg,
                                 "--spec", "firewall")
        assert code == 2 and out == ""
        assert err == "error: firewall needs a gap, e.g. firewall:64\n"

    def test_firewall_spec_on_other_app_rejected(self, sampler_cfg, tmp_path, capsys):
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, steps=20, drain=False)
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                                 "--spec", "firewall:32")
        assert code == 2 and out == ""
        assert err == "error: --spec firewall needs a firewall config\n"

    @pytest.mark.parametrize("app, spec", [
        ("firewall", "denseflow:-3"), ("firewall", "firewall:0"),
    ])
    def test_spec_number_must_be_positive(self, request, tmp_path, capsys, app, spec):
        cfg = request.getfixturevalue(f"{app}_cfg")
        tr = _sim_trace(capsys, tmp_path, cfg, steps=20, drain=False)
        code, out, err = run_cli(capsys, "check", tr, "--config", cfg, "--spec", spec)
        name, _, param = spec.partition(":")
        assert code == 2 and out == ""
        assert err == (f"error: --spec {name} takes a whole number of at least 1, "
                       f"got {param!r}\n")

    # only a gap is a parameter; every other value a spec reads is the
    # config's, which the header's digest pins
    @pytest.mark.parametrize("app, spec", [
        ("identity", "axioms:7"), ("identity", "langsec:x"), ("sampler", "sampler:"),
        ("sampler", "sampler:5"), ("sampler", "sampler:x"), ("sampler", "sampler:0"),
    ])
    def test_spec_takes_no_parameter(self, request, tmp_path, capsys, app, spec):
        cfg = request.getfixturevalue(f"{app}_cfg")
        tr = _sim_trace(capsys, tmp_path, cfg, steps=20, drain=False)
        code, out, err = run_cli(capsys, "check", tr, "--config", cfg, "--spec", spec)
        name = spec.partition(":")[0]
        assert (code, out) == (2, "")
        assert err == f"error: --spec {name} takes no parameter, got {spec!r}\n"

    @pytest.mark.parametrize("index, edit, message", [
        (0, lambda r: r["queues"].update(q_input=5),
         "key 'queues.q_input' must be a list, got 5"),
        (1, lambda r: r.update(decisions="x"),
         "key 'decisions' must be an object, got 'x'"),
        (1, lambda r: r["decisions"].update(input_index="x"),
         "key 'decisions.input_index' must be an integer or null, got 'x'"),
        (1, lambda r: r["decisions"].update(requested_kind="teleport"),
         "key 'decisions.requested_kind' must be \"ingress\" or \"egress\", got 'teleport'"),
    ], ids=["queues.q_input", "decisions", "decisions.input_index",
            "decisions.requested_kind"])
    def test_malformed_record_rejected(self, sampler_cfg, tmp_path, capsys,
                                       index, edit, message):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "5", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        self._edit_record(tr, index, edit)
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 2 and out == ""
        assert err == f"error: trace line {index + 1}: {message}\n"

    @pytest.mark.parametrize("record", ["first", "middle", "last", "end"])
    def test_divergence_names_the_tampered_record(self, sampler_cfg, tmp_path, capsys,
                                                  record):
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        steps = len(open(tr).read().splitlines()) - 2
        assert steps == 22
        index = {"first": 1, "middle": 11, "last": steps, "end": steps + 1}[record]

        def edit(rec):
            rec["final_queues" if rec["type"] == "end" else "post"]["lens"][2] += 1

        self._edit_record(tr, index, edit)
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 1 and err == ""
        assert out == f"replay: VIOLATION clause=trace.divergence step={index - 1}\n"

    def test_forged_kept_slot_digest_diverges(self, sampler_cfg, tmp_path, capsys):
        # an ingress step keeps s_ep, so its record leaves s_ep out; one
        # that adds the slot's true digest is not the record of the step
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "10", "--seed", "7", "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl)
        recs = [json.loads(line) for line in open(tr)]
        index = [i for i, r in enumerate(recs)
                 if r["type"] == "step" and r["decisions"]["kind"] == "ingress"][3]
        digests = switch.state_digests(initial_switch_state(app_from_config(CONFIGS["sampler"])))
        for rec in recs[1:index]:
            digests.update(rec["post"])

        def edit(rec):
            assert "s_ep" not in rec["post"]
            rec["post"]["s_ep"] = digests["s_ep"]

        self._edit_record(tr, index, edit)
        code, out, err = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 1 and err == ""
        assert out == f"replay: VIOLATION clause=trace.divergence step={index - 1}\n"

    def test_check_holds_one_step_at_a_time(self, sampler_cfg, tmp_path, capsys):
        # the replayed steps are audited as they are read and not kept, so
        # the check's peak allocation stays well below the trace's size
        wl = str(tmp_path / "w.jsonl")
        run_cli(capsys, "gen", "--count", "200", "--seed", "7", "--ports", "1,2",
                "--out", wl)
        tr = _sim_trace(capsys, tmp_path, sampler_cfg, workload=wl, steps=2000)
        size = os.path.getsize(tr)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg,
                                   "--spec", "sampler")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, out
        assert out == "replay: ok (450 steps)\naxioms: ok\nsampler: ok\n"
        assert peak < 3 * size, (peak, size)


# ---------------------------------------------------------------------------
# check on mutated honest traces: an exit code, never a traceback


MUTANT_LEAVES = [None, True, False, -1, 2 ** 70, 1.5, "x", [1], {"x": 1}]
MUTANT_SPECS = {"identity": ["axioms", "denseflow:16", "langsec"],
                "sampler": ["axioms", "sampler", "langsec"],
                "firewall": ["axioms", "firewall:16", "denseflow:8"]}


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _paths(obj, path=()):
    """(leaf paths, key paths) of a JSON value: the path of every value
    that is not a nonempty object or list, and of every key of every
    object."""
    if not isinstance(obj, (dict, list)) or not obj:
        return [path], []
    leaves, keys = [], []
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        sub_leaves, sub_keys = _paths(v, path + (k,))
        leaves += sub_leaves
        keys += sub_keys
        if isinstance(obj, dict):
            keys.append(path + (k,))
    return leaves, keys


def _parent(obj, path):
    """(the container holding path's value, its key there)."""
    for k in path[:-1]:
        obj = obj[k]
    return obj, path[-1]


def _mutant(data, text: str) -> str:
    """The JSON object text with one leaf set to a MUTANT_LEAVES value,
    one key deleted, or one byte made a printable character."""
    obj = json.loads(text)
    leaves, keys = _paths(obj)
    how = data.draw(st.sampled_from(["leaf", "key", "byte"]), "mutation")
    if how == "leaf":
        target, k = _parent(obj, data.draw(st.sampled_from(leaves), "leaf"))
        target[k] = data.draw(st.sampled_from(MUTANT_LEAVES), "value")
        return _dump(obj)
    if how == "key":
        target, k = _parent(obj, data.draw(st.sampled_from(keys), "key"))
        del target[k]
        return _dump(obj)
    j = data.draw(st.integers(0, len(text) - 1), "byte")
    c = data.draw(st.characters(min_codepoint=32, max_codepoint=126), "char")
    return text[:j] + c + text[j + 1:]


@pytest.fixture(scope="module")
def honest_traces(tmp_path_factory):
    """app -> (config path, trace lines) of a drained run of a small
    workload, which the header's q_input carries in full."""
    d = tmp_path_factory.mktemp("honest")
    wl = str(d / "w.jsonl")
    assert _quiet_main("gen", "--count", "6", "--seed", "7", "--ports", "1,2",
                       "--malformed-rate", "0.2", "--out", wl)[0] == 0
    traces = {}
    for app, obj in CONFIGS.items():
        cfg, tr = write_config(d, f"{app}.json", obj), str(d / f"{app}.jsonl")
        assert _quiet_main("sim", "--config", cfg, "--input", wl, "--steps", "60",
                           "--drain", "--trace", tr)[0] == 0
        with open(tr) as fh:
            traces[app] = cfg, fh.read().splitlines()
    return traces, str(d / "mutant.jsonl")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_survives_mutated_traces(honest_traces, data):
    traces, path = honest_traces
    app = data.draw(st.sampled_from(sorted(traces)), "app")
    cfg, lines = traces[app]
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), "record")
    lines[i] = _mutant(data, lines[i])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    spec = data.draw(st.sampled_from(MUTANT_SPECS[app]), "spec")
    code, out, err = _quiet_main("check", path, "--config", cfg, "--spec", spec)
    assert code in (0, 1, 2, 3), (code, out, err)
    assert code != 1 or "VIOLATION clause=" in out, (out, err)


# ---------------------------------------------------------------------------
# sim on a mutated config or workload: an exit code, never a traceback


_TEMPLATE = tcp_pkt(sp=7).to_hex()
# each app's config with every engine section it reads
SIM_CONFIGS = {
    "identity": {**CONFIGS["identity"],
                 "mc": {"groups": {"5": [{"dev_port_list": [1, 2], "rid": 1}]},
                        "lags": {"3": [1, 2]}},
                 "pktgen": {"enabled": True, "period": 7, "template": _TEMPLATE},
                 "qac": {"kind": "always_ready", "ready_ports": [1]}},
    "sampler": {**CONFIGS["sampler"], "qac": "minimal",
                "pktgen": {"enabled": True, "period": 9, "template": _TEMPLATE}},
    "firewall": {**CONFIGS["firewall"], "bits": 64, "hash_count": 2,
                 "qac": {"kind": "always_ready"}},
}


@pytest.fixture(scope="module")
def sim_inputs(tmp_path_factory):
    """(a scratch directory, the lines of a small workload)."""
    d = tmp_path_factory.mktemp("sim")
    wl = d / "w.jsonl"
    assert _quiet_main("gen", "--count", "6", "--seed", "7", "--ports", "1,2",
                       "--malformed-rate", "0.2", "--out", str(wl))[0] == 0
    return d, wl.read_text().splitlines()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sim_survives_mutated_inputs(sim_inputs, data):
    d, lines = sim_inputs
    config = _dump(SIM_CONFIGS[data.draw(st.sampled_from(sorted(SIM_CONFIGS)), "app")])
    lines = list(lines)
    if data.draw(st.booleans(), "mutate the config"):
        config = _mutant(data, config)
    else:
        i = data.draw(st.integers(0, len(lines) - 1), "workload line")
        lines[i] = _mutant(data, lines[i])
    (d / "config.json").write_text(config)
    (d / "mutant.jsonl").write_text("\n".join(lines) + "\n")
    policy = data.draw(st.sampled_from(ORACLE_POLICIES), "policy")
    code, out, err = _quiet_main("sim", "--config", str(d / "config.json"),
                                 "--input", str(d / "mutant.jsonl"), "--steps", "60",
                                 "--policy", policy, "--drain")
    assert code in (0, 2, 3), (code, out, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.endswith("\n"), err
        assert err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# the bytes of a trace are its format: a change that should leave them
# alone must leave these sha256 prefixes alone

PINNED_SPECS = {"identity": "axioms", "sampler": "sampler", "firewall": "firewall:32"}
# (app, policy) -> (trace file, stdout of `check --spec PINNED_SPECS[app]`)
PINNED = {
    ("identity", "fifo-drain"): ("2a1450e851301457", "b5e71a2955ad08c6"),
    ("identity", "random"): ("c17e0cdd1ee9094a", "ced8e81ec5428525"),
    ("identity", "adversarial-drop"): ("eb58bc4ee0d1c541", "24ddd97e5591df4b"),
    ("sampler", "fifo-drain"): ("a6d99ebde724ce8c", "6e01e3171f018f20"),
    ("sampler", "random"): ("6be5066cc183c82f", "e66c4d7c13844faa"),
    ("sampler", "adversarial-drop"): ("d05617887445bce5", "a85e1342f7eaecca"),
    ("firewall", "fifo-drain"): ("80d34898de8e551c", "0366738331950a2b"),
    ("firewall", "random"): ("98f00ef252b93639", "0366738331950a2b"),
    ("firewall", "adversarial-drop"): ("b13354fee2b8f8ff", "576296677ab0a1ca"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def pinned_workload(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    wl = str(d / "w.jsonl")
    assert _quiet_main("gen", "--count", "40", "--seed", "3", "--ports", "1,2",
                       "--malformed-rate", "0.05", "--out", wl)[0] == 0
    return wl


@pytest.mark.parametrize("app, policy", list(PINNED), ids=[f"{a}-{p}" for a, p in PINNED])
def test_trace_bytes_pinned(pinned_workload, tmp_path, app, policy):
    cfg, tr = write_config(tmp_path, "c.json", CONFIGS[app]), str(tmp_path / "t.jsonl")
    assert _quiet_main("sim", "--config", cfg, "--input", pinned_workload, "--policy", policy,
                       "--seed", "3", "--drain", "--trace", tr)[0] == 0
    _code, out, _ = _quiet_main("check", tr, "--config", cfg, "--spec", PINNED_SPECS[app])
    with open(tr, "rb") as fh:
        assert (_sha(fh.read()), _sha(out.encode())) == PINNED[app, policy]


def test_widest_firewall_filter_runs(pinned_workload, tmp_path):
    # a pane of the largest accepted width is an integer of about 19,700
    # decimal digits, past the interpreter's 4300-digit limit on turning
    # an integer into decimal text; the digests write it in hex
    cfg = write_config(tmp_path, "c.json", {**CONFIGS["firewall"], "bits": 65536})
    tr = str(tmp_path / "t.jsonl")
    code, out, err = _quiet_main("sim", "--config", cfg, "--input", pinned_workload,
                                 "--drain", "--trace", tr)
    assert code == 0 and err == "", err
    code, out, err = _quiet_main("check", tr, "--config", cfg, "--spec", "firewall:32")
    assert code == 0 and out.endswith("firewall: ok\n") and err == "", (out, err)


@pytest.mark.parametrize("app, policy", list(PINNED), ids=[f"{a}-{p}" for a, p in PINNED])
def test_format_4_loses_nothing(pinned_workload, tmp_path, app, policy):
    # every field format 3 wrote and format 4 leaves out, rebuilt from
    # the record alone, is the in-memory step's
    cfg, tr = write_config(tmp_path, "c.json", CONFIGS[app]), str(tmp_path / "t.jsonl")
    assert _quiet_main("sim", "--config", cfg, "--input", pinned_workload, "--policy", policy,
                       "--seed", "3", "--drain", "--trace", tr)[0] == 0
    switch_cfg = app_from_config(CONFIGS[app])
    trace = switch.run(switch_cfg, initial_switch_state(switch_cfg),
                       switch.SwitchQueues(q_input=_load_workload(pinned_workload)), 1000,
                       switch.make_oracle(policy, 3), stop_when=lambda s, q: drained(q))
    lines = switch.trace_to_lines(trace)
    with open(tr) as fh:
        assert fh.read().splitlines() == lines
    assert_format_4_loses_nothing(trace, lines)


# ---------------------------------------------------------------------------
# every stock app meets its spec on any workload: sim then check exits 0

PROPERTY_SPECS = {"identity": "axioms", "sampler": "sampler",
                  "firewall": f"firewall:{CONFIGS['firewall']['window']}"}
_HOSTS = (0x0A000001, 0xC0A80001)  # two hosts and two ports, so replies meet flows


@st.composite
def _any_packet(draw):
    """A standard packet with the meta and port_md fields over their full
    ranges (the sample marker included) and a TCP, UDP or other header."""
    proto = draw(st.one_of(st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP]), st.integers(0, 255)))
    src, dst = draw(st.permutations(_HOSTS))
    sp, dp = draw(st.permutations((80, 40000)))
    l4 = {IP_PROTO_TCP: make_tcp, IP_PROTO_UDP: make_udp}.get(proto)
    return build_packet(
        meta=make_intrinsic_meta(
            ingress_port=draw(st.one_of(st.just(SAMPLE_MARKER), st.integers(0, 2 ** 16 - 1))),
            reserved=draw(st.integers(0, 2 ** 48 - 1))),
        port_md=make_port_meta(blob=draw(st.integers(0, 2 ** 64 - 1))),
        ethernet=make_ethernet(ethertype=draw(st.sampled_from([0x0800, 0, KEEPALIVE_ETHERTYPE]))),
        ipv4=make_ipv4(protocol=proto, src=src, dst=dst),
        l4=None if l4 is None else l4(src_port=sp, dst_port=dp),
        payload=BitString.from_bytes(draw(st.binary(max_size=8))))


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(workload=st.lists(st.tuples(st.one_of(st.sampled_from([1, 2, 3]), st.integers(0, 511)),
                                   _any_packet()), min_size=1, max_size=12))
def test_stock_apps_meet_their_specs(tmp_path, workload):
    wl, tr = tmp_path / "w.jsonl", str(tmp_path / "t.jsonl")
    wl.write_text("".join(_dump({"port": port, "packet": p.to_json()}) + "\n"
                          for port, p in workload))
    for app, spec in PROPERTY_SPECS.items():
        cfg = write_config(tmp_path, f"{app}.json", CONFIGS[app])
        code, out, err = _quiet_main("sim", "--config", cfg, "--input", str(wl), "--drain",
                                     "--policy", "fifo-drain", "--trace", tr)
        assert code == 0, (app, out, err)
        code, out, err = _quiet_main("check", tr, "--config", cfg, "--spec", spec)
        assert code == 0, (app, out, err)


# ---------------------------------------------------------------------------
# engine faults surface as exit 3 and still leave a replayable trace


class TestFault:
    @pytest.fixture(autouse=True)
    def past_the_end(self, monkeypatch):
        # whatever the policy, `sim` schedules past the end of the egress
        # queue, so its first egress step faults
        monkeypatch.setattr(switch, "make_oracle", lambda policy, seed=0: PastTheEndOracle())

    @pytest.fixture
    def one_packet(self, tmp_path):
        wl = tmp_path / "one.jsonl"
        wl.write_text(json.dumps({"port": 0, "packet": udp_pkt().to_json()},
                                 sort_keys=True) + "\n")
        return str(wl)

    def test_fault_exit_code(self, sampler_cfg, one_packet, tmp_path,
                             capsys):
        tr = str(tmp_path / "fault.jsonl")
        code, out, _ = run_cli(capsys, "sim", "--config", sampler_cfg,
                               "--input", one_packet, "--steps", "10",
                               "--trace", tr)
        assert code == 3
        assert "fault=OracleOutOfRange" in out
        recs = [json.loads(line) for line in open(tr)]
        assert any(r["type"] == "fault" for r in recs)

    def test_faulted_trace_replays_cleanly(self, sampler_cfg, one_packet,
                                           tmp_path, capsys):
        tr = str(tmp_path / "fault.jsonl")
        run_cli(capsys, "sim", "--config", sampler_cfg, "--input",
                one_packet, "--steps", "10", "--trace", tr)
        code, out, _ = run_cli(capsys, "check", tr, "--config", sampler_cfg)
        assert code == 0, out
        assert "replay: ok (1 steps)" in out
        assert "axioms: ok" in out

    @pytest.mark.parametrize("key, code, line", [
        # every step asks for its kind first, so a fault record has one
        ("requested_kind", 2, "error: trace line 3: key 'decisions.requested_kind' is missing"),
        # a decision the record lacks is read as null: the replay then
        # faults otherwise than the record says
        ("sched_index", 1, "replay: VIOLATION clause=trace.divergence step=1"),
    ], ids=["requested_kind", "sched_index"])
    def test_fault_record_without_a_decision(self, sampler_cfg, one_packet, tmp_path,
                                             capsys, key, code, line):
        tr = tmp_path / "fault.jsonl"
        run_cli(capsys, "sim", "--config", sampler_cfg, "--input", one_packet,
                "--steps", "10", "--trace", str(tr))
        lines = tr.read_text().splitlines()
        recs = [json.loads(text) for text in lines]
        (i,) = [n for n, r in enumerate(recs) if r["type"] == "fault"]
        del recs[i]["decisions"][key]
        lines[i] = _dump(recs[i])
        tr.write_text("\n".join(lines) + "\n")
        got, out, err = run_cli(capsys, "check", str(tr), "--config", sampler_cfg)
        assert (got, (out + err).splitlines()) == (code, [line])


# ---------------------------------------------------------------------------
# fmt


class TestFmt:
    def test_standard_match(self, capsys):
        code, out, _ = run_cli(capsys, "fmt", "standard",
                               tcp_pkt(payload=b"xyz").to_hex())
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert "ethernet" in obj["env"] and "tcp" in obj["env"]

    def test_short_input_reported(self, capsys):
        code, out, _ = run_cli(capsys, "fmt", "standard", "deadbeef")
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_bad_hex(self, capsys):
        code, _, err = run_cli(capsys, "fmt", "standard", "zz")
        assert code == 2
        assert err.startswith("error:")

    def test_at_file(self, tmp_path, capsys):
        f = tmp_path / "p.hex"
        f.write_text(tcp_pkt().to_hex() + "\n")
        code, out, _ = run_cli(capsys, "fmt", "standard", f"@{f}")
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_bad_usage_exits_two():
    for argv in ([], ["sim"], ["fmt", "nosuch", "00"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2


DEEP = "[" * 10**5 + "]" * 10**5  # far past the JSON decoder's recursion limit


@pytest.mark.parametrize("where", ["config", "workload", "trace"])
def test_deeply_nested_json_is_bad_input(identity_cfg, tmp_path, capsys, where):
    # the decoder recurses once a nesting level; such a file is bad input
    # like any other undecodable one, one line and exit 2, no traceback
    wl = tmp_path / "w.jsonl"
    wl.write_text(json.dumps({"port": 1, "packet": tcp_pkt().to_json()}) + "\n")
    deep = tmp_path / "deep.json"
    if where == "config":
        deep.write_text(DEEP)
        argv, message = ["sim", "--config", str(deep)], "JSON nested too deeply"
    elif where == "workload":
        deep.write_text(wl.read_text() + DEEP + "\n")
        argv = ["sim", "--config", identity_cfg, "--input", str(deep)]
        message = "workload line 2: JSON nested too deeply"
    else:
        lines = open(_sim_trace(capsys, tmp_path, identity_cfg, workload=str(wl))).readlines()
        lines[2] = DEEP + "\n"
        deep.write_text("".join(lines))
        argv = ["check", str(deep), "--config", identity_cfg]
        message = "trace line 3: JSON nested too deeply"
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
