"""tools/scale.py, the scaling probe, at its smallest size: it runs `gen`,
`sim` and `check` as fresh processes and reports what each did."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from dataplane.cli import main
from dataplane.switch import ORACLE_POLICIES

SCALE = Path(__file__).resolve().parent.parent / "tools" / "scale.py"


def _probe(*argv) -> dict:
    """The JSON that the probe prints at 50 packets and one run."""
    proc = subprocess.run([sys.executable, str(SCALE), "--sizes", "50", "--runs", "1", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _scale():
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    return scale


def _in_process(tmp_path, policy: str, seed: int) -> tuple:
    """The probe's sampler workload, simulated in this process: (its config
    path, its trace path, the spec `check` judges it by)."""
    config, spec_name = _scale().APPS["sampler"]
    cfg, wl, tr = tmp_path / "c.json", str(tmp_path / "w.jsonl"), tmp_path / "t.jsonl"
    cfg.write_text(json.dumps(config))
    assert main(["gen", "--seed", "7", "--ports", "1,2", "--count", "50", "--out", wl]) == 0
    assert main(["sim", "--config", str(cfg), "--input", wl, "--policy", policy,
                 "--seed", str(seed), "--drain", "--steps", "1000000", "--trace", str(tr)]) == 0
    return cfg, tr, spec_name


def test_scale_probe_at_50_packets(tmp_path, capsys):
    got = _probe()
    row = got["sizes"]["50"]

    # the same workload and trace, made in this process
    cfg, tr, spec_name = _in_process(tmp_path, "fifo-drain", 0)
    sim_out = capsys.readouterr().out
    assert main(["check", str(tr), "--config", str(cfg), "--spec", spec_name]) == 0

    assert (got["app"], got["spec"], got["policy"], got["seed"]) == \
        ("sampler", "sampler", "fifo-drain", 0)
    assert row["sim"]["exit"] == row["check"]["exit"] == [0]
    assert row["sim"]["stdout"] == sim_out
    assert row["check"]["stdout"] == capsys.readouterr().out
    assert row["trace_bytes"] == tr.stat().st_size
    assert row["trace_sha256"] == hashlib.sha256(tr.read_bytes()).hexdigest()
    for phase in ("sim", "check"):
        assert row[phase]["wall_s"][0] > 0 and row[phase]["rss_mb"][0] > 0
    assert got["growth_x2"] == {"sim": [], "check": []}


def test_scale_probe_forwards_the_policy_and_seed(tmp_path, capsys):
    got = _probe("--policy", "random", "--seed", "3")
    row = got["sizes"]["50"]
    _, tr, _ = _in_process(tmp_path, "random", 3)
    assert (got["policy"], got["seed"]) == ("random", 3)
    assert row["sim"]["exit"] == row["check"]["exit"] == [0]
    assert row["sim"]["stdout"] == capsys.readouterr().out
    assert row["trace_sha256"] == hashlib.sha256(tr.read_bytes()).hexdigest()


def test_scale_probe_refuses_an_unknown_policy():
    assert _scale().POLICIES == ORACLE_POLICIES
    proc = subprocess.run([sys.executable, str(SCALE), "--policy", "lifo"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--policy must be one of fifo-drain, random, adversarial-drop" in proc.stderr
