"""tools/scale.py, the scaling probe, at its smallest size: it runs `gen`,
`sim` and `check` as fresh processes and reports what each did."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from dataplane.cli import main

SCALE = Path(__file__).resolve().parent.parent / "tools" / "scale.py"


def test_scale_probe_at_50_packets(tmp_path, capsys):
    proc = subprocess.run([sys.executable, str(SCALE), "--sizes", "50", "--runs", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    row = got["sizes"]["50"]

    # the same workload and trace, made in this process
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    config, spec_name = scale.APPS["sampler"]
    cfg, wl, tr = tmp_path / "c.json", str(tmp_path / "w.jsonl"), tmp_path / "t.jsonl"
    cfg.write_text(json.dumps(config))
    assert main(["gen", "--seed", "7", "--ports", "1,2", "--count", "50", "--out", wl]) == 0
    assert main(["sim", "--config", str(cfg), "--input", wl, "--policy", "fifo-drain",
                 "--drain", "--steps", "1000000", "--trace", str(tr)]) == 0
    sim_out = capsys.readouterr().out
    assert main(["check", str(tr), "--config", str(cfg), "--spec", spec_name]) == 0

    assert (got["app"], got["spec"]) == ("sampler", "sampler")
    assert row["sim"]["exit"] == row["check"]["exit"] == [0]
    assert row["sim"]["stdout"] == sim_out
    assert row["check"]["stdout"] == capsys.readouterr().out
    assert row["trace_bytes"] == tr.stat().st_size
    assert row["trace_sha256"] == hashlib.sha256(tr.read_bytes()).hexdigest()
    for phase in ("sim", "check"):
        assert row[phase]["wall_s"][0] > 0 and row[phase]["rss_mb"][0] > 0
    assert got["growth_x2"] == {"sim": [], "check": []}
