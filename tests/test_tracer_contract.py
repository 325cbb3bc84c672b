"""The benchmark's tracer reads functions of src/ by name.

perfbench/run.py reports a per-layer metric only while every function it
rests on is wrapped, so a rename or a deletion in src/ turns that metric
absent.  This runs one traced command the way the benchmark does and checks
that every function the metrics need shows up in the trace.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_run(monkeypatch):
    """perfbench/run.py as a module, without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def traced_calls(*args: str) -> dict:
    """The calls of the trace that perfbench/child.py reports for one command."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    read_fd, write_fd = os.pipe()
    with open(read_fd) as report:
        try:
            proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(write_fd), "1", *args],
                                  pass_fds=(write_fd,), capture_output=True, text=True, env=env, timeout=60)
        finally:
            os.close(write_fd)
        raw = report.read()
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    return json.loads(raw)["trace"]["calls"]


def test_every_per_layer_metric_finds_its_functions(monkeypatch):
    run = load_run(monkeypatch)
    calls = traced_calls("verify", "--only", "a=3,b=4", "--extended")
    needs = {fn for _, fns, _ in run.PER_LAYER.values() for fn in fns}
    assert sorted(needs - calls.keys()) == []
    assert any(run.CRITERION.fullmatch(name) for name in calls)
