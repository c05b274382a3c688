"""The benchmark harness still finds every layer it traces.

``perfbench/child.py`` wraps the functions named in its ``TARGETS`` and
``perfbench/run.py`` silently leaves out every metric whose function is gone
or never called, so a renamed or bypassed layer shows up only here.
"""

import importlib
import importlib.util
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_child():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_target_resolves_with_its_work_arguments():
    child = load_child()
    for mod_name, attr, name, work in child.TARGETS:
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
        if work is not None:
            # the work function reads the call's arguments by name
            params = inspect.signature(owner).parameters
            wanted = [c for c in work.__code__.co_consts if isinstance(c, str)]
            assert wanted and all(p in params for p in wanted), (name, wanted)


def test_traced_smoke_run_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "smoke", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("absent")]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for entry in declared:
        metric = result["metrics"].get(entry["name"])
        assert metric is not None, entry["name"]
        assert math.isfinite(metric["value"]), entry["name"]
