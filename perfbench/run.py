"""End-to-end benchmark of the cmred CLI, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-brute --seed 1 --seconds 20 --trace 0

A closed loop with one client: the workload's commands run one at a time,
each in a fresh single-threaded interpreter (perfbench/child.py calling
``cmred.cli.main``), and a pass over the commands repeats until ``--seconds``
have gone by.  Every report is checked against the invariants in WORKLOADS.

--trace 0 prints the end-to-end metrics (medians over passes); --trace 1
runs one untraced pass and one traced pass (the smoke command plus the
workload) and prints the per-layer metrics.  The last line of stdout is the
result as one JSON object; the samples, the environment record and, when
tracing, every span go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

RUN_LIMIT_S = 165  # stop starting processes past this, to exit within 180 s
MIN_SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Command:
    argv: tuple
    expect: dict  # digest of the report, see digest()


def _verify(spec, group, subsets, functions, orbits, closed_form=True, extra=()):
    return Command(("verify", spec, *extra), {
        "exit": 0,
        "group": list(group),
        "checks": {
            "closed-form": ["pass", subsets] if closed_form else ["skipped", None],
            "induced-character": ["pass", None],
            "pair-reduction": ["pass", subsets],
            "cm0-membership": ["pass", functions],
            "galois-invariance": ["pass", None],
        },
        "orbits": {str(e): [c, c, True] for e, c in enumerate(orbits)},
        "certificate": [True, True, 1],
    })


SMOKE = _verify("sym:4", (24, 4, 6, 5), 16, 32, (1, 1, 1))

# Each workload makes one layer do most of the work; see README.md.
WORKLOADS = {
    "smoke": [SMOKE],
    "verify-brute": [
        _verify("sp4f2:+", (720, 10, 72, 11), 176, 352, (1, 1, 1, 2),
                extra=("--eps-max", "3")),
        _verify("psu3:2", (72, 9, 8, 6), 512, 1024, (1, 1, 1)),
    ],
    "verify-closed": [
        _verify("psu3:3", (6048, 28, 216, 14), 407, 407, (1, 1, 1),
                closed_form=False),
    ],
    "certify-large": [
        Command(("certify", "sym:9"), {
            "exit": 0, "group": [362880, 9, 40320, 30],
            "certificate": [True, True, 1]}),
    ],
    "orbits-wide": [
        Command(("orbits", "psu3:3", "--eps-max", "5"), {
            "exit": 0, "group": [6048, 28, 216, 14],
            "orbits": {str(e): [c, c, True]
                       for e, c in enumerate((1, 1, 1, 3, 7, 20))}}),
    ],
}

# The layer each workload is built to stress, as span names.
TARGET_LAYER = {
    "smoke": ["cm_engine.brute"],
    "verify-brute": ["cm_engine.brute"],
    "verify-closed": ["cm_engine.conjugate_subgroup_sum"],
    "certify-large": ["permgroup.close_generators",
                      "permgroup.conjugacy_classes"],
    "orbits-wide": ["permgroup.orbits_on_subsets"],
}


def digest(report: dict, code: int) -> dict:
    """The invariants the gate compares; ``timing`` and free text are left
    out so that added detail counters do not break it."""
    out = {"exit": code}
    if "group" in report:
        g = report["group"]
        out["group"] = [g["order"], g["n"], g["h"], g["classes"]]
    if "checks" in report:
        out["checks"] = {}
        for c in report["checks"]:
            detail = c.get("detail", {})
            count = detail.get("subsets_checked", detail.get("functions_checked"))
            out["checks"][c["name"]] = [c["status"], count]
    if "orbits" in report:
        n = report["group"]["n"]
        out["orbits"] = {
            eps: [e["bit0"]["count"], e["full"]["count"],
                  sum(e["bit0"]["sizes"]) == math.comb(n, int(eps))]
            for eps, e in report["orbits"].items()}
    if "certificate" in report:
        c = report["certificate"]
        out["certificate"] = [c["two_transitive"], c["criterion_met"],
                              c["pair_orbit_count"]]
    return out


def work_units(report: dict) -> int:
    """CM types checked (verify), subsets placed in orbits (orbits) or group
    elements enumerated (certify)."""
    if report["command"] == "verify":
        return max(c.get("detail", {}).get("subsets_checked", 0)
                   for c in report["checks"])
    if report["command"] == "orbits":
        return sum(sum(e["bit0"]["sizes"]) for e in report["orbits"].values())
    return report["group"]["order"]


@dataclass
class Result:
    command: Command
    ok: bool
    wall_s: float
    setup_s: float | None = None
    maxrss_kb: int = 0
    units: int = 0
    report_bytes: bytes = b""
    side: dict = field(default_factory=dict)
    error: str = ""


class Runner:
    """Starts one child at a time and keeps the run inside its time limit."""

    def __init__(self, seed: int):
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.side_path = OUT_DIR / f"side-{os.getpid()}.json"

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def out_of_time(self) -> bool:
        return self.elapsed() > RUN_LIMIT_S

    def run(self, cmd: Command, mode: str) -> Result:
        argv = list(cmd.argv) + ["--format", "json"]
        if cmd.argv[0] == "verify":
            argv += ["--seed", str(self.seed)]
        if self.side_path.exists():
            self.side_path.unlink()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(self.side_path), *argv],
                cwd=ROOT, env=self.env, capture_output=True,
                timeout=max(1.0, RUN_LIMIT_S + 10 - self.elapsed()))
        except subprocess.TimeoutExpired:
            return Result(cmd, False, time.monotonic() - t0, error="timed out")
        wall = time.monotonic() - t0
        try:
            side = json.loads(self.side_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            side = {}
        res = Result(cmd, False, wall, side=side,
                     maxrss_kb=side.get("maxrss_kb", 0))
        if "model_built" in side:
            res.setup_s = side["model_built"] - t0
        if mode == "setup":
            res.ok = proc.returncode == 0 and res.setup_s is not None
            res.error = "" if res.ok else proc.stderr.decode(errors="replace")[-500:]
            return res
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            res.error = (f"exit {proc.returncode}, no JSON report: "
                         + proc.stderr.decode(errors="replace")[-500:])
            return res
        got = digest(report, proc.returncode)
        if got != cmd.expect:
            res.error = f"report invariants differ: got {got}, expected {cmd.expect}"
            return res
        report.pop("timing", None)
        res.report_bytes = json.dumps(report, sort_keys=True).encode()
        res.units = work_units(report)
        res.ok = res.setup_s is not None and bool(side.get("maxrss_kb"))
        if not res.ok:
            res.error = "child recorded no set-up mark or peak RSS"
        return res

    def run_pass(self, cmds, mode: str) -> list[Result]:
        return [self.run(c, mode) for c in cmds]


def check_repeats(results: list[Result]) -> None:
    """A repeat of a command with the same seed must give identical bytes."""
    first = {}
    for r in results:
        if not r.ok:
            continue
        ref = first.setdefault(r.command.argv, r.report_bytes)
        if r.report_bytes != ref:
            r.ok = False
            r.error = "report bytes differ from the first run of this command"


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_at_start": list(os.getloadavg()),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, runner, seconds):
    cmds = WORKLOADS[workload]
    # Start a pass only when it is expected to end within ``seconds``, so a
    # run lasts about ``seconds`` however long one pass takes.
    passes = [runner.run_pass(cmds, "run")]
    t0 = runner.elapsed() - sum(r.wall_s for r in passes[0])
    while (runner.elapsed() - t0 + sum(r.wall_s for r in passes[-1]) <= seconds
           and not runner.out_of_time()):
        passes.append(runner.run_pass(cmds, "run"))
    results = [r for p in passes for r in p]
    check_repeats(results)
    # Set-up samples: one per pass, topped up by set-up-only processes.
    setups = [sum(r.setup_s or 0.0 for r in p) for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES and not runner.out_of_time():
        extra = runner.run_pass(cmds, "setup")
        results += extra
        if not all(r.ok for r in extra):
            break
        setups.append(sum(r.setup_s for r in extra))
    walls = [sum(r.wall_s for r in p) for p in passes]
    units = [sum(r.units for r in p) for p in passes]
    failed = sum(not r.ok for r in results)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(max(r.maxrss_kb for r in results) / 1024, "MB"),
        "work_per_s": metric(statistics.median(
            u / w for u, w in zip(units, walls)), "1/s"),
    }
    record = {"passes": len(passes), "pass_wall_s": walls,
              "setup_samples_s": setups, "units_per_pass": units[0],
              "failed_frac": failed / len(results)}
    return results, metrics, record


def layer_metrics(workload, traced: list[Result], overhead_s: float):
    """Per-layer totals from the traced pass: inclusive time per span name,
    self time, call counts and the counts computed from call arguments."""
    total, self_s, calls, work = {}, {}, {}, {}
    brute_ms = []
    absent = set()
    for r in traced:
        spans = r.side.get("spans", [])
        absent.update(r.side.get("absent", []))
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for k, (name, parent, start, end, amount) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[k])
            calls[name] = calls.get(name, 0) + 1
            if amount is not None:
                work[name] = work.get(name, 0) + amount
            if name == "cm_engine.brute":
                brute_ms.append((end - start) * 1000)
    wall = sum(r.wall_s for r in traced)
    verify_units = sum(r.units for r in traced if r.command.argv[0] == "verify")

    m = {}

    def put(key, value, unit, needs=()):
        if not any(n in absent for n in needs):
            m[key] = metric(value, unit)

    for name in ("close_generators", "conjugacy_classes", "left_cosets",
                 "coset_action", "stabilizer_generators", "orbits_on_subsets",
                 "is_k_transitive"):
        span = f"permgroup.{name}"
        put(f"{span}_s", total.get(span, 0.0), "s", [span])
    put("permgroup.elements",
        sum(json.loads(r.report_bytes)["group"]["order"] for r in traced),
        "count")
    put("permgroup.subsets_visited", work.get("permgroup.orbits_on_subsets", 0),
        "count", ["permgroup.orbits_on_subsets"])
    for span in ("group_zoo.build", "galois_model.model"):
        put(f"{span}_s", total.get(span, 0.0), "s", [span])
        put(f"{span}_self_s", self_s.get(span, 0.0), "s", [span])
    for name in ("convolve", "reflex", "class_project"):
        span = f"group_algebra.{name}"
        put(f"{span}_s", total.get(span, 0.0), "s", [span])
    put("group_algebra.convolve_calls", calls.get("group_algebra.convolve", 0),
        "count", ["group_algebra.convolve"])

    brute = ["cm_engine.brute"]
    brute_s = total.get("cm_engine.brute", 0.0)
    put("cm_engine.brute_s", brute_s, "s", brute)
    put("cm_engine.brute_calls", calls.get("cm_engine.brute", 0), "count", brute)
    if brute_ms:
        deciles = statistics.quantiles(brute_ms, n=10) if len(brute_ms) > 1 \
            else [brute_ms[0]] * 9
        put("cm_engine.brute_ms_p50", statistics.median(brute_ms), "ms", brute)
        put("cm_engine.brute_ms_p90", deciles[8], "ms", brute)
    madds = work.get("cm_engine.brute", 0)
    put("cm_engine.brute_madds", madds, "count", brute)
    if brute_s > 0:
        put("cm_engine.brute_madds_per_s", madds / brute_s, "1/s", brute)
    put("cm_engine.brute_calls_per_subset",
        calls.get("cm_engine.brute", 0) / verify_units, "ratio", brute)
    put("cm_engine.closed_s", total.get("cm_engine.closed", 0.0), "s",
        ["cm_engine.closed"])
    put("cm_engine.closed_calls_per_subset",
        calls.get("cm_engine.closed", 0) / verify_units, "ratio",
        ["cm_engine.closed"])
    for name in ("conjugate_subgroup_sum", "check_closed_form",
                 "check_induced_character", "check_pair_reduction",
                 "check_cm0_membership", "check_galois_invariance"):
        span = f"cm_engine.{name}"
        put(f"{span}_s", total.get(span, 0.0), "s", [span])
    for name in ("orbit_table", "certify"):
        span = f"certifier.{name}"
        put(f"{span}_s", total.get(span, 0.0), "s", [span])
    put("cli.import_s", sum(r.side.get("import_s", 0.0) for r in traced), "s")
    put("cli.render_s", total.get("cli.render", 0.0), "s", ["cli.render"])

    target = TARGET_LAYER[workload]
    put("target_layer_share", 100 * sum(total.get(s, 0.0) for s in target) / wall,
        "%", target)
    put("trace.overhead_s", overhead_s, "s")
    record = {"absent": sorted(absent),
              "bases": {"subsets (CM types checked, verify commands)": verify_units,
                        "traced wall_s": wall,
                        "computed": ["permgroup.elements = sum of |G|",
                                     "permgroup.subsets_visited = sum C(n, eps)",
                                     "cm_engine.brute_madds = (2|G|)^2 per call"]}}
    return m, record


def traced_run(workload, runner):
    cmds = WORKLOADS[workload]
    untraced = runner.run_pass(cmds, "run")
    smoke = [] if workload == "smoke" else [SMOKE]
    traced = runner.run_pass(smoke + cmds, "trace")
    results = untraced + traced
    check_repeats(results)
    if not all(r.ok for r in traced):
        return results, {}, {}
    overhead = (sum(r.wall_s for r in traced[len(smoke):])
                - sum(r.wall_s for r in untraced))
    metrics, record = layer_metrics(workload, traced, overhead)
    record["spans"] = {" ".join(r.command.argv): r.side.get("spans", [])
                       for r in traced}
    return results, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmred" / "cli.py").is_file():
        print(f"error: no cmred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    runner = Runner(args.seed)
    try:
        return measure(args, runner, env)
    finally:
        if runner.side_path.exists():
            runner.side_path.unlink()


def measure(args, runner, env) -> int:
    # Warm-up and harness smoke test: compiles the bytecode so that it does
    # not land in setup_s, and proves the gate on a small known report.
    smoke = runner.run(SMOKE, "run")
    if not smoke.ok:
        print(f"error: smoke test verify sym:4 failed: {smoke.error}",
              file=sys.stderr)
        return 1

    if args.trace:
        results, metrics, record = traced_run(args.workload, runner)
    else:
        results, metrics, record = end_to_end(args.workload, runner, args.seconds)
    for r in results:
        if not r.ok:
            print(f"FAILED {' '.join(r.command.argv)}: {r.error}", file=sys.stderr)
    failed = sum(not r.ok for r in results)
    correct = failed == 0 and bool(metrics)
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "metrics": metrics})
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} processes")
    for key, v in metrics.items():
        print(f"  {key:42s} {v['value']:.6g} {v['unit']}")
    print(f"  {'failed_frac':42s} {failed / len(results):.6g} ratio")
    if record.get("absent"):
        print(f"absent (wrapped name no longer exists): {record['absent']}")
    print(f"details: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
