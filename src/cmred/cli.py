"""Command-line front end: deterministic JSON and text reports.

Exit codes: 0 when every executed check passes (a negative certificate is not
a failure), 1 when a mathematical identity check fails, 2 for usage or
environment errors, among them a reader that closes stdout before the report
is written.  Reports carry exact rationals as strings and a timing field
(integer milliseconds and the process's peak RSS in KiB); two runs with the
same seed differ at most in the timing field.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

from . import __version__
from .cm_engine import (
    brute_skip_reason,
    check_closed_bound,
    check_closed_form,
    check_cm0_suite,
    check_galois_invariance,
    check_induced_character,
    check_pair_reduction_suite,
    subset_sweep,
)
from .certifier import certify, orbit_table
from .errors import CmredError, ParseError
from .galois_model import UnitaryGaloisModel
from .group_algebra import BRUTE_CAP
from .group_zoo import ZooSpec, build, parse_zoo_spec, zoo_list, zoo_order
from .permgroup import MAX_DEGREE, check_subset_cap, is_permutation

LARGE_ORDER = 10 ** 6  # zoo groups of larger order run only with --large


@dataclass
class RunConfig:
    command: str  # zoo-list | verify | orbits | certify
    spec: str | None = None
    eps_max: int | None = None
    brute_cap: int = BRUTE_CAP
    seed: int = 0
    large: bool = False

    def __post_init__(self):
        if self.eps_max is not None and not 0 <= self.eps_max <= 64:
            raise ParseError(f"--eps-max must be in 0..64, got {self.eps_max}")
        if not 0 <= self.brute_cap <= BRUTE_CAP:
            raise ParseError(
                f"--brute-cap must be in 0..{BRUTE_CAP}, got {self.brute_cap}")


def _is_json_int(value) -> bool:
    """A JSON integer as ``json.load`` reads it: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_spec(text: str):
    """A zoo spec, or ('file', degree, group_gens, subgroup_gens)."""
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read group file {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}")
        if not isinstance(data, dict):
            raise ParseError(f"{path}: top level must be an object")
        try:
            degree = data["degree"]
            group_gens = data["group_generators"]
            subgroup_gens = data["subgroup_generators"]
        except KeyError as exc:
            raise ParseError(
                f"{path}: need keys degree, group_generators, subgroup_generators ({exc})")
        if not _is_json_int(degree):
            raise ParseError(f"{path}: degree must be a JSON integer, got {degree!r}")
        if not 1 <= degree <= MAX_DEGREE:
            raise ParseError(f"{path}: degree must be in 1..{MAX_DEGREE}, got {degree}")
        for label, gens in (("group_generators", group_gens),
                            ("subgroup_generators", subgroup_gens)):
            if not isinstance(gens, list):
                raise ParseError(f"{path}: {label} must be a list")
            for k, g in enumerate(gens):
                if not (isinstance(g, list) and all(map(_is_json_int, g))
                        and is_permutation(g, degree)):
                    raise ParseError(
                        f"{path}: {label}[{k}] is not a permutation of degree "
                        f"{degree} written as a list of JSON integers")
        return ("file", degree, [tuple(g) for g in group_gens],
                [tuple(g) for g in subgroup_gens])
    try:
        return parse_zoo_spec(text)
    except CmredError as exc:
        raise ParseError(str(exc))


def _build_from_spec(parsed, config: RunConfig):
    if isinstance(parsed, ZooSpec):
        order = zoo_order(parsed)
        if order > LARGE_ORDER and not config.large:
            raise ParseError(f"{parsed} has order {order}, over {LARGE_ORDER}: "
                             f"gated behind --large")
        G, H_gens = build(parsed)
        return UnitaryGaloisModel(G, H_gens)
    _, degree, group_gens, subgroup_gens = parsed
    from .permgroup import close_generators
    return UnitaryGaloisModel(close_generators(degree, group_gens),
                              subgroup_gens)


def _timing(started: float) -> dict:
    """Wall time since ``started`` in ms and the peak RSS so far in KiB
    (``ru_maxrss`` is in KiB on Linux)."""
    return {"total_ms": int((time.monotonic() - started) * 1000),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run(config: RunConfig):
    """Execute a command; returns (report dict, exit code)."""
    started = time.monotonic()
    report = {"version": __version__, "command": config.command}
    if config.command == "zoo-list":
        report["zoo"] = [{"spec": s, "description": d} for s, d in zoo_list()]
        report["timing"] = _timing(started)
        return report, 0

    parsed = parse_spec(config.spec)
    report["spec"] = config.spec
    model = _build_from_spec(parsed, config)
    report["group"] = {"order": model.group.order, "n": model.n,
                       "h": model.h, "classes": model.classes.count}
    report["seed"] = config.seed
    orbit_eps = min(model.n, config.eps_max if config.eps_max is not None else 2)
    # every stratum the command will list, checked before any work starts
    listed_eps = {"verify": max(orbit_eps, min(2, model.n)),
                  "orbits": orbit_eps,
                  "certify": min(2, model.n)}.get(config.command)
    if listed_eps is None:
        raise ParseError(f"unknown command {config.command!r}")
    for eps in range(listed_eps + 1):
        check_subset_cap(model.n, eps)

    code = 0
    if config.command == "verify":
        if config.eps_max is not None:
            identity_eps = config.eps_max
        elif brute_skip_reason(model, config.brute_cap) is None:
            identity_eps = model.n
        else:
            identity_eps = 2  # keep the closed path affordable on large groups
        # the pair residuals are the only integers that can leave int64
        check_closed_bound(model, min(identity_eps, model.n))
        sweep = subset_sweep(model, identity_eps, config.seed, config.brute_cap)
        checks = [rep.to_dict() for rep in (
            check_closed_form(sweep),
            check_induced_character(sweep),
            check_pair_reduction_suite(sweep),
            check_cm0_suite(sweep),
            check_galois_invariance(sweep),
        )]
        report["checks"] = checks
        code = 1 if any(c["status"] == "fail" for c in checks) else 0
    # one orbit table of every listed stratum, shared with the certificate
    table = orbit_table(model, listed_eps)
    if config.command != "certify":
        report["orbits"] = table.to_dict(orbit_eps)
    if config.command != "orbits":
        report["certificate"] = certify(model, table).to_dict()
    report["timing"] = _timing(started)
    return report, code


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def render_text(report: dict) -> str:
    lines = [f"cmred {report['version']} - {report['command']}"]
    if "zoo" in report:
        for entry in report["zoo"]:
            lines.append(f"  {entry['spec']:14s} {entry['description']}")
    if "group" in report:
        g = report["group"]
        lines.append(f"group {report.get('spec', '')}: order {g['order']}, "
                     f"n = {g['n']}, h = {g['h']}, {g['classes']} classes")
    for check in report.get("checks", ()):
        status = check["status"].upper()
        extra = ""
        if check.get("detail"):
            extra = " " + json.dumps(check["detail"], sort_keys=True)
        if check.get("witness"):
            extra += " witness=" + json.dumps(check["witness"], sort_keys=True)
        if check.get("reason"):
            extra += f" ({check['reason']})"
        lines.append(f"  [{status:7s}] {check['name']}{extra}")
    if "orbits" in report:
        for eps, entry in sorted(report["orbits"].items(), key=lambda kv: int(kv[0])):
            b0, full = entry["bit0"], entry["full"]
            lines.append(f"  orbits eps={eps}: bit0 {b0['count']} "
                         f"(sizes {b0['sizes']}), full {full['count']}")
    if "certificate" in report:
        cert = report["certificate"]
        lines.append(f"  certificate: 2-transitive={cert['two_transitive']} "
                     f"pair orbits={cert['pair_orbit_count']} "
                     f"criterion_met={cert['criterion_met']}")
        lines.append(f"  {cert['statement']}")
    if "timing" in report:
        timing = report["timing"]
        lines.append(f"  ({timing['total_ms']} ms, "
                     f"peak RSS {timing['peak_rss_kb']} KiB)")
    return "\n".join(lines)


def _add_common(parser):
    parser.add_argument("--format", dest="fmt", choices=("json", "text"),
                        default="text")
    parser.add_argument("--large", action="store_true",
                        help=f"allow zoo groups of order over {LARGE_ORDER}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmred",
        description="Exact verification of CM-type class-function identities "
                    "and 2-transitivity certificates for built-in groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    zoo_p = sub.add_parser("zoo", help="zoo utilities")
    zoo_sub = zoo_p.add_subparsers(dest="zoo_command", required=True)
    zoo_list_p = zoo_sub.add_parser("list", help="list built-in group specs")
    zoo_list_p.add_argument("--format", dest="fmt", choices=("json", "text"),
                            default="text")

    for name, help_text in (("verify", "run every identity check"),
                            ("orbits", "orbit table of CM types"),
                            ("certify", "double-transitivity certificate")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="zoo spec like sym:4, or file:<path>")
        _add_common(p)
        if name in ("verify", "orbits"):
            p.add_argument("--eps-max", dest="eps_max", type=int, default=None)
        if name == "verify":
            p.add_argument("--brute-cap", dest="brute_cap", type=int,
                           default=BRUTE_CAP,
                           help=f"largest |Gamma| for the brute cross-check, "
                                f"at most {BRUTE_CAP}")
            p.add_argument("--seed", dest="seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "zoo":
            config = RunConfig(command="zoo-list")
        else:
            config = RunConfig(
                command=args.command, spec=args.spec,
                eps_max=getattr(args, "eps_max", None),
                brute_cap=getattr(args, "brute_cap", BRUTE_CAP),
                seed=getattr(args, "seed", 0), large=args.large)
        report, code = run(config)
    except CmredError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_json(report) if args.fmt == "json" else render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (``| head -1``): the interpreter's own flush at
        # exit must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
