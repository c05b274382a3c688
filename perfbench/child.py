"""Run one cmred CLI command in this process and record where it went.

Usage: python3 perfbench/child.py MODE SIDE_FILE CLI_ARG...

MODE is one of
  run    run the command and mark the moment the model is built;
  setup  exit as soon as the model is built (a set-up sample only);
  trace  as ``run``, and also record a span around every layer function
         listed in TARGETS.

The CLI report goes to stdout as usual.  The marks, the spans and the peak
RSS go to SIDE_FILE as JSON.  The parent (run.py) started this process and
owns the clock: the ``model_built`` mark is a ``time.monotonic()`` reading,
which is system-wide on Linux, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import resource
import sys
import time

# Functions are wrapped where callers look them up: the package imports by
# name (``from .cm_engine import check_closed_form``), so every cmred module
# attribute that is the original function object gets the wrapper.
# Entry: (defining module, attribute, span name, work per call or None).
# A work function receives the call's bound arguments.
TARGETS = [
    ("cmred.permgroup", "close_generators", "permgroup.close_generators", None),
    ("cmred.permgroup", "conjugacy_classes", "permgroup.conjugacy_classes", None),
    ("cmred.permgroup", "left_cosets", "permgroup.left_cosets", None),
    ("cmred.permgroup", "coset_action", "permgroup.coset_action", None),
    ("cmred.permgroup", "stabilizer_generators",
     "permgroup.stabilizer_generators", None),
    ("cmred.permgroup", "orbits_on_subsets", "permgroup.orbits_on_subsets",
     lambda a: math.comb(a["n"], a["eps"])),
    ("cmred.permgroup", "is_k_transitive", "permgroup.is_k_transitive", None),
    ("cmred.group_zoo", "build", "group_zoo.build", None),
    ("cmred.galois_model", "UnitaryGaloisModel.__init__", "galois_model.model",
     None),
    ("cmred.group_algebra", "convolve", "group_algebra.convolve", None),
    ("cmred.group_algebra", "reflex", "group_algebra.reflex", None),
    ("cmred.group_algebra", "class_project", "group_algebra.class_project",
     None),
    ("cmred.cm_engine", "cm_class_function_brute", "cm_engine.brute",
     lambda a: a["model"].gamma_order ** 2),
    ("cmred.cm_engine", "cm_class_function_closed", "cm_engine.closed", None),
    ("cmred.cm_engine", "conjugate_subgroup_sum",
     "cm_engine.conjugate_subgroup_sum", None),
    ("cmred.cm_engine", "check_closed_form", "cm_engine.check_closed_form",
     None),
    ("cmred.cm_engine", "check_induced_character",
     "cm_engine.check_induced_character", None),
    ("cmred.cm_engine", "check_pair_reduction_suite",
     "cm_engine.check_pair_reduction", None),
    ("cmred.cm_engine", "check_cm0_suite", "cm_engine.check_cm0_membership",
     None),
    ("cmred.cm_engine", "check_galois_invariance",
     "cm_engine.check_galois_invariance", None),
    ("cmred.certifier", "orbit_table", "certifier.orbit_table", None),
    ("cmred.certifier", "certify", "certifier.certify", None),
    ("cmred.cli", "render_json", "cli.render", None),
    ("cmred.cli", "render_text", "cli.render", None),
]
MODEL_CLASS = ("cmred.galois_model", "UnitaryGaloisModel")


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, work):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount = None
            if sig is not None:
                try:
                    amount = work(sig.bind(*args, **kwargs).arguments)
                except (KeyError, AttributeError, TypeError):
                    amount = None
            k = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1,
                               time.perf_counter(), None, amount])
            self._stack.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[k][3] = time.perf_counter()

        return traced


def _replace_everywhere(original, replacement):
    """Point every cmred module attribute bound to ``original`` at
    ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cmred" or mod_name.startswith("cmred."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install_tracing(tracer):
    """Wrap every target that exists; return the span names that do not."""
    absent = []
    for mod_name, attr, name, work in TARGETS:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent.append(name)
            continue
        wrapped = tracer.wrap(original, name, work)
        if path:
            setattr(owner, leaf, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    return absent


def main(argv):
    mode, side_path, cli_args = argv[0], argv[1], argv[2:]
    side = {"mode": mode}

    def write_side():
        side["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(side_path, "w", encoding="utf-8") as fh:
            json.dump(side, fh)

    t0 = time.perf_counter()
    cli = importlib.import_module("cmred.cli")
    side["import_s"] = time.perf_counter() - t0

    tracer = Tracer()
    if mode == "trace":
        side["absent"] = install_tracing(tracer)
        side["spans"] = tracer.spans

    # The set-up mark sits at the return of the model constructor, after the
    # zoo build, cosets, classes and coset action.
    model_cls = getattr(importlib.import_module(MODEL_CLASS[0]), MODEL_CLASS[1])
    init = model_cls.__init__

    @functools.wraps(init)
    def marked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        side.setdefault("model_built", time.monotonic())
        if mode == "setup":
            write_side()
            sys.stdout.flush()
            os._exit(0)

    model_cls.__init__ = marked_init
    code = cli.main(cli_args)
    sys.stdout.flush()
    write_side()
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
