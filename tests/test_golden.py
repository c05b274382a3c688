"""Byte comparison of whole ``verify`` reports against committed golden files.

The golden files under tests/golden/ hold ``render_json`` of a report with
``timing`` removed, plus a final newline.  Regenerate them only for a change
that is meant to alter reports:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

import cmred.cm_engine as cm_engine
from cmred.cli import RunConfig, render_json, run

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name: (spec, config overrides, expected exit code, mutate)
CASES = {
    "verify-sym4-seed7": ("sym:4", {"seed": 7}, 0, False),
    "verify-psl3_2-seed7": ("psl3:2", {"seed": 7}, 0, False),
    "verify-sp4f2_minus-seed7": ("sp4f2:-", {"seed": 7}, 0, False),
    "verify-cyclic6-seed7": ("cyclic:6", {"seed": 7}, 0, False),
    "verify-dihedral12-seed7": ("dihedral:12", {"seed": 7}, 0, False),
    "verify-psu3_2-brute-cap-100": ("psu3:2", {"brute_cap": 100}, 0, False),
    # |G| = 2184: the brute count takes the table rows in chunks
    "verify-pgl2_13-eps3-seed7": ("pgl2:13", {"eps_max": 3, "seed": 7}, 0,
                                  False),
    # the double-coset term tripled: closed-form and galois-invariance fail
    "verify-sym4-seed7-tripled": ("sym:4", {"seed": 7}, 1, True),
}


def tripled_pair_tensor(pair_tensor):
    def tripled(model):
        L, W = pair_tensor(model)
        return L, 3 * W
    return tripled


def golden_text(name) -> tuple[str, int]:
    spec, overrides, _, _ = CASES[name]
    report, code = run(RunConfig(command="verify", spec=spec, **overrides))
    report.pop("timing")
    return render_json(report) + "\n", code


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    if CASES[name][3]:
        monkeypatch.setattr(cm_engine, "pair_tensor",
                            tripled_pair_tensor(cm_engine.pair_tensor))
    text, code = golden_text(name)
    assert code == CASES[name][2]
    assert text.encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    pair_tensor = cm_engine.pair_tensor
    for name in sorted(CASES):
        cm_engine.pair_tensor = (tripled_pair_tensor(pair_tensor)
                                 if CASES[name][3] else pair_tensor)
        text, code = golden_text(name)
        if code != CASES[name][2]:
            sys.exit(f"{name}: exit {code}, expected {CASES[name][2]}")
        (GOLDEN_DIR / f"{name}.json").write_bytes(text.encode())
