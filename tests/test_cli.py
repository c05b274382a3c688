import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmred
from cmred.cli import RunConfig, main, parse_spec, render_json, run
from cmred.cm_engine import check_galois_invariance, subset_sweep
from cmred.errors import ParseError
from cmred.galois_model import UnitaryGaloisModel
from cmred.group_algebra import BRUTE_CAP
from cmred.group_zoo import ZooSpec, build


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(no_floats(k) and no_floats(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(no_floats(x) for x in obj)
    return True


def test_parse_spec_zoo():
    assert parse_spec("sym:4") == ZooSpec("sym", "4")
    assert parse_spec("sp4f2:+") == ZooSpec("sp4f2", "+")
    with pytest.raises(ParseError):
        parse_spec("nonsense:9")


def test_parse_spec_file(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "degree": 4,
        "group_generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "subgroup_generators": [],
    }))
    kind, degree, ggens, hgens = parse_spec(f"file:{path}")
    assert kind == "file" and degree == 4
    assert ggens == [(1, 0, 3, 2), (2, 3, 0, 1)] and hgens == []


def test_parse_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3,
        "group_generators": [[0, 0, 1]],  # not a bijection
        "subgroup_generators": [],
    }))
    with pytest.raises(ParseError):
        parse_spec(f"file:{bad}")
    with pytest.raises(ParseError):
        parse_spec("file:/does/not/exist.json")
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    with pytest.raises(ParseError):
        parse_spec(f"file:{notjson}")


def test_zoo_list(capsys):
    code, out, _ = run_main(capsys, "zoo", "list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    specs = [e["spec"] for e in data["zoo"]]
    assert "sym:n" in specs and "sp6f2:+|-" in specs


# The child signals, then waits until the reader has taken that one line
# and closed the pipe, as ``cmred zoo list | head -1`` does once head exits.
AFTER_ONE_LINE = """
import sys
from cmred.cli import main
print("first line", flush=True)
sys.stdin.readline()
sys.exit(main(["zoo", "list"]))
"""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_closed_early_exits_2_quietly(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(cmred.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-c", AFTER_ONE_LINE], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"first line\n"
    proc.stdout.close()
    proc.stdin.write(b"go\n")
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_verify_sym3_passes(capsys):
    code, out, _ = run_main(capsys, "verify", "sym:3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["group"] == {"order": 6, "n": 3, "h": 2, "classes": 3}
    assert all(c["status"] == "pass" for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == ["closed-form", "induced-character", "pair-reduction",
                     "cm0-membership", "galois-invariance"]
    assert report["certificate"]["criterion_met"] is True


def test_verify_file_model(capsys, tmp_path):
    path = tmp_path / "v4.json"
    path.write_text(json.dumps({
        "degree": 4,
        "group_generators": [[1, 0, 3, 2], [2, 3, 0, 1]],
        "subgroup_generators": [[1, 0, 3, 2]],
    }))
    code, out, _ = run_main(capsys, "verify", f"file:{path}", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["group"]["order"] == 4 and report["group"]["n"] == 2


def test_certify_negative_is_not_failure(capsys):
    code, out, _ = run_main(capsys, "certify", "cyclic:5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["criterion_met"] is False
    assert report["certificate"]["pair_orbit_count"] == 4


def test_bad_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "degree": 3,
        "group_generators": [[0, 0, 1]],
        "subgroup_generators": [],
    }))
    code, out, err = run_main(capsys, "verify", f"file:{bad}")
    assert code == 2
    assert "ParseError" in err


def test_file_group_over_the_element_cap_exits_2(capsys, tmp_path):
    # S12, from (0 1) and (0 1 ... 11): rejected by its stabilizer chain
    # before any element is enumerated
    path = tmp_path / "s12.json"
    path.write_text(json.dumps({
        "degree": 12,
        "group_generators": [[1, 0] + list(range(2, 12)),
                             [(i + 1) % 12 for i in range(12)]],
        "subgroup_generators": [],
    }))
    code, out, err = run_main(capsys, "certify", f"file:{path}")
    assert code == 2 and out == ""
    assert "ElementCapExceeded" in err


def test_file_group_past_65536_cosets(capsys):
    # S9 over <(0 1)(2 3)>: 181,440 cosets, numbered in uint32.  orbits of
    # size 1 runs; verify and certify need the C(n, 2) pairs and exit 2
    spec = f"file:{Path(__file__).parent / 'fixtures' / 's9_over_c2.json'}"
    code, out, err = run_main(capsys, "orbits", spec, "--eps-max", "1",
                              "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["group"] == {"classes": 30, "h": 2, "n": 181_440,
                               "order": 362_880}
    assert report["orbits"]["1"]["full"] == {
        "count": 1, "reps": [[0]], "sizes": [181_440]}
    for command in ("verify", "certify"):
        code, out, err = run_main(capsys, command, spec)
        assert (code, out) == (2, "")
        assert err == ("error: SubsetCapExceeded: C(181440,2) = 16460146080 "
                       "exceeds cap 5000000\n")


def test_unknown_family_exits_2(capsys):
    code, _, err = run_main(capsys, "verify", "wat:7")
    assert code == 2 and "ParseError" in err


def test_large_gate(capsys, monkeypatch):
    # gated on the zoo order formula, before any closure runs
    class Built(Exception):
        pass

    def build(spec):
        raise Built(str(spec))

    monkeypatch.setattr("cmred.cli.build", build)
    for spec, order in (("sp6f2:+", 1451520), ("sp6f2:-", 1451520),
                        ("alt:10", 1814400)):
        code, out, err = run_main(capsys, "certify", spec)
        assert code == 2 and out == ""
        assert "--large" in err and str(order) in err
        with pytest.raises(Built):
            run(RunConfig(command="certify", spec=spec, large=True))
    # sym:9 (362,880 elements, the certify-large benchmark) is not gated
    with pytest.raises(Built):
        run(RunConfig(command="certify", spec="sym:9"))


NOT_JSON_INTEGERS = {
    "strings": {"degree": 3, "group_generators": [["a", "b", "c"]]},
    "nested-list": {"degree": 3, "group_generators": [[[0], 1, 2]]},
    "floats": {"degree": 3, "group_generators": [[0.9, 2.2, 1.7]]},
    "booleans": {"degree": 3, "group_generators": [[True, False, 2]]},
    "string-degree": {"degree": "3", "group_generators": [[1, 0, 2]]},
    "float-degree": {"degree": 2.5, "group_generators": [[1, 0]]},
}


@pytest.mark.parametrize("name", sorted(NOT_JSON_INTEGERS))
def test_file_values_must_be_json_integers(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**NOT_JSON_INTEGERS[name],
                                "subgroup_generators": []}))
    with pytest.raises(ParseError):
        parse_spec(f"file:{path}")
    code, out, err = run_main(capsys, "certify", f"file:{path}")
    assert code == 2 and out == ""
    assert "ParseError" in err and "Traceback" not in err


def test_verify_builds_the_pair_tensor_and_each_stratum_once(monkeypatch):
    import cmred.certifier as certifier
    import cmred.cm_engine as cm_engine

    pair_tensor = cm_engine.pair_tensor
    orbits_on_subsets = certifier.orbits_on_subsets
    calls = {"pairs": 0, "strata": []}

    def counted_pairs(model):
        calls["pairs"] += 1
        return pair_tensor(model)

    def counted_orbits(rows, n, eps, *args):
        calls["strata"].append(eps)
        return orbits_on_subsets(rows, n, eps, *args)

    monkeypatch.setattr(cm_engine, "pair_tensor", counted_pairs)
    monkeypatch.setattr(certifier, "orbits_on_subsets", counted_orbits)
    # the report lists strata up to --eps-max (2 by default), the
    # certificate needs strata up to 2: one orbit table holds both
    for eps_max, listed in ((None, 2), (1, 2), (3, 3)):
        calls.update(pairs=0, strata=[])
        report, code = run(RunConfig(command="verify", spec="sym:4",
                                     eps_max=eps_max))
        assert code == 0
        assert calls == {"pairs": 1, "strata": list(range(listed + 1))}
        shown = 2 if eps_max is None else eps_max
        assert sorted(report["orbits"]) == [str(e) for e in range(shown + 1)]
        assert sorted(report["certificate"]["orbit_counts"]) == ["0", "1", "2"]


def test_verify_computes_the_coset_action_inputs_once(monkeypatch):
    import cmred.cm_engine as cm_engine
    import cmred.permgroup as permgroup

    coset_action = permgroup.coset_action
    permutation_character = cm_engine.permutation_character
    calls = {"coset_action": 0, "chi": 0}

    def counted_action(*args):
        calls["coset_action"] += 1
        return coset_action(*args)

    def counted_chi(model):
        calls["chi"] += 1
        return permutation_character(model)

    # every module that imported coset_action by name calls the counter
    for name, module in list(sys.modules.items()):
        if name.startswith("cmred.") and \
                getattr(module, "coset_action", None) is coset_action:
            monkeypatch.setattr(module, "coset_action", counted_action)
    monkeypatch.setattr(cm_engine, "permutation_character", counted_chi)
    # the model's generator rows, the pair tensor and the permutation
    # character; galois-invariance reads the generator rows the model holds
    report, code = run(RunConfig(command="verify", spec="sp4f2:+", eps_max=3))
    assert code == 0 and len(report["checks"]) == 5
    assert calls == {"coset_action": 3, "chi": 1}
    sweep = subset_sweep(UnitaryGaloisModel(*build("sym:4")), None, 0)
    calls.update(coset_action=0)
    assert check_galois_invariance(sweep).passed
    assert calls["coset_action"] == 0


def test_skipped_cap_reported(capsys):
    code, out, _ = run_main(capsys, "verify", "sym:4", "--format", "json",
                            "--brute-cap", "10")
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["closed-form"]["status"] == "skipped"
    assert "cap" in by_name["closed-form"]["reason"]
    # closed-path checks still run
    assert by_name["pair-reduction"]["status"] == "pass"
    assert by_name["galois-invariance"]["status"] == "pass"


def test_brute_cap_above_bound_exits_2(capsys):
    code, out, err = run_main(capsys, "verify", "sym:3",
                              "--brute-cap", str(BRUTE_CAP + 1))
    assert code == 2 and out == ""
    assert "--brute-cap" in err and str(BRUTE_CAP) in err
    with pytest.raises(ParseError):
        RunConfig(command="verify", spec="sym:3", brute_cap=BRUTE_CAP + 1)
    RunConfig(command="verify", spec="sym:3", brute_cap=BRUTE_CAP)


def test_subset_cap_checked_before_any_check(capsys, monkeypatch):
    # C(28, 9) = 6,906,900 is over SUBSET_CAP: exit 2 before the first check
    def must_not_run(*args, **kwargs):
        raise AssertionError("check ran before the subset cap was checked")

    monkeypatch.setattr("cmred.cli.check_closed_form", must_not_run)
    code, out, err = run_main(capsys, "verify", "psu3:3", "--eps-max", "9")
    assert code == 2 and out == ""
    assert "SubsetCapExceeded" in err and "C(28,9)" in err
    code, _, err = run_main(capsys, "orbits", "psu3:3", "--eps-max", "9")
    assert code == 2 and "SubsetCapExceeded" in err


def test_file_degree_out_of_range_exits_2(capsys, tmp_path, monkeypatch):
    # rejected while parsing, before the closure starts
    def must_not_run(*args, **kwargs):
        raise AssertionError("closure started on an out-of-range degree")

    monkeypatch.setattr("cmred.permgroup.close_generators", must_not_run)
    for degree, gens in ((300, [[(i + 1) % 300 for i in range(300)]]),
                         (256, [[(i + 1) % 256 for i in range(256)]]),
                         (0, [])):
        path = tmp_path / f"d{degree}.json"
        path.write_text(json.dumps({"degree": degree, "group_generators": gens,
                                    "subgroup_generators": []}))
        with pytest.raises(ParseError, match="1..255"):
            parse_spec(f"file:{path}")
        code, out, err = run_main(capsys, "certify", f"file:{path}")
        assert code == 2 and out == ""
        assert "ParseError" in err and f"got {degree}" in err


def test_integer_bound_checked_before_any_check(capsys, monkeypatch):
    # an input whose closed-form integers could leave int64 exits 2 with a
    # typed error before any check runs (here the limit is lowered)
    def must_not_run(*args, **kwargs):
        raise AssertionError("check ran before the integer bound was checked")

    monkeypatch.setattr("cmred.cli.subset_sweep", must_not_run)
    monkeypatch.setattr("cmred.cli.check_closed_form", must_not_run)
    monkeypatch.setattr("cmred.cm_engine.INT64_MAX", 1000)
    code, out, err = run_main(capsys, "verify", "sym:4")
    assert code == 2 and out == ""
    assert "IntegerBoundExceeded" in err and "size 4" in err


def test_no_late_integer_bound_error(capsys, monkeypatch):
    # with the limit lowered to 5000, the pair residuals of sizes <= 2 pass
    # the up-front check (2 * 1536) and size 3 would not (8 * 2496); the
    # closed blocks alone need no bound, so the run finishes with the same
    # report
    expected, _ = run(RunConfig(command="verify", spec="sym:4", eps_max=2))
    monkeypatch.setattr("cmred.cm_engine.INT64_MAX", 5000)
    code, out, err = run_main(capsys, "verify", "sym:4", "--eps-max", "2",
                              "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    report.pop("timing")
    expected.pop("timing")
    assert report == expected
    assert [c["status"] for c in report["checks"]] == ["pass"] * 5


def test_more_than_64_cosets(capsys, tmp_path):
    # cyclic group of degree 65 over the trivial subgroup: n = 65 cosets
    n = 65
    path = tmp_path / "c65.json"
    path.write_text(json.dumps({
        "degree": n,
        "group_generators": [[(i + 1) % n for i in range(n)]],
        "subgroup_generators": [],
    }))
    reports = {}
    for argv in (("verify", f"file:{path}", "--eps-max", "2"),
                 ("certify", f"file:{path}")):
        code, out, err = run_main(capsys, *argv, "--format", "json")
        assert code == 0, err
        report = reports[argv[0]] = json.loads(out)
        assert report["group"]["n"] == n
        assert report["certificate"]["two_transitive"] is False
        assert report["certificate"]["orbit_counts"] == {"0": 1, "1": 1, "2": 32}
    orbits = reports["verify"]["orbits"]
    assert [orbits[str(e)]["bit0"]["count"] for e in range(3)] == [1, 1, 32]


def test_report_roundtrip_and_no_floats(capsys):
    code, out, _ = run_main(capsys, "verify", "dihedral:4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert no_floats(report)
    assert json.loads(render_json(report)) == report


def test_determinism_excluding_timing(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_main(capsys, "verify", "sym:4", "--format", "json",
                                "--seed", "7")
        assert code == 0
        report = json.loads(out)
        report.pop("timing")
        outputs.append(json.dumps(report, sort_keys=True).encode())
    assert outputs[0] == outputs[1]


def test_run_config_api():
    report, code = run(RunConfig(command="certify", spec="sym:4"))
    assert code == 0 and report["certificate"]["criterion_met"]
    with pytest.raises(ParseError):
        RunConfig(command="verify", spec="sym:4", eps_max=100)


def test_text_format_mentions_checks(capsys):
    code, out, _ = run_main(capsys, "verify", "cyclic:3", "--format", "text")
    assert code == 0
    assert "closed-form" in out and "certificate" in out


def test_timing_reports_peak_rss(capsys):
    report, code = run(RunConfig(command="certify", spec="sym:4"))
    peak = report["timing"]["peak_rss_kb"]
    assert code == 0 and type(peak) is int and peak > 0
    code, out, _ = run_main(capsys, "certify", "sym:4", "--format", "text")
    assert code == 0 and " KiB)" in out.splitlines()[-1]
