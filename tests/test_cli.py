from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from blowup_lab import simulator
from blowup_lab.benchmarks import broad24
from blowup_lab.cli import main
from blowup_lab.core import render_polynomial
from blowup_lab.harness import (
    FLAG_ALIGN_F0,
    FLAG_ALIGN_F14,
    FLAG_DELAY,
    FLAG_NORMALIZATION,
    HEAVY_WEIGHT,
    LIGHT_WEIGHT,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_disc_lex_focused71(capsys):
    code, out, _ = _run(capsys, "run", "--ranker", "disc_lex", "--suite", "focused71")
    assert code == 0
    payload = json.loads(out)
    assert payload["totals"]["solved"] == 71
    assert payload["totals"]["violations"] == 0
    assert payload["totals"]["max_plateau"] == 2
    assert payload["saturated_score"] == 142.0


def test_run_exit_code_reflects_unsolved(capsys):
    # r100 leaves one reconstructed heavy-tail case unsolved
    code, out, _ = _run(capsys, "run", "--ranker", "r100", "--suite", "extended100")
    assert code == 1
    payload = json.loads(out)
    assert payload["totals"]["solved"] == 99


def test_run_stricter_window(capsys):
    # at window 4 the continuous ranker genuinely fails cases (frozen from an
    # oracle run: 35/71 solved, 36 violations); exit code tracks solved status
    code, out, _ = _run(
        capsys, "run", "--ranker", "two_component", "--suite", "focused71", "--m", "4"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["m"] == 4
    assert payload["totals"]["solved"] == 35
    assert payload["totals"]["violations"] == 36.0


def test_run_unknown_ranker(capsys):
    code, _, err = _run(capsys, "run", "--ranker", "mystery", "--suite", "focused71")
    assert code == 2
    assert "unknown ranker" in err


def test_run_unknown_suite(capsys):
    code, _, err = _run(capsys, "run", "--ranker", "r100", "--suite", "missing_suite")
    assert code == 2
    assert "unknown suite" in err


def test_run_json_output_is_stable(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    _run(capsys, "run", "--ranker", "disc_lex", "--suite", "focused71", "--json", str(out1))
    _run(capsys, "run", "--ranker", "disc_lex", "--suite", "focused71", "--json", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_trace_heavy_tail_first_row(capsys):
    code, out, _ = _run(
        capsys, "trace", "--ranker", "disc_lex",
        "--poly", "z^3 + x^12 + y^6 + w^9*y^4 + x^9*y^8*w^10",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    first = rows[0]
    assert [first[f"rank_{i}"] for i in range(5)] == ["3", "4280", "531", "5000", "220"]
    assert first["step"] == "0"
    assert first["max_order"] == "3"
    assert first["center_kind"] == "codim2"
    assert first["center_var"] == "x"
    assert first["exc"] == "3"
    step9 = rows[9]
    assert [step9[f"rank_{i}"] for i in range(5)] == ["3", "999", "511", "4770", "210"]
    assert step9["violation_flags"] != "0"  # the stall is visible in the flags


def test_trace_csv_matches_stdout(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    code, _, _ = _run(
        capsys, "trace", "--ranker", "r100", "--poly", "z^3 + x^6 + w^6",
        "--csv", str(path),
    )
    assert code == 0
    code, out, _ = _run(capsys, "trace", "--ranker", "r100", "--poly", "z^3 + x^6 + w^6")
    assert path.read_text(encoding="utf-8") == out


def test_trace_last_row_has_no_center(capsys):
    code, out, _ = _run(capsys, "trace", "--ranker", "disc_lex", "--poly", "x^9*y^6")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["center_kind"] == ""
    assert rows[0]["monomial_phase"] == "1"
    assert rows[0]["rank_0"] == "0"


def test_trace_writes_empty_cells_for_a_rank_that_raised(capsys):
    # clean_lex's c4 = -exp(0.1 * f25) overflows once the boundary mass f25
    # reaches 7,098, at step 2370 of this trajectory
    code, out, _ = _run(
        capsys, "trace", "--ranker", "clean_lex", "--cap", "2400",
        "--poly", "z^3 + x^6 + w^6",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2401
    assert rows[2370]["boundary_mult_sum"] == "7098"
    assert [rows[2370][f"rank_{i}"] for i in range(5)] == [""] * 5
    assert all(rows[t][f"rank_{i}"] != "" for t in (0, 2369) for i in range(5))


def test_trace_keeps_the_detail_before_a_crashed_rank(capsys):
    # the same run at a cap past the crash at step 2370: the steps before it
    # keep their best-so-far marks and flags, and the steps from it on read 0
    def trace(cap):
        _, out, _ = _run(
            capsys, "trace", "--ranker", "clean_lex", "--cap", str(cap),
            "--poly", "z^3 + x^6 + w^6",
        )
        return [(r["best_so_far"], r["violation_flags"]) for r in csv.DictReader(io.StringIO(out))]

    short, long = trace(2300), trace(2400)
    assert len(short) == 2301 and len(long) == 2401
    assert long[:2301] == short
    assert sum(best == "1" for best, _ in short) == 2298
    assert set(long[2370:]) == {("0", "0")}


def test_trace_does_not_step_out_the_tail(capsys, monkeypatch, tmp_path):
    # the rows come from the feature stream and the compact trajectory's
    # centers and excs; reading Trajectory.states would step out all 4,096
    # tail states.  clean_lex's rank overflows at step 2370, so the audit's
    # structural return writes the rows from there on.
    def no_states(self):
        raise AssertionError("trace read Trajectory.states")

    monkeypatch.setattr(simulator.Trajectory, "states", property(no_states))
    path = tmp_path / "trace.csv"
    code, _, _ = _run(
        capsys, "trace", "--ranker", "clean_lex", "--cap", "4096",
        "--poly", "z^3 + x^6 + w^6", "--csv", str(path),
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4f9b713068ec4e8a043421df9dbb202c8d6511c822c6a2f5a11d6f98b83df15a"
    )


def test_trace_bad_poly(capsys):
    code, _, err = _run(capsys, "trace", "--ranker", "disc_lex", "--poly", "z^3 + q^2")
    assert code == 2
    assert "error" in err


def test_trace_unreadable_exponent_is_a_bad_argument(capsys):
    # str.isdigit() passes a superscript digit, which the grammar refuses
    code, _, err = _run(capsys, "trace", "--ranker", "r100", "--poly", "z^3 + x^\u00b2")
    assert code == 2
    assert err.startswith("error: ") and "'x^\u00b2'" in err and err.count("\n") == 1


def test_trace_flags_explain_the_run_verdict(capsys, tmp_path):
    # r100 leaves three broad24 cases unsolved, with f14 half-weights among
    # their violations; each case's trace flags must add up to its violations
    # in the run report
    path = tmp_path / "run.json"
    code, _, _ = _run(capsys, "run", "--ranker", "r100", "--suite", "broad24", "--json", str(path))
    assert code == 1
    violations = {c["name"]: c["violations"] for c in json.loads(path.read_text())["cases"]}
    weights = {
        FLAG_DELAY: 1.0,
        FLAG_NORMALIZATION: 1.0,
        FLAG_ALIGN_F0: HEAVY_WEIGHT,
        FLAG_ALIGN_F14: LIGHT_WEIGHT,
    }
    traced = {}
    for case in broad24():
        code, out, _ = _run(
            capsys, "trace", "--ranker", "r100", "--p", str(case.p),
            "--vars", ",".join(case.vars.names),
            "--poly", render_polynomial(case.ideal, case.vars),
        )
        assert code == 0
        flags = [int(row["violation_flags"]) for row in csv.DictReader(io.StringIO(out))]
        traced[case.name] = sum(w for f in flags for flag, w in weights.items() if f & flag)
    assert traced == violations
    assert sorted(set(violations.values())) == [0.0, 3.5, 10.0, 25.5]


def test_overflowing_exponent_is_a_bad_argument(capsys, tmp_path):
    # x^(10^320) parses, but its features overflow a float; that is a bad
    # input (2), not an unsolved case (1), under trace and under run alike
    poly = "z^3 + x^1" + "0" * 320
    code, _, err = _run(capsys, "trace", "--ranker", "r100", "--poly", poly)
    assert code == 2
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1

    path = tmp_path / "huge.json"
    entry = {"name": "huge", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"], "poly": poly}
    path.write_text(json.dumps([entry]), encoding="utf-8")
    code, _, err = _run(capsys, "run", "--ranker", "r100", "--suite", str(path))
    assert code == 2
    assert err.startswith("error: OverflowError: ") and err.count("\n") == 1


def test_verify_counterexamples(capsys):
    code, out, _ = _run(capsys, "verify-counterexamples")
    assert code == 0
    assert "True (expected True)" in out

    code, out, _ = _run(capsys, "verify-counterexamples", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match_expected"]
    assert payload["disc_rank_step0"] == [3, 4280, 531, 5000, 220]
    assert payload["disc_rank_step9"] == [3, 999, 511, 4770, 210]
    assert payload["lex_c2_first_zero_step"] == 2


def test_export_and_validate_and_run_manifest(capsys, tmp_path):
    path = tmp_path / "suite.json"
    code, out, _ = _run(capsys, "export-suite", "--suite", "focused71", "--out", str(path))
    assert code == 0
    assert "71" in out

    code, out, _ = _run(capsys, "validate-manifest", str(path))
    assert code == 0
    assert "71 cases OK" in out

    code, out, _ = _run(capsys, "run", "--ranker", "disc_lex", "--suite", str(path))
    assert code == 0
    assert json.loads(out)["totals"]["solved"] == 71


def test_validate_manifest_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '[{"name": "bad", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"], "poly": "z^3 + x^-1"}]',
        encoding="utf-8",
    )
    code, _, err = _run(capsys, "validate-manifest", str(path))
    assert code == 3
    assert "manifest error" in err
    assert "bad" in err


def test_validate_manifest_refuses_what_run_cannot_score(capsys, tmp_path):
    # x^(10^320) parses, but the initial state's features overflow a float:
    # validate-manifest names the case and the exception class on one line
    # and exits 3, where it used to pass the manifest that run then fails on
    def manifest(exponent):
        path = tmp_path / "manifest.json"
        entry = {"name": "huge", "p": 3, "dim": 4, "vars": ["x", "y", "w", "z"],
                 "poly": f"z^3 + x^{exponent}"}
        path.write_text(json.dumps([entry]), encoding="utf-8")
        return str(path)

    code, out, err = _run(capsys, "validate-manifest", manifest(10**320))
    assert code == 3 and out == ""
    assert err == (
        "manifest error: case 'huge': initial-state features: OverflowError: "
        "int too large to convert to float\n"
    )

    # a large exponent whose features are finite still validates and scores
    code, out, _ = _run(capsys, "validate-manifest", manifest(10**100))
    assert code == 0 and out.endswith(": 1 cases OK\n")
    code, out, _ = _run(capsys, "run", "--ranker", "disc_lex", "--suite", manifest(10**100))
    assert code in (0, 1) and json.loads(out)["totals"]["cases"] == 1


def test_search_subcommand(capsys, tmp_path):
    weights_out = tmp_path / "weights.json"
    history_out = tmp_path / "history.csv"
    code, out, _ = _run(
        capsys, "search", "--suite", "focused71", "--budget", "2", "--seed", "5",
        "--weights-out", str(weights_out), "--history-out", str(history_out),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["saturated_score"] == 142.0
    assert payload["solved"] == 71
    assert json.loads(weights_out.read_text(encoding="utf-8")) == payload
    rows = list(csv.DictReader(io.StringIO(history_out.read_text(encoding="utf-8"))))
    assert rows[0]["evaluation"] == "0"
    assert rows[0]["score"] == "142"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--ranker", "disc_lex", "--suite", "focused71", "--json"),
        ("trace", "--ranker", "disc_lex", "--poly", "z^3 + x^6 + w^6", "--csv"),
        ("search", "--suite", "broad24", "--budget", "1", "--seed", "1", "--history-out"),
        ("search", "--suite", "broad24", "--budget", "1", "--seed", "1", "--weights-out"),
        ("export-suite", "--suite", "broad24", "--out"),
    ],
    ids=["json", "csv", "history-out", "weights-out", "out"],
)
def test_unwritable_output_is_a_bad_argument(capsys, tmp_path, argv):
    # an output path in a missing directory exits 2 with one line, not 1
    # (unsolved) with a traceback
    path = tmp_path / "missing" / "out"
    code, _, err = _run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


#: sha256 of stdout and the exit code of `run` for every builtin ranker and
#: suite, at the default cap and at cap 120, and of
#: `verify-counterexamples --json`; these pin the CLI's output bytes, which a
#: change to the rank path must leave as they are.  Above cap 30 no run or
#: stream is held, so every call steps and extracts its cases afresh.
_OUTPUT_DIGESTS = {
    "run --ranker two_component --suite broad24":
        (1, "e0da8ebc0f8946f4ae8d2002931f5838513187fecfe3753e9871fc79e353b801"),
    "run --ranker two_component --suite focused71":
        (0, "d8666a449e9139b5d5f287297279d3cc26b39907a7a8a37586e2c418ab0712c6"),
    "run --ranker two_component --suite extended100":
        (1, "b8224fe04140961d9683e2bfcda2f95849d4ec4d7fdd6d233de9b632c6e52a6b"),
    "run --ranker clean_lex --suite broad24":
        (1, "7888c90dd8e6177d0b9be956218b7813384f7bc5b285d69453bdafc6afd11000"),
    "run --ranker clean_lex --suite focused71":
        (0, "0e9e3344c921764cc860d3f53ff62ab5c4a210f1c01b9b4152a2b83924f5e23d"),
    "run --ranker clean_lex --suite extended100":
        (1, "4c64098b6b57348987275aae2b8472b78dcdd0ad0aad7ec595064490c3a8ab67"),
    "run --ranker disc_lex --suite broad24":
        (1, "f4956869e5e8c53b802d418ba130c945bb5482edc0c0a4f7244d7ea7e516b61b"),
    "run --ranker disc_lex --suite focused71":
        (0, "beb08f377a69068de901bbe5538697cbea622c68a3eb726463825e9b2276fa2d"),
    "run --ranker disc_lex --suite extended100":
        (1, "28432434e9604f31d84f771824c949a18a2be602e76359ba06c78d57d53a9285"),
    "run --ranker r100 --suite broad24":
        (1, "78e1f5d5689aecc1a3c94cf0cc2cb664fb21573162e98f1810b9734653ec1db5"),
    "run --ranker r100 --suite focused71":
        (0, "8a836d54d1863a0fa9c3db74f797715e0276d12927adc84deb63ec9bddbe85df"),
    "run --ranker r100 --suite extended100":
        (1, "3dff93e257163d22c11b127c6a8f3b3147f7505013c9235c673d575b66efad58"),
    "run --ranker two_component --suite broad24 --cap 120":
        (1, "6159ce0ce1ef6631352087d710515f2fc0d6cc3fed8d9a07c3c5fabae7f85584"),
    "run --ranker two_component --suite focused71 --cap 120":
        (0, "71b542f50730eda6c2a71adbf8fcb82567e00c8a099ade7ca7d919b0389e2841"),
    "run --ranker two_component --suite extended100 --cap 120":
        (1, "fd62f361c575bed864828d67adbb66534e187da7235d8b9814aac9354fd18a76"),
    "run --ranker clean_lex --suite broad24 --cap 120":
        (1, "55599afd9d10881343b331dfc034972b399c8924522ebf78bc30b77f49ac35ff"),
    "run --ranker clean_lex --suite focused71 --cap 120":
        (0, "10db19997fffdf5646e05cc8666d1123cc3d3e9d4844b463c315eeaf94267713"),
    "run --ranker clean_lex --suite extended100 --cap 120":
        (1, "bc0285eea876dcb20483333a803b4c9df5378ab3c6fa543d7bb1a122da172ec9"),
    "run --ranker disc_lex --suite broad24 --cap 120":
        (1, "9a6cfe26ca3a3fbcc053e3e153cc7af44d7ff702d5c3306cb50b7468dc6a8dbd"),
    "run --ranker disc_lex --suite focused71 --cap 120":
        (0, "33981862df5595c3a822e21a8522ee401a95bde24bacd750e90d719ed70f01ed"),
    "run --ranker disc_lex --suite extended100 --cap 120":
        (1, "b66602bd18c95ec2293c950da945ab2caa020b55d55a4adaae4d10438515ed9f"),
    "run --ranker r100 --suite broad24 --cap 120":
        (1, "46af2e64ea773c459c3b5be6e931f4738a8a7a521b02186368d7b352424333d3"),
    "run --ranker r100 --suite focused71 --cap 120":
        (0, "fcf24694aca71cc38ba76c2a579c8672c4932e30e09f75c1897f66a55a404deb"),
    "run --ranker r100 --suite extended100 --cap 120":
        (1, "0ec53117ecd8020c32e078539bc32ec54ab398f034f09915ed6e53f544d9a699"),
    "verify-counterexamples --json":
        (0, "f49f8744c5da5deda8567450985c23f3dee6231d5b95ae625ce03033c73ec64e"),
}


def test_builtin_outputs_are_pinned(capsys):
    outputs = {}
    for command in _OUTPUT_DIGESTS:
        code, out, _ = _run(capsys, *command.split())
        outputs[command] = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert outputs == _OUTPUT_DIGESTS
