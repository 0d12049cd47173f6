import json
import subprocess
import sys

import numpy as np
import pytest

from threestage import cli, fidelity, harness
from threestage.fidelity import QuadratureSpec, RotationAveragedOracle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err):
    for line in err.splitlines():
        if line.startswith("{"):
            document = json.loads(line)
            if "manifest" in document:
                return document["manifest"]
    raise AssertionError(f"no manifest line on stderr: {err!r}")


class TestRun:
    def test_noiseless_round(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--noise", "none", "--xi", "0.3",
            "--alice-angle", "1.0", "--bob-angle", "2.0", "--bit", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert payload["p0"] == pytest.approx(1.0, abs=1e-12)
        assert manifest_of(err)["version"]

    def test_collective_rotation_period_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--noise", "cr", "--param", "1.0471975511965976", "--bit", "1",
        )
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_degrees_flag_converts_angles(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--noise", "cr", "--param", "60", "--degrees", "--bit", "0",
        )
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_param_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--noise", "ad", "--param", "2.0", "--bit", "0")
        assert code == 2
        assert "--param" in err

    @pytest.mark.parametrize("noise, param", [("none", "nan"), ("none", "inf"), ("cd", "nan"), ("pd", "-inf")])
    def test_non_finite_param_is_usage_error(self, capsys, noise, param):
        code, out, err = run_cli(capsys, "run", "--noise", noise, "--param", param)
        assert code == 2
        assert out == ""
        assert "--param" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--noise", "none", "--frequency", "1")
        assert code == 2

    def test_unknown_noise_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--noise", "xx")
        assert code == 2


class TestSweep:
    def test_default_grid_has_101_rows(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--xi-avg",
            "--mode", "closed_form", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,param,xi,closed_form,oracle,deviation"
        assert len(lines) == 102
        assert manifest_of(err)["seed"] == 0

    @pytest.mark.parametrize("mode, ran", [("closed_form", False), ("oracle", True)])
    def test_manifest_quadrature_is_null_unless_an_oracle_ran(self, capsys, tmp_path, mode, ran):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "ad", "--grid", "0:1:3", "--xi-grid", "0,1",
            "--mode", mode, "--rotation-points", "8", "--xi-points", "16",
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 0
        manifest = manifest_of(err)
        assert manifest["rotation_points"] == (8 if ran else None)
        assert manifest["xi_points"] == (16 if ran else None)

    def test_explicit_grid_row_count(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:101", "--xi-avg",
            "--mode", "closed_form", "--out", str(path),
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 102

    def test_both_mode_with_xi_grid(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--noise", "cd",
            "--grid", "0:6.283185307179586:11",
            "--xi-grid", "0,0.7853981633974483",
            "--mode", "both", "--rotation-points", "16", "--out", str(path),
        )
        assert code == 0
        rows = harness.load_rows(path, "csv")
        assert len(rows) == 22
        assert all(row.deviation is not None for row in rows)

    def test_phase_damping_average_value(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg",
            "--mode", "closed_form", "--out", str(path),
        )
        assert code == 0
        rows = harness.load_rows(path, "csv")
        last = rows[-1]
        assert last.param == 1.0 and last.xi is None
        assert last.closed_form == pytest.approx(0.5625, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path, fmt):
        paths = [tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "sweep", "--noise", "ad", "--grid", "0:1:5",
                "--xi-grid", "0,0.5,1.0", "--mode", "both",
                "--rotation-points", "16", "--seed", "3",
                "--format", fmt, "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["manifest"]["version"]
        assert "duration_ms" not in document["manifest"]
        assert len(document["rows"]) == 3

    def test_missing_xi_selection_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3",
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert "--xi-grid" in err

    def test_malformed_grid_names_flag(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0;1;3", "--xi-avg",
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert "--grid" in err

    def test_identity_kind_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "none", "--xi-avg",
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert "invalid choice: 'none'" in err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("flag, field", [
        ("--rotation-points", "rotation_points"), ("--xi-points", "xi_points"),
    ])
    def test_bad_quadrature_flag_is_named(self, capsys, tmp_path, flag, field):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg", "--mode", "both",
            flag, "4", "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert f"error: {flag} must be >= 8, got 4" in err
        assert field not in err

    @pytest.mark.parametrize("flag, field", [
        ("--rotation-points", "rotation_points"), ("--xi-points", "xi_points"),
    ])
    def test_quadrature_flag_over_the_cap_is_named(self, capsys, tmp_path, flag, field):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg", "--mode", "both",
            flag, "4097", "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert f"error: {flag} must be <= 4096, got 4097" in err
        assert field not in err

    @pytest.mark.parametrize("flag", ["--grid", "--xi-grid"])
    def test_grid_over_the_row_cap_is_usage_error(self, capsys, tmp_path, flag):
        grids = {"--grid": "0:1:3", "--xi-grid": "0:1:3", flag: "0:1:1000001"}
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", *(item for pair in grids.items() for item in pair),
            "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert f"error: {flag}: n must be in [1, 1000000], got 1000001" in err
        assert not (tmp_path / "f.csv").exists()

    def test_sweep_over_the_row_cap_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:1000", "--xi-grid", "0:1:1000",
            "--xi-avg", "--out", str(tmp_path / "f.csv"),
        )
        assert code == 2
        assert "error: --grid, --xi-grid: 1001000 rows" in err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dash_out_writes_stdout(self, capsys, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / f"f.{fmt}"
        argv = ["sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg", "--format", fmt]
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        code, out, _ = run_cli(capsys, *argv, "--out", "-")
        assert code == 0
        assert out == path.read_text()
        if fmt == "json":
            assert len(json.loads(out)["rows"]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_write_keeps_the_previous_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        argv = ["sweep", "--noise", "pd", "--xi-avg", "--out", str(path)]
        assert run_cli(capsys, *argv, "--grid", "0:1:3")[0] == 0
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(harness.os, "replace", fail)
        code, _, err = run_cli(capsys, *argv, "--grid", "0:1:5")
        assert code == 1
        assert "disk full" in err
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    @pytest.mark.parametrize("text", ["0:360:20011", "-7.5:1e3:4099", "1,2.5,3e2,-0.0,400"])
    @pytest.mark.parametrize("degrees", [False, True])
    def test_grids_convert_as_whole_arrays_to_the_per_value_floats(self, text, degrees):
        args = cli.build_parser().parse_args(["sweep", "--noise", "cd", "--out", "-"])
        args.degrees = degrees
        if ":" in text:
            lo, hi, count = text.split(":")
            want = tuple(float(v) for v in np.linspace(float(lo), float(hi), int(count)))
        else:
            want = tuple(float(token) for token in text.split(","))
        grid = cli._parse_grid(text, "--grid")
        assert grid == want and all(type(v) is float for v in grid)
        converted = cli._angle_grid(grid, args, "--xi-grid")
        assert [v.hex() for v in converted] == [cli._angle(v, args, "--xi-grid").hex() for v in want]

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_first_non_finite_xi_is_named(self, capsys, tmp_path, bad):
        code, _, err = run_cli(capsys, "sweep", "--noise", "cd", "--xi-grid", f"0,{bad},inf",
                               "--out", str(tmp_path / "f.csv"))
        assert code == 2
        assert f"error: --xi-grid: must be finite, got {float(bad)!r}" in err

    def test_degrees_converts_the_angle_grids(self, capsys, tmp_path):
        degrees, radians = tmp_path / "d.csv", tmp_path / "r.csv"
        common = ["sweep", "--noise", "cd", "--xi-avg"]
        assert run_cli(capsys, *common, "--grid", "0:360:3", "--xi-grid", "0:90:3",
                       "--degrees", "--out", str(degrees))[0] == 0
        assert run_cli(capsys, *common, "--grid", f"0:{2 * np.pi!r}:3",
                       "--xi-grid", f"0:{np.pi / 2!r}:3", "--out", str(radians))[0] == 0
        got, want = harness.load_rows(degrees, "csv"), harness.load_rows(radians, "csv")
        assert len(got) == len(want) == 12
        for a, b in zip(got, want):
            assert a.param == pytest.approx(b.param, abs=1e-12)
            assert a.xi == (None if b.xi is None else pytest.approx(b.xi, abs=1e-12))
            assert a.closed_form == pytest.approx(b.closed_form, abs=1e-12)

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg",
            "--out", str(tmp_path / "missing" / "f.csv"),
        )
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_collective_rotation_exact(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "cr", "--tolerance", "1e-12",
            "--resolution", "32",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["reports"][0]["kind"] == "cr"
        assert payload["reports"][0]["max_abs_deviation"] < 1e-12
        assert "PASS" in err

    def test_damping_and_dephasing_campaign_at_default_resolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--kinds", "ad,pd,cd", "--tolerance", "1e-6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [entry["kind"] for entry in payload["reports"]] == ["ad", "pd", "cd"]

    def test_unachievable_tolerance_fails_with_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "ad", "--tolerance", "1e-30",
            "--resolution", "16",
        )
        assert code == 3
        assert json.loads(out)["passed"] is False
        assert "FAIL" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8",
            "--tolerance", bad,
        )
        assert code == 2
        assert out == ""
        assert "--tolerance" in err

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--kinds", "xx")
        assert code == 2
        assert "--kinds" in err

    def test_identity_kind_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--kinds", "ad,none")
        assert code == 2
        assert out == ""
        assert "--kinds: 'none'" in err

    def test_reports_the_state_average_deviation(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "pd,cr", "--resolution", "8", "--xi-points", "8",
        )
        assert code == 0
        for entry in json.loads(out)["reports"]:
            assert entry["max_abs_average_deviation"] < 1e-12
        assert "state average" in err

    def test_state_average_miss_fails_with_exit_3(self, capsys, monkeypatch):
        state_average = RotationAveragedOracle.state_average
        monkeypatch.setattr(
            RotationAveragedOracle, "state_average", lambda self: state_average(self) + 1e-3
        )
        code, out, _ = run_cli(
            capsys, "verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8",
        )
        assert code == 3
        report = json.loads(out)["reports"][0]
        assert report["max_abs_deviation"] < 1e-12
        assert report["max_abs_average_deviation"] == pytest.approx(1e-3, abs=1e-12)
        assert report["passed"] is False

    @pytest.mark.parametrize("flag", ["--resolution", "--xi-points"])
    def test_bad_quadrature_flag_is_named(self, capsys, flag):
        code, _, err = run_cli(capsys, "verify", "--kinds", "cr", flag, "4")
        assert code == 2
        assert f"error: {flag} must be >= 8, got 4" in err

    @pytest.mark.parametrize("flag", ["--resolution", "--xi-points"])
    def test_quadrature_flag_over_the_cap_is_named(self, capsys, flag):
        code, _, err = run_cli(capsys, "verify", "--kinds", "cr", flag, "4097")
        assert code == 2
        assert f"error: {flag} must be <= 4096, got 4097" in err

    def test_eight_point_quadrature_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--kinds", "ad,pd,cd,cr", "--resolution", "8",
            "--xi-points", "8", "--tolerance", "1e-13",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_worst_point_is_null_at_rounding_level(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        for entry in json.loads(out)["reports"]:
            assert entry["max_abs_deviation"] <= cli.WORST_POINT_FLOOR
            assert entry["worst_param"] is None and entry["worst_xi"] is None
        assert err.count("below 1e-13") == 4

    def test_worst_point_is_named_above_the_floor(self, capsys, monkeypatch):
        closed_form = fidelity.closed_form_fidelity
        monkeypatch.setattr(
            fidelity, "closed_form_fidelity", lambda *a: closed_form(*a) + 1e-9
        )
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8",
        )
        assert code == 0
        entry = json.loads(out)["reports"][0]
        assert entry["max_abs_deviation"] == pytest.approx(1e-9, abs=1e-12)
        assert isinstance(entry["worst_param"], float) and isinstance(entry["worst_xi"], float)
        assert "at (param=" in err and "below" not in err

    def test_no_ansi_color_when_not_a_tty(self, capsys):
        _, _, err = run_cli(
            capsys, "verify", "--kinds", "cr", "--tolerance", "1e-6",
            "--resolution", "16",
        )
        assert "\x1b[" not in err


@pytest.mark.parametrize("argv, dest, field", [
    (["sweep", "--noise", "ad", "--out", "f.csv"], "rotation_points", "rotation_points"),
    (["sweep", "--noise", "ad", "--out", "f.csv"], "xi_points", "xi_points"),
    (["verify"], "resolution", "rotation_points"),
    (["verify"], "xi_points", "xi_points"),
])
def test_quadrature_flag_defaults_are_the_spec_defaults(argv, dest, field):
    args = cli.build_parser().parse_args(argv)
    assert getattr(args, dest) == getattr(QuadratureSpec(), field)


class TestCommutators:
    def test_noiseless_case_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "commutators", "--eta", "0", "--theta", "1.0")
        assert code == 0
        payload = json.loads(out)
        for entry in payload["commutators"]:
            assert np.max(np.abs(np.array(entry["commutator"]))) == 0.0
            assert entry["closed_form_residual"] <= 1e-12

    def test_trivial_rotation_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "commutators", "--eta", "1", "--theta", "0")
        assert code == 0
        for entry in json.loads(out)["commutators"]:
            assert np.max(np.abs(np.array(entry["commutator"]))) == 0.0

    def test_exchange_pattern_magnitude(self, capsys):
        code, out, _ = run_cli(
            capsys, "commutators", "--eta", "0.75", "--theta", "1.5707963267948966",
        )
        assert code == 0
        payload = json.loads(out)
        first = np.array(payload["commutators"][0]["commutator"])
        real = first[..., 0]
        np.testing.assert_allclose(real, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-12)
        assert payload["commutators"][0]["closed_form_residual"] <= 1e-12

    def test_out_of_range_eta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "commutators", "--eta", "2", "--theta", "1")
        assert code == 2
        assert "--eta" in err


class TestMessage:
    def test_noiseless_transmission(self, capsys):
        code, out, _ = run_cli(
            capsys, "message", "--noise", "none", "--bits", "010011", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decoded"] == "010011"
        assert payload["qber"] == 0.0

    def test_collective_rotation_pi_over_six_flips_all(self, capsys):
        code, out, _ = run_cli(
            capsys, "message", "--noise", "cr", "--param", "0.5235987755982988",
            "--bits", "0101", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["qber"] == 1.0

    def test_malformed_bits_rejected(self, capsys):
        code, _, err = run_cli(capsys, "message", "--noise", "none", "--bits", "01x")
        assert code == 2
        assert "--bits" in err

    def test_empty_bits_rejected(self, capsys):
        code, _, err = run_cli(capsys, "message", "--noise", "none", "--bits", "")
        assert code == 2
        assert "--bits" in err

    def test_bits_over_the_cap_are_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "message", "--noise", "none", "--bits", "0" * (cli.MAX_MESSAGE_BITS + 1),
        )
        assert code == 2
        assert out == ""
        assert "--bits: 1000001 bits, over the cap of 1000000" in err

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "message", "--noise", "none", "--bits", "01", "--seed", "-1",
        )
        assert code == 2
        assert "--seed" in err


def fresh_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "threestage", *argv], capture_output=True, text=True,
    )


class TestRepeatedMain:
    """One process reuses the parser; each call must answer as a fresh process would."""

    ROUND = ("run", "--noise", "cd", "--param", "30", "--xi", "10",
             "--alice-angle", "20", "--bob-angle", "40", "--bit", "1")

    @pytest.mark.parametrize("first, first_code", [
        (ROUND + ("--degrees",), 0),
        (("run", "--frequency", "1"), 2),
        (("run", "--noise", "ad", "--param", "2"), 2),
    ], ids=["degrees", "argparse-error", "usage-error"])
    def test_next_call_answers_as_a_fresh_process(self, capsys, first, first_code):
        assert run_cli(capsys, *first)[0] == first_code
        code, out, _ = run_cli(capsys, *self.ROUND)
        fresh = fresh_process(*self.ROUND)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout

    def test_quadrature_flag_does_not_carry_over(self, capsys):
        sweep = ("sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg", "--mode", "both",
                 "--out", "-")
        code, _, err = run_cli(capsys, *sweep, "--rotation-points", "16")
        assert code == 0 and manifest_of(err)["rotation_points"] == 16
        code, _, err = run_cli(capsys, *sweep)
        assert code == 0
        manifest = manifest_of(err)
        assert manifest["rotation_points"] == QuadratureSpec().rotation_points
        assert manifest["xi_points"] == QuadratureSpec().xi_points


class TestEndToEnd:
    """Exit-code contract through the real interpreter."""

    def test_success_is_zero(self):
        result = fresh_process("run", "--noise", "none", "--bit", "0")
        assert result.returncode == 0
        assert json.loads(result.stdout)["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_usage_error_is_two(self):
        assert fresh_process("run", "--noise", "ad", "--param", "2.0").returncode == 2

    def test_verification_failure_is_three(self):
        result = fresh_process(
            "verify", "--kinds", "cr", "--tolerance", "1e-30", "--resolution", "16",
        )
        assert result.returncode == 3

    def test_io_failure_is_one(self, tmp_path):
        result = fresh_process(
            "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg",
            "--out", str(tmp_path / "no_dir" / "f.csv"),
        )
        assert result.returncode == 1


def strict_json(text):
    """Parse one JSON document, rejecting NaN and infinities."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestArgvFuzz:
    """Seeded random argv over every subcommand, good values mixed with bad ones.

    Every call must map to a documented exit code, print no traceback, and
    on success print strict JSON (or, for a sweep, write it or CSV). Sizes
    stay small, so every case runs in milliseconds; over-cap values are
    refused before any work.
    """

    CASES = 500
    # (good values, bad values) per kind of flag.
    REALS = (["0", "0.3", "1", "-2.5", "6.1", "1e-300", "0.75"],
             ["nan", "inf", "-inf", "1e400", "-1e400", "", "abc", "0x10", "1e5"])
    SEEDS = (["0", "1", "7", "4096"], ["-1", "", "nan", "1e400", "2.5", "99999999999999999999"])
    POINTS = (["8", "16", "64"], ["4", "7", "4097", "", "nan", "1e400", "x"])
    GRIDS = (["0:1:5", "0,0.25,1", "0.5", "0:6:3", "-1:2:4"],
             ["1:0:3", "0:1:0", "0:1:-2", "0:1:1000001", "0:1e400:3", "nan", "0,inf", "1,0",
              "0,0", "", "0:1", "0:1:x", "a,b", "1e400"])
    KINDS = (["ad", "pd", "cd", "cr", "none"], ["", "xx", "AD"])
    SWITCH = None
    FLAGS = {
        "run": {"--noise": KINDS, "--param": REALS, "--xi": REALS, "--alice-angle": REALS,
                "--bob-angle": REALS, "--bit": (["0", "1"], ["2", "-1", "", "x"]),
                "--degrees": SWITCH},
        "message": {"--noise": KINDS, "--param": REALS, "--xi": REALS, "--alice-angle": REALS,
                    "--bob-angle": REALS, "--bits": (["0", "0110", "1" * 40], ["", "012", "ab"]),
                    "--seed": SEEDS, "--degrees": SWITCH},
        "sweep": {"--noise": KINDS, "--grid": GRIDS, "--xi-grid": GRIDS, "--xi-avg": SWITCH,
                  "--mode": (["closed_form", "oracle", "both"], ["", "fast"]),
                  "--format": (["csv", "json"], ["", "xml"]), "--seed": SEEDS,
                  "--rotation-points": POINTS, "--xi-points": POINTS, "--degrees": SWITCH,
                  "--out": (["file", "-"], ["missing-dir", "directory"])},
        "verify": {"--kinds": (["ad,pd,cd,cr", "cr", "ad, pd", "cd"], ["", "xx", "none", "ad,,pd"]),
                   "--tolerance": (["1e-6", "0.1", "1e-30", "0"], REALS[1] + ["-1"]),
                   "--resolution": POINTS, "--xi-points": POINTS},
        "commutators": {"--eta": (["0", "0.5", "1"], REALS[1] + ["1.5", "-0.1"]),
                        "--theta": REALS, "--degrees": SWITCH},
    }
    COMMANDS = sorted(FLAGS)

    def argv(self, rng, tmp_path):
        """One argv; ``bad`` is the chance that a flag takes a bad value or is left out."""
        if rng.random() < 0.05:
            return [["", "launch", "--noise"][rng.integers(3)]]
        command = self.COMMANDS[rng.integers(len(self.COMMANDS))]
        argv = [command]
        bad = rng.choice([0.0, 0.0, 0.1, 0.5])
        for flag, pools in self.FLAGS[command].items():
            if rng.random() < max(bad, 0.05):
                continue
            if pools is self.SWITCH:
                argv.append(flag)
                continue
            values = pools[1] if rng.random() < bad else pools[0]
            value = values[rng.integers(len(values))]
            if flag == "--out":
                value = {
                    "file": str(tmp_path / "out.dat"),
                    "missing-dir": str(tmp_path / "missing" / "out.dat"),
                    "directory": str(tmp_path),
                }.get(value, value)
            argv += [flag, value]
        if rng.random() < bad / 5:
            argv += ["--frequency", "1"]
        return argv

    def test_every_argv_maps_to_an_exit_code(self, capsys, tmp_path):
        rng = np.random.default_rng(2026)
        out_file = tmp_path / "out.dat"
        codes = []
        for _ in range(self.CASES):
            argv = self.argv(rng, tmp_path)
            try:
                code = cli.main(argv)
            except Exception as exc:  # the contract: main never raises
                pytest.fail(f"{argv} raised {exc!r}")
            out, err = capsys.readouterr()
            codes.append(code)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            assert not list(tmp_path.glob("*.tmp")), argv
            sweep = argv[:1] == ["sweep"]
            to_file = sweep and "--out" in argv and argv[argv.index("--out") + 1] != "-"
            if code in (1, 2):
                assert out == "", argv
                continue
            payload = out
            if to_file:
                assert code == 0 and out == "", argv
                payload = out_file.read_text(encoding="utf-8")
                out_file.unlink()
            if payload.startswith(harness.CSV_HEADER + "\n"):
                assert sweep and "json" not in argv, argv
            else:
                strict_json(payload)
        assert set(codes) == {0, 1, 2, 3}
        assert codes.count(0) >= self.CASES // 5
