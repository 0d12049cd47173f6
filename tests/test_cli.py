import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from threestage import channels, cli, fidelity, harness, protocol
from threestage.channels import NoiseKind
from threestage.fidelity import QuadratureSpec


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

    BLOCKS_ARGV = ("sweep", "--noise", "ad", "--grid", "0:1:2000", "--xi-grid", "0:6:8", "--xi-avg")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dash_out_equals_the_file_over_several_blocks(self, capsys, tmp_path, fmt):
        assert 2000 * 9 > harness.FORMAT_BLOCK_ROWS
        path = tmp_path / f"f.{fmt}"
        assert run_cli(capsys, *self.BLOCKS_ARGV, "--format", fmt, "--out", str(path))[0] == 0
        code, out, _ = run_cli(capsys, *self.BLOCKS_ARGV, "--format", fmt, "--out", "-")
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()

    def test_dash_out_writes_nothing_when_a_later_json_block_fails(self, capsys, monkeypatch):
        sweep = harness.sweep

        def last_row_nan(spec):
            table, manifest = sweep(spec)
            closed = table.closed_form.copy()
            closed[-1, -1] = float("nan")
            return dataclasses.replace(table, closed_form=closed), manifest

        monkeypatch.setattr(harness, "sweep", last_row_nan)
        code, out, err = run_cli(capsys, *self.BLOCKS_ARGV, "--format", "json", "--out", "-")
        assert code == 2 and out == ""
        assert "JSON compliant" in err

    # 113 x (144 + 1) = 2^14 + 1 rows: the last row is a block of its own.
    LAST_BLOCK_ARGV = ("sweep", "--noise", "ad", "--grid", "0:1:113", "--xi-grid", "0:6:144",
                       "--xi-avg", "--format", "json")

    # The array, index and value of each non-finite case; the first is the last row only.
    NON_FINITE = [("closed_form", (-1, -1), float("nan")), ("param_grid", -1, float("nan")),
                  ("param_grid", -1, float("inf")), ("xi_grid", -1, float("-inf"))]

    @pytest.fixture(params=[(source, case) for case in NON_FINITE for source in ("table", "rows")],
                    ids=lambda p: p[0] if p[1][0] == "closed_form" else f"{p[0]}-{p[1][0]}-{p[1][2]}")
    def last_block_nan(self, request, monkeypatch):
        """``harness.sweep`` with a non-finite value in its last block, as a table or as a row list.

        The value is a NaN in the last row only, a NaN or infinite last param,
        or an infinite last xi, which every param's rows hold.
        """
        sweep = harness.sweep
        source, (name, index, value) = request.param

        def patched(spec):
            table, manifest = sweep(spec)
            assert len(table) == harness.FORMAT_BLOCK_ROWS + 1
            array = getattr(table, name).copy()
            array[index] = value
            table = dataclasses.replace(table, **{name: array})
            return (table if source == "table" else list(table.rows())), manifest

        monkeypatch.setattr(harness, "sweep", patched)

    def test_a_failed_json_sweep_prints_nothing(self, capsys, last_block_nan):
        code, out, err = run_cli(capsys, *self.LAST_BLOCK_ARGV, "--out", "-")
        assert code == 2 and out == ""
        assert "JSON compliant" in err

    def test_a_failed_json_sweep_keeps_the_previous_file(self, capsys, tmp_path, last_block_nan):
        path = tmp_path / "f.json"
        path.write_bytes(b'{"previous": true}\n')
        code, out, err = run_cli(capsys, *self.LAST_BLOCK_ARGV, "--out", str(path))
        assert code == 2 and out == ""
        assert "JSON compliant" in err
        assert path.read_bytes() == b'{"previous": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_a_failed_json_sweep_writes_nothing_into_a_fifo(self, capsys, tmp_path, last_block_nan):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A reader that never blocks, drained until the sweep returns, so that a
        # writer could open the pipe and write all it would.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        received, done = [], threading.Event()

        def drain():
            while not done.is_set():
                try:
                    chunk = os.read(reader, 2**16)
                except BlockingIOError:  # a writer has the pipe open, with nothing in it yet
                    chunk = b""
                if chunk:
                    received.append(chunk)
                else:
                    done.wait(0.01)

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        try:
            code, out, err = run_cli(capsys, *self.LAST_BLOCK_ARGV, "--out", str(fifo))
        finally:
            done.set()
            thread.join(timeout=10)
        try:
            while chunk := os.read(reader, 2**16):
                received.append(chunk)
        finally:
            os.close(reader)
        assert not thread.is_alive()
        assert code == 2 and out == "" and b"".join(received) == b""
        assert "JSON compliant" in err
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.parametrize("grid", ["-0.0:1:5", "-0.0,0.5,1"])
    def test_export_writes_the_sign_of_a_zero_grid_value(self, capsys, tmp_path, grid):
        path = tmp_path / "f.csv"
        argv = ["sweep", "--noise", "pd", f"--grid={grid}", "--xi-grid=-0.0,1", "--xi-avg"]
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        fields = [line.split(",") for line in path.read_text().splitlines()[1:]]
        # Both spellings of the grid start at lo = -0.0 itself.
        params = cli._parse_grid(grid, "--grid")
        assert [f[1] for f in fields[:3]] == ["-0.0"] * 3
        assert [f[1] for f in fields] == [repr(param) for param in params for _ in range(3)]
        assert [f[2] for f in fields] == ["-0.0", "1.0", "avg"] * len(params)

    @pytest.mark.parametrize("text", ["-0.0:1:5", "-0.0:-1:3", "-0.0:2:1", "-0:1:2"])
    def test_a_grid_from_minus_zero_starts_at_minus_zero(self, text):
        grid = cli._parse_grid(text, "--grid")
        lo, hi, count = text.split(":")
        assert grid[0].hex() == "-0x0.0p+0"
        assert grid[1:] == tuple(np.linspace(float(lo), float(hi), int(count)).tolist())[1:]

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
        converted = cli._radians(grid, args)
        assert [v.hex() for v in converted] == [cli._radians(v, args).hex() for v in want]

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    def test_first_non_finite_xi_is_named(self, capsys, tmp_path, bad):
        code, _, err = run_cli(capsys, "sweep", "--noise", "cd", "--xi-grid", f"0,{bad},inf",
                               "--out", str(tmp_path / "f.csv"))
        assert code == 2
        assert f"error: --xi-grid: grid values must be finite, got {float(bad)!r}" in err

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


# Each input that the library's entry point, not the CLI, rejects: the flag
# that names it, and its argv.
LIBRARY_CHECKED = (
    [(flag, [command, "--noise", "cd", f"{flag}={bad}", *extra, *degrees])
     for command, extra in (("run", []), ("message", ["--bits", "01"]))
     for flag in ("--xi", "--alice-angle", "--bob-angle")
     for bad in ("nan", "inf", "-inf")
     for degrees in ([], ["--degrees"])]
    + [("--param", ["run", "--noise", kind, "--param", bad])
       for kind in ("cd", "cr") for bad in ("nan", "inf")]
    + [("--xi-grid", ["sweep", "--noise", "ad", "--xi-grid", grid, "--out", "-"])
       for grid in ("0,inf", "nan,1")]
    + [("--xi-grid", ["sweep", "--noise", "ad", "--out", "-"])]
)


@pytest.mark.parametrize("flag, argv", LIBRARY_CHECKED, ids=[" ".join(a) for _, a in LIBRARY_CHECKED])
def test_a_library_check_names_the_flag_in_one_usage_line(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag}: ")


# The exact error line of each library word a subcommand names by its flag,
# for every subcommand; then errors the CLI raises itself, whose user text
# prints verbatim even where it spells a library word.
PARAM_NAMED = (
    (["--noise", "pd", "--param", "2"], "--param: eta must lie in [0, 1], got 2.0"),
    (["--noise", "cd", "--param", "inf"], "--param: Phi must be finite, got inf"),
    (["--noise", "cr", "--param", "nan", "--degrees"], "--param: Theta must be finite, got nan"),
    (["--noise", "none", "--param", "inf"], "--param: parameter must be finite, got inf"),
)
FLAG_NAMED = [
    ([command, *noise, *extra], line)
    for command, extra in (("run", []), ("message", ["--bits", "01"]))
    for noise, line in (
        (["--noise", "ad", "--xi", "nan"], "--xi: must be finite, got nan"),
        (["--noise", "ad", "--alice-angle", "inf"], "--alice-angle: must be finite, got inf"),
        (["--noise", "ad", "--bob-angle", "nan"], "--bob-angle: must be finite, got nan"),
        *PARAM_NAMED,
        # The channel is built first, so --param is named before --xi.
        (["--noise", "ad", "--param", "2", "--xi", "nan"], "--param: eta must lie in [0, 1], got 2.0"),
    )
] + [(["commutators", *noise, "--theta", "0.4"], line) for noise, line in PARAM_NAMED] + [
    (["sweep", "--noise", "ad", "--grid", "0,2", "--out", "-"],
     "--grid: eta must lie in [0, 1], got 2.0"),
    (["sweep", "--noise", "ad", "--grid", "0:1:1000000", "--xi-grid", "0,1", "--out", "-"],
     "--grid, --xi-grid: 2000000 rows, over the cap of 1000000"),
    (["sweep", "--noise", "ad", "--xi-grid", "0,inf", "--out", "-"],
     "--xi-grid: grid values must be finite, got inf"),
    (["sweep", "--noise", "ad", "--out", "-"], "--xi-grid: empty grid requires --xi-avg"),
    (["sweep", "--noise", "ad", "--xi-avg", "--rotation-points", "4", "--out", "-"],
     "--rotation-points must be >= 8, got 4"),
    (["sweep", "--noise", "ad", "--xi-avg", "--xi-points", "5000", "--out", "-"],
     "--xi-points must be <= 4096, got 5000"),
    (["verify", "--resolution", "4"], "--resolution must be >= 8, got 4"),
    (["verify", "--xi-points", "5000"], "--xi-points must be <= 4096, got 5000"),
    (["commutators", "--noise", "ad", "--param", "2", "--theta", "0.4"],
     "--param: eta must lie in [0, 1], got 2.0"),
    (["commutators", "--noise", "ad", "--param", "0.3", "--theta", "nan"], "--theta: must be finite, got nan"),
    (["commutators", "--noise", "cd", "--param", "0.3", "--theta=-inf", "--degrees"],
     "--theta: must be finite, got -inf"),
    # The channel is built before --theta is checked; Theta and theta are different words.
    (["commutators", "--noise", "cr", "--param", "nan", "--theta", "nan"],
     "--param: Theta must be finite, got nan"),
    (["message", "--noise", "ad", "--bits", "eta"],
     "--bits: must be a nonempty string of 0s and 1s, got 'eta'"),
    (["verify", "--kinds", "xi_points"], "--kinds: 'xi_points' is not one of ad, pd, cd, cr"),
    (["sweep", "--noise", "cd", "--grid", "eta", "--out", "-"],
     "--grid: expected 'lo:hi:n' or comma-separated numbers, got 'eta'"),
]


@pytest.mark.parametrize("argv, line", FLAG_NAMED, ids=[" ".join(argv) for argv, _ in FLAG_NAMED])
def test_a_bad_value_prints_its_exact_error_line(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


def test_every_declared_flag_name_has_an_error_line():
    for name, command in cli._COMMANDS.items():
        lines = " ".join(line for argv, line in FLAG_NAMED if argv[0] == name)
        for flag in command[3].values():
            assert flag in lines, (name, flag)


class TestHugeGridValues:
    """Finite grid values near the largest double: finite rows, one usage line, no warnings."""

    @pytest.mark.parametrize("flag, text, message", [
        ("--xi-grid", "1:inf:5", "lo, hi and hi - lo must be finite, got '1:inf:5'"),
        ("--xi-grid", "nan:1:3", "lo, hi and hi - lo must be finite, got 'nan:1:3'"),
        ("--grid", "-1e308:1e308:3", "lo, hi and hi - lo must be finite, got '-1e308:1e308:3'"),
        ("--grid", "1e308,-1.7e308", "grid must be strictly increasing"),
    ])
    def test_bad_grid_is_exactly_one_usage_line(self, flag, text, message):
        result = fresh_process("sweep", "--noise", "cd", f"{flag}={text}", "--xi-avg", "--out", "-")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {flag}: {message}"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", ["closed_form", "both"])
    def test_sweep_rows_are_finite_and_stderr_is_the_manifest(self, fmt, mode):
        # Exit code 0: every finite angle is a valid angle.
        result = fresh_process(
            "sweep", "--noise", "cd", "--grid=0:1e308:3", "--xi-grid=-1.7e308,0,1e308",
            "--mode", mode, "--format", fmt, "--out", "-",
        )
        assert result.returncode == 0
        assert [json.loads(line).keys() for line in result.stderr.splitlines()] == [{"manifest"}]
        if fmt == "json":
            rows = strict_json(result.stdout)["rows"]
        else:
            header, *lines = result.stdout.splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 9
        for row in rows:
            assert 0.0 <= float(row["closed_form"]) <= 1.0
            if mode == "both":
                assert float(row["deviation"]) < 1e-12

    @pytest.mark.parametrize("kind, grid", [("ad", "0.3"), ("pd", "0.9"), ("cd", "1e308"), ("cr", "-1.7e308")])
    def test_huge_xi_gives_finite_rows_for_every_kind(self, capsys, kind, grid):
        code, out, _ = run_cli(
            capsys, "sweep", "--noise", kind, f"--grid={grid}", "--xi-grid=-1.7e308,1e308",
            "--xi-avg", "--mode", "both", "--format", "json", "--out", "-",
        )
        assert code == 0
        rows = strict_json(out)["rows"]
        assert len(rows) == 3
        assert all(row["deviation"] < 1e-12 for row in rows)


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

    def test_default_campaign_builds_each_tensor_once(self, capsys):
        fidelity._rotation_moment.cache_clear()
        fidelity._state_weight.cache_clear()
        code, cold, _ = run_cli(capsys, "verify")
        assert code == 0
        # four oracles, one per kind, share one tensor per resolution, and the
        # campaign's one oracle table looks its state-average weight up once
        assert fidelity._rotation_moment.cache_info()[:2] == (3, 1)  # (hits, misses)
        assert fidelity._state_weight.cache_info()[:2] == (0, 1)
        code, warm, _ = run_cli(capsys, "verify")
        assert code == 0 and warm == cold
        assert fidelity._rotation_moment.cache_info()[:2] == (7, 1)
        assert fidelity._state_weight.cache_info()[:2] == (1, 1)
        fresh = fresh_process("verify")
        assert fresh.returncode == 0 and fresh.stdout == cold

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

    def test_state_average_miss_fails_with_exit_3(self, capsys, skew_state_average):
        skew_state_average(1e-3)
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
        closed_form = fidelity._closed_form_table
        monkeypatch.setattr(
            fidelity, "_closed_form_table", lambda *a: closed_form(*a) + 1e-9
        )
        code, out, err = run_cli(
            capsys, "verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8",
        )
        assert code == 3  # a 1e-9 miss fails the default tolerance of 1e-12
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
    @pytest.mark.parametrize("kind", [kind.value for kind in NoiseKind])
    def test_every_kind_prints_the_library_norms(self, capsys, kind):
        code, out, _ = run_cli(capsys, "commutators", "--noise", kind, "--param", "0.7", "--theta", "0.4")
        assert code == 0
        payload = strict_json(out)
        channel = channels.from_kind(NoiseKind(kind), 0.7)
        norm, closed_form = fidelity.channel_commutator(channel, 0.4)
        assert payload == {"noise": kind, "param": channel.parameter, "theta": 0.4, "norm": norm,
                           "closed_form": closed_form, "residual": abs(norm - closed_form)}
        assert payload["residual"] <= 1e-14
        assert kind != "cr" or closed_form == 0.0

    def test_trivial_rotation_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "commutators", "--noise", "ad", "--param", "1", "--theta", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["norm"] == payload["closed_form"] == payload["residual"] == 0.0

    def test_degrees_convert_the_angles_of_an_angle_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "commutators", "--noise", "cd", "--param", "30", "--theta", "90", "--degrees")
        assert code == 0
        payload = json.loads(out)
        assert payload["param"] == np.deg2rad(30.0) and payload["theta"] == np.deg2rad(90.0)
        norm, _ = fidelity.channel_commutator(channels.collective_dephasing(np.deg2rad(30.0)), np.pi / 2)
        assert payload["norm"] == norm

    def test_degrees_leave_a_probability(self, capsys):
        code, out, _ = run_cli(
            capsys, "commutators", "--noise", "ad", "--param", "0.3", "--theta", "90", "--degrees")
        assert code == 0
        assert json.loads(out)["param"] == 0.3

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("degrees", [[], ["--degrees"]], ids=["radians", "degrees"])
    def test_non_finite_theta_is_usage_error(self, capsys, theta, degrees):
        code, out, err = run_cli(
            capsys, "commutators", "--noise", "ad", "--param", "0.3", f"--theta={theta}", *degrees)
        assert (code, out, err) == (2, "", f"error: --theta: must be finite, got {theta}\n")


class TestMessage:
    def test_noiseless_transmission(self, capsys):
        code, out, _ = run_cli(
            capsys, "message", "--noise", "none", "--bits", "010011", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decoded"] == "010011"
        assert payload["qber"] == 0.0

    def test_output_is_the_per_bit_text_of_transmit_message(self, capsys):
        bits = np.random.default_rng(4).integers(0, 2, protocol.MESSAGE_BLOCK_BITS + 5).tolist()
        argv = ["message", "--noise", "ad", "--param", "0.4", "--xi", "0.3", "--seed", "7"]
        code, out, _ = run_cli(capsys, *argv, "--bits", "".join(map(str, bits)))
        channel = channels.from_kind(channels.NoiseKind("ad"), 0.4)
        config = protocol.ProtocolConfig(xi=0.3, alice_angle=0.0, bob_angle=0.0, channel=channel)
        decoded, qber = protocol.transmit_message(bits, config, 7)
        assert code == 0 and 0.0 < qber < 1.0
        assert out == json.dumps({"decoded": "".join(str(b) for b in decoded), "qber": qber}) + "\n"

    @pytest.mark.parametrize("bit", ["0", "1"])
    def test_message_of_one_bit_value_decodes_as_a_mixed_message(self, capsys, bit):
        argv = ["message", "--noise", "pd", "--param", "0.6", "--xi", "0.3", "--seed", "11"]
        mixed = "0110100"
        _, out, _ = run_cli(capsys, *argv, "--bits", mixed)
        decoded = json.loads(out)["decoded"]
        code, out, _ = run_cli(capsys, *argv, "--bits", bit * len(mixed))
        alone = json.loads(out)["decoded"]
        assert code == 0 and 0 < alone.count(bit) < len(mixed)
        assert [a for a, sent in zip(alone, mixed) if sent == bit] == [
            d for d, sent in zip(decoded, mixed) if sent == bit
        ]

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

    # "/" and ":" are the bytes either side of "0" and "1"; "\u00e9" is two
    # UTF-8 bytes above 127 and "\udcff" an undecodable argv byte.
    @pytest.mark.parametrize("bits", ["01x", "0 1", "01\u0661", "1" * 9 + "2", "-1", "",
                                      "01\u00e9", "/", ":", "0\udcff"])
    def test_bits_usage_message_is_exact(self, capsys, bits):
        code, out, err = run_cli(capsys, "message", "--noise", "none", "--bits", bits)
        assert code == 2 and out == ""
        assert err == f"error: --bits: must be a nonempty string of 0s and 1s, got {bits!r}\n"

    def test_bits_reach_the_protocol_as_one_int8_array(self, capsys, monkeypatch):
        sent = []
        transmit = protocol._transmit
        monkeypatch.setattr(protocol, "_transmit",
                            lambda bits, *a: sent.append(bits) or transmit(bits, *a))
        code, out, _ = run_cli(capsys, "message", "--noise", "none", "--bits", "0110100")
        assert code == 0 and json.loads(out)["decoded"] == "0110100"
        assert sent[0].dtype == np.int8 and sent[0].tolist() == [0, 1, 1, 0, 1, 0, 0]

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
        # A missing directory and a directory are well-formed --out values that
        # fail only on write, with exit 1: drawn among the good values too, a
        # run of all-good flags reaches that code.
        "sweep": {"--noise": KINDS, "--grid": GRIDS, "--xi-grid": GRIDS, "--xi-avg": SWITCH,
                  "--mode": (["closed_form", "oracle", "both"], ["", "fast"]),
                  "--format": (["csv", "json"], ["", "xml"]), "--seed": SEEDS,
                  "--rotation-points": POINTS, "--xi-points": POINTS, "--degrees": SWITCH,
                  "--out": (["file", "-", "missing-dir", "directory"], ["missing-dir", "directory"])},
        "verify": {"--kinds": (["ad,pd,cd,cr", "cr", "ad, pd", "cd"], ["", "xx", "none", "ad,,pd"]),
                   "--tolerance": (["1e-6", "0.1", "1e-30", "0"], REALS[1] + ["-1"]),
                   "--resolution": POINTS, "--xi-points": POINTS},
        "commutators": {"--noise": KINDS, "--param": REALS, "--theta": REALS, "--degrees": SWITCH},
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


class TestParseOnce:
    """``main`` answers every argv as ``build_parser().parse_args`` does.

    Plain argv take one pass over the subcommand parser's action table, and
    every other argv goes to the top-level parser's ``parse_args``. Each argv
    runs through ``main`` and through a reference ``main`` that parses with
    ``build_parser().parse_args``; exit code, stdout and stderr (less the
    manifest's ``duration_ms`` and export's random temporary name) must agree.
    """

    EXPLICIT = (
        [[], ["-h"], ["--help"], ["--version"], ["launch"], ["--noise"], ["run"]]
        + [[command, "-h"] for command in TestArgvFuzz.COMMANDS]
        + [[command, "--version"] for command in TestArgvFuzz.COMMANDS]
        + [
            ["run", "--noise", "ad", "--version"],
            ["--version", "run", "--noise", "ad"],
            ["run", "--noise=ad", "--param=0.25"],
            ["run", "--noise", "ad", "--alice", "1", "--bob", "2"],
            ["run", "--noise", "cd", "--param", "-0.5"],
            ["run", "--noise", "ad", "--param", "-0.5"],
            ["message", "--noise", "pd", "--param=-0.5", "--bits", "01"],
            ["run", "--noise", "ad", "--"],
            ["run", "--", "--noise", "ad"],
            ["run", "--noise", "ad", "--", "extra"],
            ["--", "run", "--noise", "ad"],
            ["run", "--noise", "ad", "--frequency", "1"],
            ["run", "--noise", "ad", "extra", "more"],
            ["run", "--noise", "ad", "--bit", "1", "-x"],
            ["verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8", "tail"],
            ["commutators", "--noise", "ad", "--param", "0.5", "--theta", "1", "--theta", "2"],
            ["sweep", "--noise", "xx", "--out", "-"],
            ["sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg", "--out", "-", "--format=json"],
            ["run", "--noise", "ad", "--param", "0.3", "--help", "--frequency"],
            ["run", "--noise", "ad", "--degrees", "1"],
            ["message", "--noise", "ad", "--bits", ""],
            ["run", "--noise", "ad", "--noise", "pd"],
            ["run", "--noise", "ad", "--bit", "2"],
            ["message", "--noise", "ad", "--bits", "01", "--seed", "1.5"],
            ["run", "--param", "0.3"],
            ["run", "--noise", "--param", "0.3"],
            ["run", "--par", "0.3", "--noise", "ad"],
            ["run", "--noise", "ad", "--param", "nan"],
            ["sweep", "--noise", "ad", "--xi-avg", "--xi-avg", "--out", "-"],
            ["run", "--noise", "ad", "--=x"],
            # A flag with no value left: "-" is a value, so it cannot mark the end of argv.
            ["sweep", "--noise", "ad", "--out"],
            ["run", "--noise", "cd", "--param", "-0.5", "--xi"],
        ]
    )
    # One plain ``--flag value`` argv per subcommand, one per subcommand that
    # sets every declared flag, and one shaped like the benchmark's ``run`` calls.
    PLAIN = (
        ["run", "--noise", "cr", "--param", "1.0471975511965976", "--xi", "0.3",
         "--alice-angle", "2.2", "--bob-angle", "5.1", "--bit", "1"],
        ["run", "--noise", "ad", "--degrees", "--param", "0.5", "--bit", "0", "--bit", "1"],
        ["message", "--noise", "pd", "--param", "0.25", "--bits", "0110", "--seed", "7"],
        ["sweep", "--noise", "cd", "--grid", "0:1:3", "--xi-avg", "--out", "out.csv",
         "--format", "json", "--mode", "both", "--rotation-points", "16"],
        ["verify", "--kinds", "cr", "--tolerance", "0.1", "--resolution", "8"],
        ["commutators", "--noise", "cd", "--param", "0.5", "--theta", "1", "--degrees"],
        ["run", "--degrees", "--noise", "none", "--param", "30", "--xi", "10", "--alice-angle", "45",
         "--bob-angle", "90", "--bit", "1"],
        ["sweep", "--noise", "cr", "--grid", "0,1", "--xi-grid", "0:6:3", "--xi-avg", "--mode",
         "oracle", "--out", "out.csv", "--format", "csv", "--seed", "3", "--rotation-points", "8",
         "--xi-points", "8", "--degrees"],
        ["verify", "--kinds", "ad,cr", "--tolerance", "1e-3", "--resolution", "8", "--xi-points", "8"],
        ["message", "--noise", "cd", "--param", "20", "--xi", "0.5", "--alice-angle", "12",
         "--bob-angle", "70", "--bits", "10", "--seed", "4", "--degrees"],
        # "-" and negative numbers are values to argparse: no option looks like one.
        ["sweep", "--noise", "ad", "--grid", "0:1:3", "--xi-grid", "0:1:2", "--out", "-"],
        ["run", "--noise", "cd", "--param", "-0.5", "--xi", "-0.25", "--alice-angle", "-1",
         "--bob-angle", "2", "--bit", "1"],
        ["run", "--noise", "cr", "--param", "-.5", "--xi", "-0", "--alice-angle", "-007",
         "--bob-angle", "-12.750", "--degrees"],
        ["message", "--noise", "pd", "--param", "-1", "--bits", "-", "--seed", "-3"],
        ["sweep", "--noise", "cr", "--grid", "-", "--xi-grid", "-1", "--out", "-", "--seed", "-0",
         "--rotation-points", "-8", "--xi-points", "-1"],
        ["verify", "--kinds", "-", "--tolerance", "-0.000", "--resolution", "-2", "--xi-points", "-9"],
        ["commutators", "--noise", "cr", "--param", "-.25", "--theta", "-3"],
    )
    # Dash-leading words that are not "-" or a negative number by argparse's
    # pattern: each goes to argparse, which may read it as an option.
    DASH_LEADING = ("-1e-3", "-inf", "-nan", "-5.", "-1.5.2", "--", "-x", "-0x1", "--xi", "- 1", "-1 ", "-1\n")

    @staticmethod
    def parsed(capsys, parse, argv):
        """The repr of the namespace ``parse`` returns (NaN-safe), or the code it exits with."""
        try:
            return repr(parse(list(argv)))
        except SystemExit as exc:
            return exc.code
        finally:
            capsys.readouterr()

    @staticmethod
    def answers(capsys, argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        err = re.sub(r"\.[0-9a-f]{16}\.tmp", ".tmp", err)  # export's temporary file has a random name
        return code, out, re.sub(r'"duration_ms": [^,}]+', '"duration_ms": 0', err)

    def reference(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
            return self.answers(capsys, argv)

    def test_fuzzed_and_explicit_argvs_answer_as_the_top_level_parser(
        self, capsys, monkeypatch, tmp_path
    ):
        rng = np.random.default_rng(2026)
        fuzzed = [TestArgvFuzz().argv(rng, tmp_path) for _ in range(TestArgvFuzz.CASES)]
        for argv in fuzzed + self.EXPLICIT:
            assert self.parsed(capsys, cli._parse_args, argv) == self.parsed(
                capsys, cli.build_parser().parse_args, argv), argv
            assert self.answers(capsys, argv) == self.reference(capsys, monkeypatch, argv), argv

    def test_plain_argvs_never_reach_argparse(self, monkeypatch):
        expected = [repr(cli.build_parser().parse_args(argv)) for argv in self.PLAIN]

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert [repr(cli._parse_args(argv)) for argv in self.PLAIN] == expected

    @pytest.mark.parametrize("value", DASH_LEADING)
    def test_other_dash_leading_values_are_left_to_argparse(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.chdir(tmp_path)  # a Python whose argparse reads the value writes the sweep here
        for argv in (["run", "--noise", "cd", "--param", value], ["sweep", "--noise", "ad", "--out", value]):
            assert cli._parse_plain(argv[0], argv[1:]) is None, argv
            assert self.answers(capsys, argv) == self.reference(capsys, monkeypatch, argv), argv

    def test_plain_argvs_set_every_declared_flag_of_every_subcommand(self):
        for name, (_, _, flags, _) in cli._COMMANDS.items():
            declared = {flag for flag, _ in flags}
            assert any(argv[0] == name and declared <= set(argv) for argv in self.PLAIN), name

    def test_a_plain_argv_builds_no_parser(self, capsys):
        cli._parsers.cache_clear()
        try:
            assert cli.main(["run", "--noise", "ad", "--param", "0.3", "--bit", "1"]) == 0
            assert cli._parsers.cache_info().currsize == 0
            assert cli.main(["run", "--noise=ad"]) == 0
            assert cli._parsers.cache_info().currsize == 1
        finally:
            capsys.readouterr()

    def test_the_plain_lookup_is_each_subcommand_parser_s_action_table(self):
        for name, command in cli._build_parsers()[1].items():
            table, required, defaults = cli._PLAIN[name]
            actions = [a for a in command._actions if type(a) is not argparse._HelpAction]
            assert table == {
                a.option_strings[0]: (a.dest, a.type, a.choices, type(a) is argparse._StoreTrueAction)
                for a in actions
            }, name
            assert [a.option_strings for a in actions] == [[flag] for flag in table], name
            assert required == {a.dest for a in actions if a.required}, name
            assert list(defaults.items()) == [
                ("command", name), *((a.dest, a.default) for a in actions), *command._defaults.items()
            ], name

    def test_every_subcommand_action_is_one_the_plain_pass_parses_as_argparse_does(self):
        # _parse_plain gives each store flag one value through int or float,
        # which raise only ValueError on a string, and never converts a default.
        for command in cli._build_parsers()[1].values():
            for action in command._actions:
                if type(action) is argparse._StoreAction:
                    assert action.nargs is None, action
                    assert action.type in (None, int, float), action
                else:
                    assert type(action) in (argparse._StoreTrueAction, argparse._HelpAction), action
                assert action.type is None or not isinstance(action.default, str), action
