import json
import os
import threading

import numpy as np
import pytest

from threestage import fidelity, harness
from threestage.channels import NoiseKind
from threestage.fidelity import QuadratureSpec, RotationAveragedOracle
from threestage.harness import ResultRow, SweepMode, SweepSpec


FAST_QUAD = QuadratureSpec(rotation_points=16, xi_points=64)


def spec_with(**kwargs):
    base = dict(
        kind=NoiseKind.AMPLITUDE_DAMPING,
        param_grid=(0.0, 0.5, 1.0),
        xi_grid=(0.0, np.pi / 4),
        quadrature=FAST_QUAD,
    )
    base.update(kwargs)
    return SweepSpec(**base)


class TestSweepSpecValidation:
    def test_accepts_valid(self):
        spec_with()

    def test_rejects_empty_param_grid(self):
        with pytest.raises(ValueError, match="param_grid"):
            spec_with(param_grid=())

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            spec_with(param_grid=(0.5, 0.2))

    def test_rejects_out_of_range_damping_parameter(self):
        with pytest.raises(ValueError, match="param_grid"):
            spec_with(param_grid=(0.0, 2.0))
        with pytest.raises(ValueError, match=r"^param_grid: eta must lie in \[0, 1\], got 1\.5$"):
            spec_with(param_grid=(0.0, 1.5, 2.0))

    def test_rejects_empty_xi_grid_without_average(self):
        with pytest.raises(ValueError, match="xi_grid"):
            spec_with(xi_grid=())

    def test_allows_empty_xi_grid_with_average(self):
        spec_with(xi_grid=(), include_state_average=True)

    def test_rejects_identity_kind(self):
        with pytest.raises(ValueError, match="kind"):
            spec_with(kind=NoiseKind.IDENTITY)

    def test_rejects_more_rows_than_the_cap(self):
        grid = tuple(np.linspace(0.0, 1.0, 1000))
        spec_with(param_grid=grid, xi_grid=grid)
        with pytest.raises(ValueError, match=r"^param_grid, xi_grid: 1001000 rows"):
            spec_with(param_grid=grid, xi_grid=grid, include_state_average=True)


class TestSweep:
    def test_row_count_and_order(self):
        rows, _ = harness.sweep(spec_with())
        assert len(rows) == 6
        assert [(r.param, r.xi) for r in rows] == [
            (0.0, 0.0), (0.0, np.pi / 4),
            (0.5, 0.0), (0.5, np.pi / 4),
            (1.0, 0.0), (1.0, np.pi / 4),
        ]

    def test_average_rows_appended_per_param(self):
        rows, _ = harness.sweep(spec_with(include_state_average=True))
        assert len(rows) == 9
        assert [r.xi for r in rows[:3]] == [0.0, np.pi / 4, None]

    def test_amplitude_damping_average_endpoints(self):
        spec = spec_with(param_grid=(0.0, 1.0), xi_grid=(), include_state_average=True)
        rows, _ = harness.sweep(spec)
        assert [r.xi for r in rows] == [None, None]
        assert rows[0].closed_form == pytest.approx(1.0, abs=1e-12)
        assert rows[1].closed_form == pytest.approx(0.5, abs=1e-12)

    def test_phase_damping_average_at_full_noise(self):
        spec = spec_with(
            kind=NoiseKind.PHASE_DAMPING,
            param_grid=(1.0,),
            xi_grid=(),
            include_state_average=True,
        )
        rows, _ = harness.sweep(spec)
        assert rows[0].closed_form == pytest.approx(0.5625, abs=1e-12)

    def test_collective_rotation_milestones(self):
        spec = spec_with(
            kind=NoiseKind.COLLECTIVE_ROTATION,
            param_grid=(0.0, np.pi / 6, np.pi / 3),
            xi_grid=(0.0,),
        )
        rows, _ = harness.sweep(spec)
        values = [r.closed_form for r in rows]
        assert values == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)

    def test_collective_dephasing_pi_extremes(self):
        spec = spec_with(
            kind=NoiseKind.COLLECTIVE_DEPHASING,
            param_grid=(np.pi,),
            xi_grid=(0.0, np.pi / 4),
        )
        rows, _ = harness.sweep(spec)
        assert rows[0].closed_form == pytest.approx(1.0, abs=1e-12)
        assert rows[1].closed_form == pytest.approx(0.0, abs=1e-12)

    def test_mode_both_fills_deviation(self):
        rows, manifest = harness.sweep(spec_with(mode=SweepMode.BOTH))
        for row in rows:
            assert row.closed_form is not None
            assert row.oracle is not None
            assert row.deviation == abs(row.closed_form - row.oracle)
        assert manifest.max_abs_deviation == max(r.deviation for r in rows)

    def test_mode_oracle_leaves_closed_form_empty(self):
        rows, manifest = harness.sweep(spec_with(mode=SweepMode.ORACLE))
        for row in rows:
            assert row.closed_form is None
            assert row.oracle is not None
            assert row.deviation is None
        assert manifest.max_abs_deviation is None

    def test_manifest_carries_spec_settings(self):
        _, manifest = harness.sweep(spec_with(seed=17, mode=SweepMode.ORACLE))
        assert manifest.seed == 17
        assert manifest.rotation_points == FAST_QUAD.rotation_points
        assert manifest.xi_points == FAST_QUAD.xi_points
        assert manifest.duration_ms >= 0.0

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_manifest_reports_quadrature_only_when_an_oracle_ran(self, mode):
        _, manifest = harness.sweep(spec_with(mode=mode))
        ran = mode is not SweepMode.CLOSED_FORM
        assert manifest.rotation_points == (FAST_QUAD.rotation_points if ran else None)
        assert manifest.xi_points == (FAST_QUAD.xi_points if ran else None)

    def test_closed_form_rows_equal_scalar_calls(self):
        spec = spec_with(
            kind=NoiseKind.COLLECTIVE_DEPHASING,
            param_grid=tuple(np.linspace(0.1, 6.0, 7)),
            xi_grid=tuple(np.linspace(0.0, 3.0, 5)),
            include_state_average=True,
        )
        rows, _ = harness.sweep(spec)
        for row in rows:
            if row.xi is None:
                want = fidelity.closed_form_average_fidelity(spec.kind, row.param)
            else:
                want = fidelity.closed_form_fidelity(spec.kind, row.param, row.xi)
            assert row.closed_form == want


class TestVerifyFormulas:
    def test_collective_rotation_is_pointwise_exact(self):
        reports = harness.verify_formulas(
            {NoiseKind.COLLECTIVE_ROTATION}, quad=FAST_QUAD
        )
        assert len(reports) == 1
        assert reports[0].max_abs_deviation < 1e-12

    def test_zero_noise_grids_agree_for_every_kind(self):
        kinds = {
            NoiseKind.AMPLITUDE_DAMPING,
            NoiseKind.PHASE_DAMPING,
            NoiseKind.COLLECTIVE_DEPHASING,
            NoiseKind.COLLECTIVE_ROTATION,
        }
        reports = harness.verify_formulas(
            kinds, param_grids={kind: [0.0] for kind in kinds}, quad=FAST_QUAD
        )
        assert len(reports) == 4
        for report in reports:
            assert report.max_abs_deviation < 1e-12

    def test_phase_damping_anchor_point_present(self):
        reports = harness.verify_formulas(
            {NoiseKind.PHASE_DAMPING},
            param_grids={NoiseKind.PHASE_DAMPING: [0.0, 1.0]},
            xi_grid=[0.0, np.pi / 4],
            quad=FAST_QUAD,
        )
        report = reports[0]
        row = report.param_grid.index(1.0)
        column = report.xi_grid.index(0.0)
        assert report.oracle[row, column] == pytest.approx(0.625, abs=1e-9)
        assert report.max_abs_deviation < 1e-6

    def test_worst_point_is_argmax(self):
        reports = harness.verify_formulas({NoiseKind.AMPLITUDE_DAMPING}, quad=FAST_QUAD)
        report = reports[0]
        deviation = np.abs(report.closed_form - report.oracle)
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        assert report.worst_point == (report.param_grid[i], report.xi_grid[j])

    @pytest.mark.parametrize("kinds, named", [(["ad"], "'ad'"), ({NoiseKind.IDENTITY}, "IDENTITY")])
    def test_kind_without_closed_form_is_rejected(self, kinds, named):
        with pytest.raises(ValueError, match=named):
            harness.verify_formulas(kinds, quad=FAST_QUAD)

    def test_average_deviation_compares_the_state_averages(self, monkeypatch):
        kind = NoiseKind.PHASE_DAMPING
        clean = harness.verify_formulas({kind}, quad=FAST_QUAD)[0]
        assert clean.average_deviation < 1e-12
        state_average = RotationAveragedOracle.state_average
        monkeypatch.setattr(
            RotationAveragedOracle, "state_average", lambda self: state_average(self) + 1e-3
        )
        skewed = harness.verify_formulas({kind}, quad=FAST_QUAD)[0]
        assert skewed.average_deviation == pytest.approx(1e-3, abs=1e-12)
        assert skewed.max_abs_deviation == clean.max_abs_deviation
        assert skewed.worst_point == clean.worst_point


def write_json_rows(tmp_path, document):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(document))
    return path


GOOD_ROW = {"kind": "pd", "param": 1.0, "xi": "avg", "closed_form": 0.5625,
            "oracle": None, "deviation": None}


class TestExport:
    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.export([], "csv", tmp_path / "empty.csv")

    def test_unknown_format_rejected(self, tmp_path):
        rows, _ = harness.sweep(spec_with())
        with pytest.raises(ValueError):
            harness.export(rows, "xml", tmp_path / "rows.xml")

    def test_single_row_layout(self, tmp_path):
        row = ResultRow(
            kind=NoiseKind.PHASE_DAMPING,
            param=1.0, xi=None, closed_form=0.5625, oracle=None, deviation=None,
        )
        path = tmp_path / "one.csv"
        harness.export([row], "csv", path)
        text = path.read_text()
        assert text == "kind,param,xi,closed_form,oracle,deviation\npd,1.0,avg,0.5625,,\n"

    def test_csv_fields_do_not_depend_on_the_number_type(self, tmp_path):
        floats = ResultRow(NoiseKind.PHASE_DAMPING, 1.0, 0.0, 0.5, 0.5, 0.0)
        mixed = ResultRow(NoiseKind.PHASE_DAMPING, 1, np.float64(0.0), np.float64(0.5), 0.5, 0)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.export([floats], "csv", first)
        harness.export([mixed], "csv", second)
        assert first.read_bytes() == second.read_bytes()

    def test_symlink_keeps_pointing_at_the_replaced_file(self, tmp_path):
        rows, _ = harness.sweep(spec_with())
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        harness.export(rows, "csv", link)
        assert link.is_symlink() and harness.load_rows(target, "csv") == rows
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_pipe_is_written_through(self, tmp_path):
        rows, _ = harness.sweep(spec_with())
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        harness.export(rows, "csv", pipe)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0].startswith(harness.CSV_HEADER + "\n")
        assert pipe.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_csv_round_trip(self, tmp_path):
        rows, _ = harness.sweep(spec_with(mode=SweepMode.BOTH, include_state_average=True))
        path = tmp_path / "rows.csv"
        harness.export(rows, "csv", path)
        assert harness.load_rows(path, "csv") == rows

    def test_json_round_trip(self, tmp_path):
        rows, manifest = harness.sweep(spec_with(mode=SweepMode.BOTH))
        path = tmp_path / "rows.json"
        harness.export(rows, "json", path, manifest)
        assert harness.load_rows(path, "json") == rows

    def test_reexport_is_byte_identical(self, tmp_path):
        rows, _ = harness.sweep(spec_with(mode=SweepMode.BOTH))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.export(rows, "csv", first)
        harness.export(rows, "csv", second)
        assert first.read_bytes() == second.read_bytes()

    def test_short_csv_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(harness.CSV_HEADER + "\npd,1.0,avg,0.5625,,\npd,0.5,avg\n")
        with pytest.raises(ValueError, match=r"rows\.csv: line 3"):
            harness.load_rows(path, "csv")

    def test_json_row_without_param_names_file_and_key(self, tmp_path):
        path = tmp_path / "rows.json"
        row = {"kind": "pd", "xi": "avg", "closed_form": 0.5625, "oracle": None, "deviation": None}
        path.write_text(json.dumps({"manifest": None, "rows": [row]}))
        with pytest.raises(ValueError, match=r"rows\.json: missing key 'param'"):
            harness.load_rows(path, "json")

    def test_json_non_numeric_value_names_file_and_row(self, tmp_path):
        path = write_json_rows(tmp_path, {"rows": [GOOD_ROW, dict(GOOD_ROW, closed_form="abc")]})
        with pytest.raises(ValueError, match=r"rows\.json: row 1: malformed row"):
            harness.load_rows(path, "json")

    def test_json_unknown_kind_names_file_and_row(self, tmp_path):
        path = write_json_rows(tmp_path, {"rows": [dict(GOOD_ROW, kind="zz")]})
        with pytest.raises(ValueError, match=r"rows\.json: row 0: malformed row: 'zz'"):
            harness.load_rows(path, "json")

    @pytest.mark.parametrize("document", [[GOOD_ROW], {"manifest": None}, {"rows": GOOD_ROW}])
    def test_json_document_without_a_rows_list_names_file(self, tmp_path, document):
        path = write_json_rows(tmp_path, document)
        with pytest.raises(ValueError, match=r"rows\.json: expected a JSON object"):
            harness.load_rows(path, "json")

    def test_repeated_sweep_is_byte_identical(self, tmp_path):
        spec = spec_with(mode=SweepMode.BOTH, include_state_average=True, seed=5)
        rows_a, _ = harness.sweep(spec)
        rows_b, _ = harness.sweep(spec)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.export(rows_a, "csv", first)
        harness.export(rows_b, "csv", second)
        assert first.read_bytes() == second.read_bytes()
