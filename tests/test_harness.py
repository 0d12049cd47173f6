import dataclasses
import io
import json
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from threestage import channels, fidelity, harness
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


def sweep_rows(spec):
    """``harness.sweep`` with its table as a list of rows."""
    table, manifest = harness.sweep(spec)
    return list(table.rows()), manifest


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

    def test_rejects_an_int_beyond_the_float_range_in_the_xi_grid(self):
        with pytest.raises(ValueError) as info:
            SweepSpec(kind=NoiseKind.COLLECTIVE_ROTATION, param_grid=(0.0,), xi_grid=(10**400,))
        assert str(info.value) == f"xi_grid: grid values must be finite, got {10**400!r}"

    @pytest.mark.parametrize("field", ["param_grid", "xi_grid"])
    @pytest.mark.parametrize("grid", [0.3, np.float64(0.3), np.array(0.3)], ids=repr)
    def test_a_grid_with_no_len_is_named(self, field, grid):
        message = f"^{field}: grid must be one-dimensional, got shape \\(\\)$"
        with pytest.raises(ValueError, match=message):
            spec_with(**{field: grid})
        with pytest.raises(ValueError, match=message):
            spec_with(**{field: grid}, include_state_average=True)

    @pytest.mark.parametrize("field", ["param_grid", "xi_grid"])
    @pytest.mark.parametrize("grid", [iter([0.1]), (x for x in [0.1]), None, {0.1}],
                             ids=["iterator", "generator", "None", "set"])
    def test_a_grid_that_is_not_a_sequence_is_named(self, field, grid):
        message = f"^{field}: grid must be a sequence of real numbers, not {type(grid).__name__}$"
        with pytest.raises(ValueError, match=message):
            spec_with(**{field: grid})
        with pytest.raises(ValueError, match=message):
            spec_with(**{field: grid}, include_state_average=True)

    def test_an_over_cap_sequence_is_refused_before_it_is_read(self):
        class Huge:
            def __len__(self):
                return harness.MAX_SWEEP_ROWS + 1

            def __getitem__(self, index):
                raise AssertionError("the grid was read before the row cap")

        with pytest.raises(ValueError, match=r"^param_grid, xi_grid: 2000002 rows"):
            spec_with(param_grid=Huge())

    def test_array_grids_are_accepted(self):
        spec = spec_with(param_grid=np.array([0.0, 0.5]), xi_grid=np.array([0.0, 1.0]))
        assert len(harness.sweep(spec)[0]) == 4

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

    # Each field that chooses a code path, and values that would take some path silently.
    @pytest.mark.parametrize("field, bad, name", [
        ("mode", "closed_form", "SweepMode"),
        ("mode", None, "SweepMode"),
        ("quadrature", None, "QuadratureSpec"),
        ("include_state_average", "no", "bool"),
        ("include_state_average", 1, "bool"),
    ], ids=repr)
    def test_a_field_of_another_type_raises_type_error(self, field, bad, name):
        with pytest.raises(TypeError, match=f"^{field} must be a {name}, got {re.escape(repr(bad))}$"):
            spec_with(**{field: bad})

    def test_a_numpy_bool_is_a_bool(self):
        spec = spec_with(xi_grid=(), include_state_average=np.bool_(True))
        assert len(harness.sweep(spec)[0]) == 3


class TestSweep:
    def test_the_callers_arrays_stay_writeable(self):
        grid, xis = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3])
        table, _ = harness.sweep(SweepSpec(NoiseKind.AMPLITUDE_DAMPING, grid, xis, True))
        assert grid.flags.writeable and xis.flags.writeable
        assert grid.tolist() == [0.0, 0.5, 1.0] and xis.tolist() == [0.0, 0.3]
        assert table.param_grid is not grid and table.xi_grid is not xis
        assert not table.param_grid.flags.writeable and not table.xi_grid.flags.writeable
        np.testing.assert_array_equal(table.param_grid, grid)
        np.testing.assert_array_equal(table.xi_grid, xis)

    def test_row_count_and_order(self):
        rows, _ = harness.sweep(spec_with())
        assert len(rows) == 6
        assert [(r.param, r.xi) for r in rows] == [
            (0.0, 0.0), (0.0, np.pi / 4),
            (0.5, 0.0), (0.5, np.pi / 4),
            (1.0, 0.0), (1.0, np.pi / 4),
        ]

    def test_average_rows_appended_per_param(self):
        rows, _ = sweep_rows(spec_with(include_state_average=True))
        assert len(rows) == 9
        assert [r.xi for r in rows[:3]] == [0.0, np.pi / 4, None]

    def test_amplitude_damping_average_endpoints(self):
        spec = spec_with(param_grid=(0.0, 1.0), xi_grid=(), include_state_average=True)
        rows, _ = sweep_rows(spec)
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
        rows, _ = sweep_rows(spec)
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
        rows, _ = sweep_rows(spec)
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

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_manifest_dict_is_a_copy_equal_to_asdict(self, mode):
        _, manifest = harness.sweep(spec_with(mode=mode))
        fields = manifest.to_dict()
        assert fields == dataclasses.asdict(manifest)
        assert list(fields) == [field.name for field in dataclasses.fields(manifest)]
        fields.pop("duration_ms")
        assert manifest.to_dict() == dataclasses.asdict(manifest)

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS, ids=lambda kind: kind.value)
    def test_closed_form_rows_equal_scalar_calls(self, kind):
        spec = spec_with(
            kind=kind,
            param_grid=tuple(np.linspace(*kind.natural_range, 200)),
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
    def test_grids_over_the_row_cap_are_refused_before_any_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(harness, "_evaluate_grid", refuse)
        ad = NoiseKind.AMPLITUDE_DAMPING
        params, xis = np.linspace(0.0, 1.0, 2000), np.linspace(0.0, 6.0, 600)
        with pytest.raises(ValueError, match=r"^param_grids\[ad\], xi_grid: 1202000 rows, "
                                             r"over the cap of 1000000$"):
            harness.verify_formulas([NoiseKind.PHASE_DAMPING, ad], param_grids={ad: params},
                                    xi_grid=xis)
        # The default parameter grid counts too: 33 x (30303 + 1) rows.
        with pytest.raises(ValueError, match=r"^param_grids\[cd\], xi_grid: 1000032 rows"):
            harness.verify_formulas([NoiseKind.COLLECTIVE_DEPHASING],
                                    xi_grid=np.linspace(0.0, 6.0, 30303))

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

    @pytest.mark.parametrize("grids, message", [
        ({"param_grids": {NoiseKind.PHASE_DAMPING: []}}, "param_grids[pd]: grid must be nonempty"),
        ({"xi_grid": []}, "xi_grid: grid must be nonempty"),
        ({"xi_grid": np.zeros(0)}, "xi_grid: grid must be nonempty"),
        ({"xi_grid": [[0.1, 0.2]]}, "xi_grid: grid must be one-dimensional, got shape (1, 2)"),
        ({"xi_grid": 0.3}, "xi_grid: grid must be one-dimensional, got shape ()"),
        ({"xi_grid": [0.1, np.nan]}, "xi_grid: grid values must be finite, got nan"),
        ({"param_grids": {NoiseKind.PHASE_DAMPING: np.zeros((2, 2))}},
         "param_grids[pd]: grid must be one-dimensional, got shape (2, 2)"),
        ({"param_grids": {NoiseKind.PHASE_DAMPING: 0.5}},
         "param_grids[pd]: grid must be one-dimensional, got shape ()"),
        ({"param_grids": {NoiseKind.PHASE_DAMPING: [0.5, 2.0]}}, "param_grids[pd]: eta must lie in [0, 1], got 2.0"),
        ({"param_grids": {NoiseKind.PHASE_DAMPING: [0.5, 0.5]}}, "param_grids[pd]: grid must be strictly increasing"),
        ({"param_grids": {NoiseKind.AMPLITUDE_DAMPING: iter([0.1])}},
         "param_grids[ad]: grid must be a sequence of real numbers, not list_iterator"),
        ({"xi_grid": (x for x in [0.1])}, "xi_grid: grid must be a sequence of real numbers, not generator"),
    ])
    def test_a_bad_grid_is_rejected_before_any_oracle_is_built(self, monkeypatch, grids, message):
        def no_build(*args):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(RotationAveragedOracle, "__init__", no_build)
        # ad comes before pd in kind order, so its oracle would be built first.
        kinds = {NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING}
        with pytest.raises(ValueError) as info:
            harness.verify_formulas(kinds, quad=FAST_QUAD, **grids)
        assert str(info.value) == message

    def test_one_oracle_per_kind_equals_one_per_parameter(self, monkeypatch):
        builds = []
        init = RotationAveragedOracle.__init__

        def counting_init(self, channel, quad):
            builds.append(channel.kind)
            init(self, channel, quad)

        monkeypatch.setattr(RotationAveragedOracle, "__init__", counting_init)
        reports = harness.verify_formulas(fidelity.CLOSED_FORM_KINDS, quad=FAST_QUAD)
        monkeypatch.undo()
        assert builds == list(fidelity.CLOSED_FORM_KINDS)
        for report in reports:
            for row, param in zip(report.oracle, report.param_grid):
                single = RotationAveragedOracle(channels.from_kind(report.kind, param), FAST_QUAD)
                np.testing.assert_allclose(row, single.fidelity_at(report.xi_grid), rtol=0, atol=1e-15)

    def test_average_deviation_compares_the_state_averages(self, skew_state_average):
        kind = NoiseKind.PHASE_DAMPING
        clean = harness.verify_formulas({kind}, quad=FAST_QUAD)[0]
        assert clean.average_deviation < 1e-12
        skew_state_average(1e-3)
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
        rows, _ = sweep_rows(spec_with())
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
        rows, _ = sweep_rows(spec_with(mode=SweepMode.BOTH, include_state_average=True))
        path = tmp_path / "rows.csv"
        harness.export(rows, "csv", path)
        assert harness.load_rows(path, "csv") == rows

    def test_json_round_trip(self, tmp_path):
        rows, manifest = sweep_rows(spec_with(mode=SweepMode.BOTH))
        path = tmp_path / "rows.json"
        harness.export(rows, "json", path, manifest)
        assert harness.load_rows(path, "json") == rows

    def test_json_is_the_indented_document_with_one_row_per_line(self):
        rows, manifest = harness.sweep(
            spec_with(mode=SweepMode.BOTH, include_state_average=True)
        )
        text = harness.format_rows(rows, "json", manifest)
        fields = manifest.to_dict()
        del fields["duration_ms"]
        reference = {"manifest": fields, "rows": [
            {"kind": r.kind.value, "param": r.param, "xi": "avg" if r.xi is None else r.xi,
             "closed_form": r.closed_form, "oracle": r.oracle, "deviation": r.deviation}
            for r in rows
        ]}
        assert json.loads(text) == json.loads(json.dumps(reference, indent=2))
        assert text == harness.format_rows(rows, "json", manifest)
        lines = text.splitlines()
        assert len(lines) == len(rows) + 2
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == reference["rows"]

    def test_json_rejects_non_finite_values(self):
        row = ResultRow(NoiseKind.PHASE_DAMPING, 0.5, 0.0, float("nan"), None, None)
        with pytest.raises(ValueError, match="JSON compliant"):
            harness.format_rows([row], "json")

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


def reference_format_rows(rows, fmt, manifest=None):
    """The former ``format_rows``: a text list per column, json.dumps over a dict per row."""
    rows = list(rows)
    columns = [
        [row.kind.value for row in rows],
        [row.param for row in rows],
        ["avg" if row.xi is None else row.xi for row in rows],
        [row.closed_form for row in rows],
        [row.oracle for row in rows],
        [row.deviation for row in rows],
    ]
    if fmt == "csv":
        texts = [
            ["" if v is None else v if isinstance(v, str) else repr(float(v)) for v in column]
            for column in columns
        ]
        return "\n".join([harness.CSV_HEADER, *map(",".join, zip(*texts))]) + "\n"
    fields = {} if manifest is None else manifest.to_dict()
    fields.pop("duration_ms", None)
    names = harness.CSV_HEADER.split(",")
    rows_text = json.dumps([dict(zip(names, values)) for values in zip(*columns)], allow_nan=False)
    return (
        f'{{"manifest": {json.dumps(fields or None, allow_nan=False)}, "rows": [\n'
        + rows_text[1:-1].replace("}, {", "},\n{")
        + "\n]}\n"
    )


SPECIAL_VALUES = (-0.0, 0.0, 5e-324, 1e16, 1e22, 1e-5, 0.1, 1.0 / 3.0, np.float64(0.7),
                  np.float64(-2.5e-9))
BLOCK = harness.FORMAT_BLOCK_ROWS


@pytest.fixture(scope="module")
def random_rows():
    """BLOCK + 5 seeded rows of every kind, with state-averaged rows, None and special values."""
    rng = np.random.default_rng(20)
    count = BLOCK + 5

    def column(none_share):
        draws = rng.random(count)
        specials = rng.integers(len(SPECIAL_VALUES), size=count).tolist()
        normals = (rng.normal(size=count) * 10.0 ** rng.integers(-20, 20, size=count)).tolist()
        return [
            None if draw < none_share
            else SPECIAL_VALUES[special] if draw < none_share + 0.2 else normal
            for draw, special, normal in zip(draws.tolist(), specials, normals)
        ]

    members = list(NoiseKind)
    kinds = [members[i] for i in rng.integers(len(members), size=count).tolist()]
    columns = [kinds, column(0.0), column(0.2), column(0.3), column(0.3), column(0.3)]
    return [ResultRow(*fields) for fields in zip(*columns)]


class TestFieldEncoder:
    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_the_reference_encoder(self, random_rows, fmt, count):
        rows = random_rows[:count]
        _, manifest = harness.sweep(spec_with(mode=SweepMode.BOTH))
        for with_manifest in (None, manifest) if fmt == "json" else (None,):
            want = reference_format_rows(rows, fmt, with_manifest)
            assert harness.format_rows(rows, fmt, with_manifest) == want

    def test_random_rows_cover_every_kind_and_special_value(self, random_rows):
        assert {row.kind for row in random_rows} == set(NoiseKind)
        assert any(row.xi is None for row in random_rows)
        values = [v for row in random_rows for v in row[1:]]
        for special in SPECIAL_VALUES:
            assert any(type(v) is type(special) and repr(v) == repr(special) for v in values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_in_a_later_block_raises(self, random_rows, bad):
        table, _ = harness.sweep(spec_with(**TABLE_SPECS["minus-zero"]))
        # A value field, the param and the xi: of a row in the second block, and
        # of a table's last row, last param and last angle.
        for field, name, index in [("oracle", "closed_form", (-1, -1)), ("param", "param_grid", -1),
                                   ("xi", "xi_grid", -1)]:
            rows = list(random_rows)
            rows[BLOCK + 2] = rows[BLOCK + 2]._replace(**{field: bad})
            array = getattr(table, name).copy()
            array[index] = bad
            bad_table = dataclasses.replace(table, **{name: array})
            for source, want in [(rows, rows), (bad_table, list(bad_table.rows()))]:
                with pytest.raises(ValueError, match="JSON compliant"):
                    harness.format_rows(source, "json")
                stream = io.StringIO()
                with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant$"):
                    harness.export(source, "json", stream)
                assert stream.getvalue() == ""
                assert harness.format_rows(source, "csv") == reference_format_rows(want, "csv")

    def test_an_int_field_is_written_as_a_float_in_both_formats(self):
        row = ResultRow(NoiseKind.PHASE_DAMPING, 1, 0, 0.5, None, None)
        assert harness.format_rows([row], "csv").splitlines()[1] == "pd,1.0,0.0,0.5,,"
        assert harness.format_rows([row], "json").splitlines()[1] == (
            '{"kind": "pd", "param": 1.0, "xi": 0.0, "closed_form": 0.5, "oracle": null, '
            '"deviation": null}'
        )

    def test_format_peak_memory_is_bounded_by_the_text(self):
        params = tuple(np.linspace(0.0, 1.0, 10**4).tolist())
        xis = tuple(np.linspace(0.0, 6.0, 9).tolist())
        rows, _ = harness.sweep(spec_with(param_grid=params, xi_grid=xis, include_state_average=True))
        assert len(rows) == 10**5
        tracemalloc.start()
        try:
            text = harness.format_rows(rows, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The text once in blocks and once joined, plus the field texts of one block.
        assert peak < 2 * len(text) + 8 * 2**20, (peak, len(text))


NAN = float("nan")
# Equal values of other types, both zeros, NaN as one shared object,
# infinities and None; each repeats many times in a grid column.
GRID_REPEATS = (-0.0, 0.0, 1, True, 1.0, np.float64(1.0), np.float64(-0.0), 0, False,
                NAN, np.float64("nan"), float("inf"), -np.inf, None, 0.5)


def grid_rows(count, seed, values):
    """``count`` rows whose param and xi columns draw from ``values``."""
    rng = np.random.default_rng(seed)
    params, xis = (
        [values[i] for i in rng.integers(len(values), size=count).tolist()] for _ in range(2)
    )
    closed = rng.random(count).tolist()
    return [ResultRow(NoiseKind.PHASE_DAMPING, param, xi, value, None, value)
            for param, xi, value in zip(params, xis, closed)]


class TestGridColumns:
    @pytest.mark.parametrize("count", [200, BLOCK + 300])
    def test_repeated_grid_values_give_the_reference_bytes(self, count):
        rows = grid_rows(count, seed=count, values=GRID_REPEATS)
        # NaNs that are distinct objects, as a parser would make them.
        rows[1::7] = [row._replace(param=float("nan")) for row in rows[1::7]]
        assert harness.format_rows(rows, "csv") == reference_format_rows(rows, "csv")
        with pytest.raises(ValueError, match="JSON compliant"):
            harness.format_rows(rows, "json")

    @pytest.mark.parametrize("count", [200, BLOCK + 300])
    def test_repeated_finite_floats_give_the_reference_json(self, count):
        floats = (-0.0, 0.0, 1.0, np.float64(1.0), np.float64(-0.0), None, 0.5, 2.5e-9)
        rows = grid_rows(count, seed=count, values=floats)
        assert harness.format_rows(rows, "json") == reference_format_rows(rows, "json")

    def test_a_nan_in_the_xi_column_of_a_later_block_fails_json(self):
        rows = grid_rows(BLOCK + 10, seed=3, values=(0.25, 0.75, None))
        rows[BLOCK + 4] = rows[BLOCK + 4]._replace(xi=NAN)
        with pytest.raises(ValueError, match="JSON compliant"):
            harness.format_rows(rows, "json")


class TestRowContract:
    def test_fields_are_the_csv_columns(self):
        assert ResultRow._fields == tuple(harness.CSV_HEADER.split(","))

    def test_rows_are_immutable(self):
        row = ResultRow(NoiseKind.PHASE_DAMPING, 1.0, None, 0.5625, None, None)
        with pytest.raises(AttributeError):
            row.param = 0.5
        assert row == (NoiseKind.PHASE_DAMPING, 1.0, None, 0.5625, None, None)
        kind, *_ = row
        assert kind is NoiseKind.PHASE_DAMPING

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_sweep_fields_are_python_floats(self, mode):
        rows, manifest = harness.sweep(spec_with(mode=mode, include_state_average=True))
        for row in rows:
            assert type(row) is ResultRow and row.kind is NoiseKind.AMPLITUDE_DAMPING
            assert all(v is None or type(v) is float for v in row[1:])
        deviations = [row.deviation for row in rows if row.deviation is not None]
        assert manifest.max_abs_deviation == (max(deviations) if deviations else None)

    @pytest.mark.parametrize("text, message", [
        ("zz,1.0,avg,0.5,,", "line 2: malformed row: 'zz' is not a valid NoiseKind"),
        ("pd,1.0,avg", "line 2: malformed row: expected 6 fields, got 3"),
    ])
    def test_csv_error_messages(self, tmp_path, text, message):
        path = tmp_path / "rows.csv"
        path.write_text(f"{harness.CSV_HEADER}\n{text}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            harness.load_rows(path, "csv")

    @pytest.mark.parametrize("row, message", [
        (dict(GOOD_ROW, kind="zz"), "row 0: malformed row: 'zz' is not a valid NoiseKind"),
        (dict(GOOD_ROW, kind=[1]), "row 0: malformed row: [1] is not a valid NoiseKind"),
        ({k: v for k, v in GOOD_ROW.items() if k != "param"}, "missing key 'param' in row 0"),
    ])
    def test_json_error_messages(self, tmp_path, row, message):
        path = write_json_rows(tmp_path, {"rows": [row]})
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            harness.load_rows(path, "json")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_constant_names_file(self, tmp_path, token):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": [GOOD_ROW]}).replace("0.5625", token))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {token} is not a finite"):
            harness.load_rows(path, "json")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2, 3, 4, 5])
    def test_csv_non_finite_field_names_file_and_line(self, tmp_path, token, column):
        fields = ["pd", "1.0", "0.25", "0.5", "0.5", "0.0"]
        fields[column] = token
        path = tmp_path / "rows.csv"
        path.write_text(f"{harness.CSV_HEADER}\npd,1.0,avg,0.5625,,\n{','.join(fields)}\n")
        message = f"{path}: line 3: malformed row: {token!r} is not a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.load_rows(path, "csv")

    @pytest.mark.parametrize("text, value", [('"nan"', "'nan'"), ("1e999", "inf")])
    def test_json_value_that_reads_as_non_finite_names_file_and_row(self, tmp_path, text, value):
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"rows": [GOOD_ROW]}).replace("0.5625", text))
        message = f"{path}: row 0: malformed row: {value} is not a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            harness.load_rows(path, "json")

    @pytest.mark.parametrize("field", ["param", "xi", "closed_form"])
    def test_json_integer_too_large_for_a_float_names_file_and_row(self, tmp_path, field):
        path = write_json_rows(tmp_path, {"rows": [GOOD_ROW, dict(GOOD_ROW, **{field: 10**400})]})
        message = f"{path}: row 1: malformed row: int too large to convert to float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            harness.load_rows(path, "json")
        assert type(info.value) is ValueError

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python has no integer digit limit")
    def test_json_integer_over_the_digit_limit_names_file(self, tmp_path):
        path = tmp_path / "rows.json"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text(json.dumps({"rows": [GOOD_ROW]}).replace("0.5625", digits))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: ')}Exceeds the limit") as info:
            harness.load_rows(path, "json")
        assert type(info.value) is ValueError

    def test_truncated_json_names_file(self, tmp_path):
        path = tmp_path / "rows.json"
        path.write_text('{"rows": [')
        message = f"{path}: not valid JSON: Expecting value: line 1 column 11 (char 10)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            harness.load_rows(path, "json")
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_utf8_file_names_file(self, tmp_path, fmt):
        path = tmp_path / f"rows.{fmt}"
        path.write_bytes(harness.CSV_HEADER.encode() + b"\npd,1.0,avg,0.5\xff,,\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not UTF-8 text: ')}") as info:
            harness.load_rows(path, fmt)
        assert type(info.value) is ValueError


def rows_the_old_way(table):
    """One ResultRow per grid point, read from the table's arrays cell by cell."""
    xis = [*table.xi_grid.tolist(), None]
    width = len(table.xi_grid) + table.include_state_average
    arrays = (table.closed_form, table.oracle, table.deviation)
    return [
        ResultRow(table.kind, param, xis[j], *(None if a is None else float(a[i, j]) for a in arrays))
        for i, param in enumerate(table.param_grid.tolist()) for j in range(width)
    ]


HUGE = (-1e300, -(2.0**51), -0.0, 2.0**51, 1e300)
# Grids on which both column sources must give the reference bytes.
TABLE_SPECS = {
    "minus-zero": dict(param_grid=(-0.0, 0.5, 1.0), xi_grid=(-0.0, 0.25, np.pi),
                       include_state_average=True),
    "cd-huge": dict(kind=NoiseKind.COLLECTIVE_DEPHASING, param_grid=HUGE, xi_grid=HUGE,
                    include_state_average=True),
    "cr-huge": dict(kind=NoiseKind.COLLECTIVE_ROTATION, param_grid=HUGE, xi_grid=(-1e300, 0.5, 2.0**51)),
    "avg-only": dict(kind=NoiseKind.PHASE_DAMPING, param_grid=(-0.0, 0.3, 1.0), xi_grid=(),
                     include_state_average=True),
}
# Closed-form grids over several blocks: a block edge inside a parameter's
# rows, and a parameter wider than a block.
BLOCK_SPECS = {
    "edges": dict(param_grid=(0.0, 0.5, 1.0), xi_grid=tuple(np.linspace(0.0, 6.0, 7000).tolist()),
                  include_state_average=True),
    "wide": dict(kind=NoiseKind.PHASE_DAMPING, param_grid=(-0.0, 1.0),
                 xi_grid=tuple(np.linspace(-3.0, 3.0, BLOCK + 7).tolist())),
}


class TestSweepTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", list(SweepMode))
    @pytest.mark.parametrize("name", list(TABLE_SPECS))
    def test_both_column_sources_give_the_reference_bytes(self, name, mode, fmt):
        table, manifest = harness.sweep(spec_with(mode=mode, **TABLE_SPECS[name]))
        rows = list(table.rows())
        want = reference_format_rows(rows, fmt, manifest)
        assert harness.format_rows(table, fmt, manifest) == want
        assert harness.format_rows(rows, fmt, manifest) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(BLOCK_SPECS))
    def test_both_column_sources_give_the_reference_bytes_over_blocks(self, name, fmt):
        table, manifest = harness.sweep(spec_with(**BLOCK_SPECS[name]))
        assert len(table) > BLOCK
        rows = list(table.rows())
        want = reference_format_rows(rows, fmt, manifest)
        assert harness.format_rows(table, fmt, manifest) == want
        assert harness.format_rows(rows, fmt, manifest) == want

    @pytest.mark.parametrize("name, mode", [
        *((name, mode) for name in TABLE_SPECS for mode in SweepMode),
        *((name, SweepMode.CLOSED_FORM) for name in BLOCK_SPECS),
    ])
    def test_rows_are_the_arrays_cell_by_cell(self, name, mode):
        spec = spec_with(mode=mode, **{**TABLE_SPECS, **BLOCK_SPECS}[name])
        table, _ = harness.sweep(spec)
        rows = list(table.rows())
        want = rows_the_old_way(table)
        assert [tuple(map(repr, row)) for row in rows] == [tuple(map(repr, row)) for row in want]
        assert all(type(row) is ResultRow for row in rows)
        assert len(table) == len(rows) == len(spec.param_grid) * (
            len(spec.xi_grid) + spec.include_state_average)
        assert list(table) == rows

    def test_table_holds_the_grids_and_read_only_arrays(self):
        table, manifest = harness.sweep(spec_with(mode=SweepMode.BOTH, include_state_average=True))
        assert table.kind is NoiseKind.AMPLITUDE_DAMPING and table.include_state_average
        assert table.param_grid.tolist() == [0.0, 0.5, 1.0]
        assert table.xi_grid.tolist() == [0.0, np.pi / 4]
        assert table.closed_form.shape == table.oracle.shape == table.deviation.shape == (3, 3)
        assert manifest.max_abs_deviation == float(table.deviation.max())
        for array in (table.param_grid, table.xi_grid, table.closed_form, table.oracle, table.deviation):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.oracle = None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_exported_table_loads_as_its_rows(self, tmp_path, fmt):
        table, manifest = harness.sweep(spec_with(mode=SweepMode.BOTH, include_state_average=True))
        path = tmp_path / f"rows.{fmt}"
        harness.export(table, fmt, path, manifest)
        assert harness.load_rows(path, fmt) == list(table.rows())
        # An open stream is written through, to the same text, from a table and from its rows.
        for source in (table, list(table.rows())):
            stream = io.StringIO()
            harness.export(source, fmt, stream, manifest)
            assert stream.getvalue() == harness.format_rows(source, fmt, manifest)
            assert stream.getvalue().encode() == path.read_bytes()

    def test_export_memory_does_not_grow_with_the_rows(self, tmp_path):
        xis = tuple(np.linspace(0.0, 6.0, 15).tolist())
        peaks = []
        for params in (2**12, 2**14):
            grid = tuple(np.linspace(0.0, 1.0, params).tolist())
            table, _ = harness.sweep(spec_with(param_grid=grid, xi_grid=xis, include_state_average=True))
            assert len(table) == 16 * params
            tracemalloc.start()
            try:
                harness.export(table, "csv", tmp_path / "rows.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Four times the rows; one block of text at a time either way.
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_row_list_json_export_memory_does_not_grow_with_the_rows(self, tmp_path):
        xis = tuple(np.linspace(0.0, 6.0, 7).tolist())
        peaks = []
        for params in (2**13, 2**15):
            grid = tuple(np.linspace(0.0, 1.0, params).tolist())
            table, _ = harness.sweep(spec_with(param_grid=grid, xi_grid=xis, include_state_average=True))
            rows = list(table.rows())
            assert len(rows) == 8 * params
            tracemalloc.start()
            try:
                harness.export(rows, "json", tmp_path / "rows.json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del rows
        # Four times the rows; one block of text, and one block's check, at a time.
        assert peaks[1] <= 1.5 * peaks[0], peaks
