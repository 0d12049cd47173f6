"""``harness.load_rows`` against the per-row reader it was optimised from.

The ``reference_*`` functions below are the earlier reader: one
``reference_decode_row`` call per CSV line or JSON row, which raises for
the first bad one. The package now decodes ``FORMAT_BLOCK_ROWS`` rows at a
time as columns and falls back to that loop for a block that fails. Its rows
must equal the reference's with the same field types and signs of zero, and
its errors must have the same type and message.
"""

import json
import math
import operator
import random
from itertools import repeat

import pytest

from threestage import harness
from threestage.channels import NoiseKind
from threestage.harness import ResultRow

BLOCK = harness.FORMAT_BLOCK_ROWS
FIELDS = ResultRow._fields
_KINDS = {kind.value: kind for kind in NoiseKind}


def reference_finite_float(value):
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def reference_optional_float(value):
    return None if value is None or value == "" else reference_finite_float(value)


def reference_decode_row(fields):
    if len(fields) != len(FIELDS):
        raise ValueError(f"expected {len(FIELDS)} fields, got {len(fields)}")
    kind, param, xi, closed_form, oracle, deviation = fields
    try:
        kind = _KINDS[kind]
    except (KeyError, TypeError):
        kind = NoiseKind(kind)
    xi = None if xi == harness.XI_AVERAGE else reference_finite_float(xi)
    return ResultRow(kind, reference_finite_float(param), xi, reference_optional_float(closed_form),
                     reference_optional_float(oracle), reference_optional_float(deviation))


def reference_load_rows(path, fmt):
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != harness.CSV_HEADER:
            raise ValueError(f"{path}: missing expected CSV header")
        records, label, first = map(str.split, lines[1:], repeat(",")), "line", 2
    else:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or not isinstance(document.get("rows"), list):
            raise ValueError(f"{path}: expected a JSON object with a 'rows' list")
        records, label, first = map(operator.itemgetter(*FIELDS), document["rows"]), "row", 0
    rows = []
    try:
        for fields in records:
            rows.append(reference_decode_row(fields))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r} in row {len(rows)}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {label} {first + len(rows)}: malformed row: {exc}") from None
    return rows


def typed(rows):
    """Rows as comparable text with each field's type: repr keeps the sign of a zero."""
    return [(type(row), *((type(value), repr(value)) for value in row)) for row in rows]


def outcome(load, path, fmt):
    try:
        return "rows", typed(load(path, fmt))
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)


def assert_same_outcome(path, fmt):
    got, want = outcome(harness.load_rows, path, fmt), outcome(reference_load_rows, path, fmt)
    assert got == want
    return got


def seeded_rows(count, seed):
    """Rows on a repeating grid, with both zeros, averaged rows and missing values."""
    rng = random.Random(seed)
    kinds = list(NoiseKind)
    params = [-0.0, 0.0, 0.25, 1.0, 1.0 / 3.0, 5e-324, 1e22, 2.5]
    xis = [-0.0, 0.0, 0.1, 3.141592653589793, None]
    values = [None, -0.0, 0.0, 1.0, 0.5625, 1e-300, 1.0 / 7.0]
    rows = []
    for _ in range(count):
        present = [rng.random() for _ in range(3)]
        rows.append(ResultRow(
            rng.choice(kinds), rng.choice(params), rng.choice(xis),
            *(rng.choice(values) if p < 0.3 else rng.random() if p < 0.9 else None
              for p in present),
        ))
    return rows


def write_rows(tmp_path, rows, fmt, name="rows"):
    path = tmp_path / f"{name}.{fmt}"
    harness.export(rows, fmt, path)
    return path


def write_csv_lines(tmp_path, lines, end="\n"):
    path = tmp_path / "rows.csv"
    path.write_text(end.join([harness.CSV_HEADER, *lines]) + end, newline="")
    return path


def write_json_rows(tmp_path, rows):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"manifest": None, "rows": rows}))
    return path


@pytest.fixture(scope="module")
def block_files():
    """Exported lines of enough rows to cross a block edge: row i is on line i + 1."""
    rows = seeded_rows(BLOCK + 300, seed=7)
    return {fmt: harness.format_rows(rows, fmt).splitlines() for fmt in ("csv", "json")}


def write_with_row(tmp_path, lines, fmt, index, row):
    """The exported ``lines`` with row ``index`` replaced by CSV text or a JSON value."""
    lines = list(lines)
    if fmt == "json":  # one row per line, each but the last followed by a comma
        row = json.dumps(row) + ("," if lines[index + 1].endswith(",") else "")
    lines[index + 1] = row
    path = tmp_path / f"rows.{fmt}"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count, seed", [(1, 1), (200, 2), (BLOCK, 3), (BLOCK + 300, 4)])
def test_seeded_rows_load_as_the_reference(tmp_path, fmt, count, seed):
    rows = seeded_rows(count, seed)
    kind, loaded = assert_same_outcome(write_rows(tmp_path, rows, fmt), fmt)
    assert kind == "rows" and loaded == typed(rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_swept_rows_load_as_the_reference(tmp_path, fmt):
    spec = harness.SweepSpec(
        kind=NoiseKind.AMPLITUDE_DAMPING, param_grid=(-0.0, 0.5, 1.0),
        xi_grid=tuple(i / 10 for i in range(-3, 8)), include_state_average=True,
        mode=harness.SweepMode.BOTH,
    )
    rows, _ = harness.sweep(spec)
    assert assert_same_outcome(write_rows(tmp_path, rows, fmt), fmt) == ("rows", typed(rows))


JSON_VALUES = [1, 0, True, False, "0.5", " 1e-3 ", "-0.0", "", None, -0.0, 0.0, 2**53 + 1,
               "avg", "abc", "nan", [1], {}, 1e308]


@pytest.mark.parametrize("field", FIELDS[1:])
@pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
def test_json_field_values_load_as_the_reference(tmp_path, field, value):
    good = {"kind": "ad", "param": 0.5, "xi": 0.25, "closed_form": 0.75, "oracle": None,
            "deviation": None}
    rows = [dict(good, param=p) for p in (-0.0, 0.0, 0.5, 1)] + [dict(good, **{field: value})]
    assert_same_outcome(write_json_rows(tmp_path, rows * 3), "json")


CSV_FIELDS = ["0.5", " 0.5 ", "1_000", "+1", ".5", "-0.0", "0.0", "-0", "", "avg", "abc", "nan",
              "-inf", "Infinity", "1e999", "1e308"]


@pytest.mark.parametrize("column", range(1, 6))
@pytest.mark.parametrize("text", CSV_FIELDS, ids=repr)
def test_csv_field_texts_load_as_the_reference(tmp_path, column, text):
    fields = ["cd", "0.5", "0.25", "0.75", "", ""]
    fields[column] = text
    lines = ["cd,-0.0,-0.0,,,", "cd,0.0,0.0,0.5,,", ",".join(fields), ",".join(fields)]
    assert_same_outcome(write_csv_lines(tmp_path, lines), "csv")


@pytest.mark.parametrize("zero", [-0.0, 0.0, 0, False, "-0.0", "0"], ids=repr)
@pytest.mark.parametrize("field", ["param", "xi"])
def test_the_sign_of_a_zero_grid_value_survives(tmp_path, zero, field):
    row = {"kind": "ad", "param": 0.5, "xi": 0.25, "closed_form": 0.75, "oracle": None,
           "deviation": None}
    # -0.0 and 0.0 are one dict key: a lookup by value would give the first one seen.
    rows = [dict(row, **{field: 0.0}), dict(row, **{field: zero}), dict(row, **{field: -0.0})]
    kind, loaded = assert_same_outcome(write_json_rows(tmp_path, rows * 2), "json")
    assert kind == "rows"
    assert [fields[FIELDS.index(field) + 1][1] for fields in loaded[:3:2]] == ["0.0", "-0.0"]


# Per column: values that a valid row cannot hold there.
BAD_FIELDS = {
    "csv": [["zz", ""], ["abc", "", "1e999"], ["", "nan"], ["avg", "nan"], ["abc"], ["inf"]],
    "json": [["zz", [1]], [None, "avg", {}], [None, "inf"], ["abc", [1]], [{}], ["-inf"]],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("index", [5, BLOCK + 7], ids=["first_block", "second_block"])
@pytest.mark.parametrize("column", range(6))
def test_one_bad_field_raises_as_the_reference(tmp_path, block_files, fmt, index, column):
    # Past the first block, where the reference decodes 2^14 rows first, one value will do.
    for bad in BAD_FIELDS[fmt][column][: 1 if index > BLOCK else None]:
        line = block_files[fmt][index + 1]
        if fmt == "csv":
            fields = line.split(",")
            fields[column] = bad
            row = ",".join(fields)
        else:
            row = dict(json.loads(line.rstrip(",")), **{FIELDS[column]: bad})
        path = write_with_row(tmp_path, block_files[fmt], fmt, index, row)
        kind, message = assert_same_outcome(path, fmt)
        number = index + 2 if fmt == "csv" else index
        assert kind is ValueError and f" {number}: malformed row: " in message


@pytest.mark.parametrize("index", [0, BLOCK - 1, BLOCK + 7])
@pytest.mark.parametrize("line", [
    "pd,1.0,avg,0.5", "pd,1.0,avg,0.5,,,", "pd,1.0,0.5,0.5,0.5,0.5,", "",
], ids=["4", "7", "trailing", "blank"])
def test_csv_field_counts_raise_as_the_reference(tmp_path, block_files, index, line):
    path = write_with_row(tmp_path, block_files["csv"], "csv", index, line)
    kind, message = assert_same_outcome(path, "csv")
    assert kind is ValueError and f"line {index + 2}: malformed row: expected 6 fields, got " in message


def test_field_counts_that_even_out_in_a_block_raise_as_the_reference(tmp_path):
    # Five fields then seven: the block still splits into whole rows of six.
    lines = ["pd,0.5,0.25,0.5,0.5", "0.5,pd,0.5,0.25,0.5,0.5,0.5", "pd,0.5,avg,,,"]
    kind, message = assert_same_outcome(write_csv_lines(tmp_path, lines), "csv")
    assert kind is ValueError and "line 2: malformed row: expected 6 fields, got 5" in message


@pytest.mark.parametrize("index", [0, BLOCK + 7])
@pytest.mark.parametrize("row", [
    {"kind": "pd", "xi": "avg", "closed_form": 0.5, "oracle": None, "deviation": None},
    {"kind": "pd", "param": 1.0, "xi": "avg", "closed_form": 0.5, "oracle": None},
    ["pd", 1.0, "avg", 0.5, None, None], "pd", None, 3,
], ids=["no_param", "no_deviation", "list", "string", "null", "number"])
def test_json_row_shapes_raise_as_the_reference(tmp_path, block_files, index, row):
    path = write_with_row(tmp_path, block_files["json"], "json", index, row)
    kind, message = assert_same_outcome(path, "json")
    assert kind is ValueError and f" {index}" in message


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", [[1], {}], ids=["list", "dict"])
def test_unhashable_json_values_raise_as_the_reference(tmp_path, field, value):
    row = {"kind": "cr", "param": 0.5, "xi": "avg", "closed_form": None, "oracle": 0.5,
           "deviation": None}
    rows = [row, dict(row, **{field: value})]
    kind, message = assert_same_outcome(write_json_rows(tmp_path, rows), "json")
    assert kind is ValueError and "row 1: malformed row: " in message


def test_crlf_csv_loads_as_the_reference(tmp_path):
    path = write_csv_lines(tmp_path, ["ad,0.5,avg,0.25,,", "ad,-0.0,-0.0,,0.5,"], end="\r\n")
    assert assert_same_outcome(path, "csv")[0] == "rows"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sum_that_overflows_still_loads(tmp_path, fmt):
    # The value columns' finite check sums them: 1e308 + 1e308 overflows, and
    # the row decoder then takes the block and accepts it.
    rows = [ResultRow(NoiseKind.PHASE_DAMPING, 0.5, None, 1e308, None, 1e308)] * 3
    assert assert_same_outcome(write_rows(tmp_path, rows, fmt), fmt) == ("rows", typed(rows))


def test_header_only_csv_and_empty_json_rows_load_no_rows(tmp_path):
    csv_path = write_csv_lines(tmp_path, [])
    json_path = write_json_rows(tmp_path, [])
    assert assert_same_outcome(csv_path, "csv") == ("rows", [])
    assert assert_same_outcome(json_path, "json") == ("rows", [])
