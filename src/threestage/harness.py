"""Parameter sweeps, formula-vs-oracle verification, and dataset export.

A sweep evaluates the cartesian grid of noise parameters and encoding angles
into a ``SweepTable``: the grids and one array per value column, whose rows
run in deterministic param-major order with an optional state-averaged row
per parameter. ``export`` is the one writer of a sweep's text, to a file, a
device or an open stream, and ``format_rows`` is that writer into a string.
It writes a table's text straight from its arrays, block by block; a list of
rows, as ``load_rows`` returns, is read by one flatten per block and exports
to the same bytes. CSV re-exports of identical rows are byte-identical;
floats are written in their shortest round-trip form.
"""

from __future__ import annotations

import functools
import io
import json
import math
import operator
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

from . import algebra, channels, fidelity
from ._version import __version__
from .channels import NoiseKind
# RotationAveragedOracle stays importable from here, where the benchmark's tests look for it.
from .fidelity import FidelityReport, QuadratureSpec, RotationAveragedOracle  # noqa: F401

# Serialized stand-in for the state-averaged row's xi field.
XI_AVERAGE = "avg"

MAX_SWEEP_ROWS = 10**6

# export makes this many rows at a time, so that the text of one field per
# row exists for one block only.
FORMAT_BLOCK_ROWS = 2**14


class SweepMode(Enum):
    CLOSED_FORM = "closed_form"
    ORACLE = "oracle"
    BOTH = "both"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    ``xi_grid`` may be empty when ``include_state_average`` is set, in which
    case each parameter contributes only its state-averaged row. A field
    that chooses a code path, ``include_state_average`` (a bool, numpy's
    included), ``mode`` or ``quadrature``, of another type raises TypeError.
    """

    kind: NoiseKind
    param_grid: tuple[float, ...]
    xi_grid: tuple[float, ...] = ()
    include_state_average: bool = False
    mode: SweepMode = SweepMode.CLOSED_FORM
    quadrature: QuadratureSpec = QuadratureSpec()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in fidelity.CLOSED_FORM_KINDS:
            raise ValueError(f"kind: {self.kind!r} has no closed form to sweep")
        for field, types, name in (("include_state_average", (bool, np.bool_), "bool"),
                                   ("mode", SweepMode, "SweepMode"),
                                   ("quadrature", QuadratureSpec, "QuadratureSpec")):
            if not isinstance(getattr(self, field), types):
                raise TypeError(f"{field} must be a {name}, got {getattr(self, field)!r}")
        try:
            rows = len(self.param_grid) * (len(self.xi_grid) + int(self.include_state_average))
        except TypeError:  # a grid with no len(): _check_grid names it
            _check_grid("param_grid", self.param_grid, self.kind)
            _check_grid("xi_grid", self.xi_grid)
            raise
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"param_grid, xi_grid: {rows} rows, over the cap of {MAX_SWEEP_ROWS}")
        _check_grid("param_grid", self.param_grid, self.kind)
        if len(self.xi_grid):
            _check_grid("xi_grid", self.xi_grid)
        elif not self.include_state_average:
            raise ValueError("xi_grid: empty grid requires include_state_average")


def _check_grid(name: str, grid, kind: NoiseKind | None = None) -> np.ndarray:
    """``grid`` as a float array, else ValueError "<name>: ..." naming the broken rule.

    A grid is a sequence of real numbers, one-dimensional, nonempty, finite
    and strictly increasing and, when ``kind`` is given, holds valid
    parameters of that kind.
    """
    values = None
    if grid is not None:  # numpy would read None as NaN
        try:
            values = algebra._finite(f"{name}: grid values", grid)
        except TypeError:  # numpy cannot read it as floats: an iterator, a set
            pass
    if values is None:
        raise ValueError(f"{name}: grid must be a sequence of real numbers, not {type(grid).__name__}")
    if values.ndim != 1:
        raise ValueError(f"{name}: grid must be one-dimensional, got shape {values.shape}")
    if values.size == 0:
        raise ValueError(f"{name}: grid must be nonempty")
    # A comparison, not np.diff: the difference of huge values can overflow.
    if np.any(values[1:] <= values[:-1]):
        raise ValueError(f"{name}: grid must be strictly increasing")
    if kind is not None:
        try:
            channels.check_parameter(kind, values)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return values


class ResultRow(NamedTuple):
    """One sweep grid point; ``xi`` is None on state-averaged rows.

    A tuple of its fields in CSV column order: it unpacks, and compares equal
    to the plain tuple of the same values.
    """

    kind: NoiseKind
    param: float
    xi: float | None
    closed_form: float | None
    oracle: float | None
    deviation: float | None


CSV_HEADER = ",".join(ResultRow._fields)

# A ResultRow from a tuple of its six fields, as ResultRow._make without its
# Python-level call.
_new_row = functools.partial(tuple.__new__, ResultRow)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's rows as columns: its grids and one array per value column.

    ``param_grid`` and ``xi_grid`` are float arrays; each value array has
    shape (len(param_grid), len(xi_grid) + include_state_average), with the
    state average in the last column when ``include_state_average`` is set,
    and is None when the sweep's mode does not compute it. The arrays are
    read-only. Row ``i`` is parameter ``i // width`` at angle ``i % width``;
    iterating a table gives its ``rows()``.
    """

    kind: NoiseKind
    param_grid: np.ndarray
    xi_grid: np.ndarray
    include_state_average: bool
    closed_form: np.ndarray | None
    oracle: np.ndarray | None
    deviation: np.ndarray | None

    def __len__(self) -> int:
        return len(self.param_grid) * (len(self.xi_grid) + self.include_state_average)

    def rows(self) -> Iterator[ResultRow]:
        """The table's ``ResultRow``s in param-major order; xi is None on averaged rows."""
        xis = self.xi_grid.tolist() + [None] * self.include_state_average
        params = np.repeat(self.param_grid, len(xis)).tolist()
        values = (repeat(None) if a is None else a.ravel().tolist()
                  for a in (self.closed_form, self.oracle, self.deviation))
        # Built column by column, so that no row costs a Python-level call.
        return map(_new_row, zip(repeat(self.kind), params, xis * len(self.param_grid), *values))

    __iter__ = rows


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one harness or CLI run; printed to standard error."""

    version: str
    seed: int | None
    rotation_points: int | None
    xi_points: int | None
    duration_ms: float
    max_abs_deviation: float | None

    def to_dict(self) -> dict:
        # Every field is a scalar: a shallow copy equals the deep dataclasses.asdict.
        return dict(vars(self))


def run_manifest(start: float, seed: int | None = None, quad: QuadratureSpec | None = None,
                 max_abs_deviation: float | None = None) -> RunManifest:
    """Manifest of a run that began at ``time.perf_counter()`` value ``start``.

    ``quad`` is the quadrature of the oracle the run built, None when it
    built none; the manifest reports its resolutions only then.
    """
    return RunManifest(
        version=__version__,
        seed=seed,
        rotation_points=None if quad is None else quad.rotation_points,
        xi_points=None if quad is None else quad.xi_points,
        duration_ms=(time.perf_counter() - start) * 1000.0,
        max_abs_deviation=max_abs_deviation,
    )


def _evaluate_grid(grids, xis, average: bool, closed: bool, quad) -> tuple:
    """Closed form and oracle over each (kind, params) of ``grids`` x the one xi grid, as two tables.

    Every params and xis is a float array that ``_check_grid`` or a default
    grid has already checked, and is not checked again. A sweep is a
    campaign of one. Each table has one row per parameter, in ``grids``
    order, and len(xis) + average columns, the state average last; a table
    not asked for is None, and each takes one clamp.

    The closed form runs each kind's rule once, then one broadcast with
    cos 4xi. The oracle joins the Pauli transfer matrices of every kind's
    stacked channel into one stack, averages it once
    (``fidelity._averaged_forms``, the build of ``RotationAveragedOracle``)
    and takes ``fidelity._fidelity_table``, the product path of
    ``fidelity_at`` and ``state_average``.
    """
    closed_table = fidelity._closed_form_table(grids, xis, average) if closed else None
    oracle_table = None
    if quad is not None:
        transfer = np.concatenate([fidelity._transfer(channels._build(kind, params).operators)
                                   for kind, params in grids])
        form = fidelity._averaged_forms(transfer, quad.rotation_points)
        oracle_table = fidelity._fidelity_table(form, xis, quad.xi_points if average else None)
    return closed_table, oracle_table


def sweep(spec: SweepSpec) -> tuple[SweepTable, RunManifest]:
    """Evaluate the grid and return it as a ``SweepTable`` plus a manifest.

    The table's rows run in param-major order: within each parameter block
    the xi rows come first, then the optional state-averaged row.
    """
    start = time.perf_counter()
    quad = None if spec.mode is SweepMode.CLOSED_FORM else spec.quadrature
    # Copies, so that freezing the table's grids leaves the caller's arrays writeable.
    params = np.array(spec.param_grid, dtype=float)
    xis = np.array(spec.xi_grid, dtype=float)
    closed, oracle = _evaluate_grid(
        [(spec.kind, params)], xis, spec.include_state_average,
        closed=spec.mode is not SweepMode.ORACLE, quad=quad,
    )
    deviation = None if closed is None or oracle is None else np.abs(closed - oracle)
    for values in (params, xis, closed, oracle, deviation):
        if values is not None:
            values.flags.writeable = False
    table = SweepTable(spec.kind, params, xis, spec.include_state_average, closed, oracle, deviation)
    worst = None if deviation is None else float(deviation.max())
    return table, run_manifest(start, spec.seed, quad, worst)


# The encoding angles of every kind's default check: [0, 2pi] in steps of pi/16.
_DEFAULT_XIS = np.linspace(0.0, 2.0 * np.pi, 33)
_DEFAULT_XIS.flags.writeable = False


@functools.cache
def default_verification_grids(kind: NoiseKind) -> tuple[np.ndarray, np.ndarray]:
    """Grids the formula-vs-oracle check runs on when none are given: read-only, built once per process.

    Parameters cover the kind's natural range, a probability in steps of 0.05
    and an angle in steps of pi/16; every kind shares one encoding-angle grid.
    """
    lo, hi = kind.natural_range
    params = np.linspace(lo, hi, 21 if kind.is_probability else 33)
    params.flags.writeable = False
    return params, _DEFAULT_XIS


def verify_formulas(
    kinds,
    param_grids=None,
    xi_grid=None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> list[FidelityReport]:
    """Compare each kind's closed form with the rotation-averaged oracle.

    ``param_grids`` optionally maps a kind to its parameter grid; ``xi_grid``
    optionally replaces the default encoding-angle grid. Returns one report
    per kind, in canonical kind order, each carrying the worst grid point and
    the largest state-average deviation, the oracle's taken with
    ``quad.xi_points`` cells. A kind with no closed form, a given grid that
    breaks a sweep's grid rules (``_check_grid``), or grids whose rows, one
    per point and one state average per parameter, pass a sweep's cap
    ``MAX_SWEEP_ROWS``, raise ValueError that names them, before any oracle
    is built.

    One deviation table is taken between the campaign's two tables
    (``_evaluate_grid``), and each report reads its kind's rows of the three.
    """
    kinds = list(kinds)
    unknown = [kind for kind in kinds if kind not in fidelity.CLOSED_FORM_KINDS]
    if unknown:
        raise ValueError(f"kinds: {unknown[0]!r} has no closed form to verify")
    # Every given grid is checked before the first oracle is built.
    xis = _DEFAULT_XIS if xi_grid is None else _check_grid("xi_grid", xi_grid)
    grids = []
    for kind in (known for known in fidelity.CLOSED_FORM_KINDS if known in kinds):
        params, _ = default_verification_grids(kind)
        if param_grids is not None and kind in param_grids:
            params = _check_grid(f"param_grids[{kind.value}]", param_grids[kind], kind)
        rows = len(params) * (len(xis) + 1)
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(
                f"param_grids[{kind.value}], xi_grid: {rows} rows, over the cap of {MAX_SWEEP_ROWS}")
        grids.append((kind, params))
    if not grids:  # no table to join
        return []
    closed, oracle = _evaluate_grid(grids, xis, True, True, quad)
    deviation = np.abs(closed - oracle)
    reports, stop = [], 0
    for kind, params in grids:
        start, stop = stop, stop + len(params)  # the kind's rows of the three tables
        points = deviation[start:stop, :-1]
        worst_i, worst_j = np.unravel_index(int(np.argmax(points)), points.shape)
        reports.append(FidelityReport(
            kind=kind, param_grid=tuple(params.tolist()), xi_grid=tuple(xis.tolist()),
            closed_form=closed[start:stop, :-1], oracle=oracle[start:stop, :-1],
            max_abs_deviation=float(points[worst_i, worst_j]),
            worst_point=(float(params[worst_i]), float(xis[worst_j])),
            average_deviation=float(np.max(deviation[start:stop, -1])),
        ))
    return reports


# Per format: the text before each field and after the row (ending in the row
# separator), the end of the last row, then the text of a missing xi and of
# another missing value.
_CSV_LAYOUT = (("", ",", ",", ",", ",", ",", "\n"), "\n", XI_AVERAGE, "")
_JSON_LAYOUT = (('{"kind": "', '", "param": ', *(f', "{name}": ' for name in ResultRow._fields[2:]),
                 "},\n"), "}\n", f'"{XI_AVERAGE}"', "null")
_kind_text = operator.attrgetter("_value_")  # NoiseKind.value, without its property call


def _field_text(missing: str, value) -> str:
    """The field encoder: a number in shortest round-trip form, None as ``missing``."""
    return missing if value is None else repr(float(value))


def _field_texts(column, missing: str) -> list[str]:
    """``_field_text`` of each value, in line, as suits the value columns, which rarely repeat."""
    return [missing if value is None else repr(float(value)) for value in column]


def _row_columns(rows: list, xi_missing: str, missing: str):
    """The column source of a row list: ``columns(start, stop)``, the six column texts of those rows.

    Each block is flattened once and read by column with a stride; the grid
    columns, param and xi, are encoded once per distinct value.
    """
    def columns(start: int, stop: int) -> list:
        fields = list(chain.from_iterable(rows[start:stop]))
        return [map(_kind_text, fields[0::6]),
                _grid_values(fields[1::6], functools.partial(_field_text, missing)),
                _grid_values(fields[2::6], functools.partial(_field_text, xi_missing)),
                *(_field_texts(fields[column::6], missing) for column in range(3, 6))]

    return columns


def _table_columns(table: SweepTable, xi_missing: str, missing: str):
    """The column source of a table: ``columns(start, stop)``, made from the grid structure.

    The kind, and each value column the sweep did not compute, are one text
    for every row. Each parameter's text is made once per block and repeated
    over its ``width`` rows; the xi texts are made once and tiled; each
    computed value column is one ``repr`` per value.
    """
    values = [None if a is None else a.reshape(-1) for a in (table.closed_form, table.oracle, table.deviation)]
    xis = [*map(repr, table.xi_grid.tolist()), *[xi_missing] * table.include_state_average]
    width = len(xis)

    def columns(start: int, stop: int) -> list:
        first, skip = divmod(start, width)
        end = skip + stop - start
        params = map(repr, table.param_grid[first : -(-stop // width)].tolist())
        return [table.kind.value,
                islice(chain.from_iterable(map(repeat, params, repeat(width))), skip, end),
                islice(chain.from_iterable(repeat(xis)), skip, end),
                *(missing if v is None else map(repr, v[start:stop].tolist()) for v in values)]

    return columns


def _numbers(source) -> Iterator:
    """A table's arrays, or a row list's fields after the kind as one array a block, less None and zeros."""
    if isinstance(source, SweepTable):
        arrays = (source.param_grid, source.xi_grid, source.closed_form, source.oracle, source.deviation)
        yield from (a for a in arrays if a is not None)
        return
    for start in range(0, len(source), FORMAT_BLOCK_ROWS):
        fields = list(chain.from_iterable(source[start : start + FORMAT_BLOCK_ROWS]))
        del fields[:: len(ResultRow._fields)]  # the kinds
        yield np.fromiter(filter(None, fields), float)  # zeros are finite


def _blocks(columns, total: int, pieces, last_end: str) -> Iterator[str]:
    """Rows 0 to ``total`` in one fixed template, ``FORMAT_BLOCK_ROWS`` at a time, as made.

    A column given as one text, the same on every row, joins the template
    text around it, so that it costs no item per row.
    """
    for start in range(0, total, FORMAT_BLOCK_ROWS):
        stop = min(start + FORMAT_BLOCK_ROWS, total)
        interleaved, between = [], pieces[0]
        for texts, after in zip(columns(start, stop), pieces[1:]):
            if isinstance(texts, str):
                between += texts + after
            else:
                interleaved += (repeat(between), texts)
                between = after
        text = "".join(chain.from_iterable(zip(*interleaved, repeat(between))))
        yield text if stop < total else text[: -len(pieces[-1])] + last_end


def format_rows(source, fmt: str, manifest: RunManifest | None = None) -> str:
    """The text ``export`` writes, as a string: ``export`` into an ``io.StringIO``."""
    buffer = io.StringIO()
    export(source, fmt, buffer, manifest)
    return buffer.getvalue()


def export(source, fmt: str, path, manifest: RunManifest | None = None) -> None:
    """Write a ``SweepTable`` or a list of rows to ``path`` as csv or json, all or nothing.

    CSV is rows only; JSON wraps them with the run manifest less its
    ``duration_ms``, so identical sweeps re-export byte-identically in both.
    JSON has no NaN or infinity: one check reads every number of the source,
    a table's arrays or a row list's fields a block at a time, before the
    first write, and one anywhere raises ValueError. Both formats share one
    field template, made ``FORMAT_BLOCK_ROWS`` rows at a time from a table's
    arrays and grid structure, or from a row list read by one flatten per
    block, to the same bytes for the same rows.

    ``path`` is a path or an open text stream, such as ``sys.stdout`` or an
    ``io.StringIO``. A new or regular file is written beside itself, then
    renamed into place; a device or pipe, such as /dev/null, and a stream are
    written through. Each block of text is written as it is made, so an
    export holds one block of text at a time.
    """
    table = isinstance(source, SweepTable)
    if not table:
        source = list(source)
    if not len(source):
        raise ValueError("rows must be nonempty")
    if fmt == "csv":
        head, layout, tail = CSV_HEADER + "\n", _CSV_LAYOUT, ""
    elif fmt == "json":
        if not all(np.isfinite(numbers).all() for numbers in _numbers(source)):
            raise ValueError("Out of range float values are not JSON compliant")  # json's own message
        # Wall time differs run to run; the stderr manifest keeps it.
        fields = {} if manifest is None else manifest.to_dict()
        fields.pop("duration_ms", None)
        head = f'{{"manifest": {json.dumps(fields or None, allow_nan=False)}, "rows": [\n'
        layout, tail = _JSON_LAYOUT, "]}\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    pieces, last_end, xi_missing, missing = layout
    columns = (_table_columns if table else _row_columns)(source, xi_missing, missing)
    parts = chain((head,), _blocks(columns, len(source), pieces, last_end), (tail,))
    if hasattr(path, "writelines"):
        path.writelines(parts)
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
        return
    temp = f"{target}.{os.urandom(8).hex()}.tmp"
    handle = open(temp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.writelines(parts)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _optional_float(value) -> float | None:
    return None if value is None or value == "" else _finite_float(value)


def _xi_value(value) -> float | None:
    return None if value == XI_AVERAGE else _finite_float(value)


_KINDS = {kind.value: kind for kind in NoiseKind}


def _decode_row(fields) -> ResultRow:
    """A row from its six fields in CSV column order, as CSV text or JSON values."""
    if len(fields) != 6:
        raise ValueError(f"expected 6 fields, got {len(fields)}")
    kind, param, xi, closed_form, oracle, deviation = fields
    # An unknown or unhashable kind raises the enum's own ValueError.
    return ResultRow(NoiseKind(kind), _finite_float(param), _xi_value(xi),
                     _optional_float(closed_form), _optional_float(oracle), _optional_float(deviation))


def _decode_rows(records, path, label: str, first: int) -> list[ResultRow]:
    """``_decode_row`` over ``records``; the first bad one raises, numbered from ``first``."""
    rows: list[ResultRow] = []
    # The row being decoded when an error is raised is the next one: len(rows).
    try:
        for fields in records:
            rows.append(_decode_row(fields))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r} in row {first + len(rows)}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {label} {first + len(rows)}: malformed row: {exc}") from None
    return rows


def _grid_values(column, convert) -> list:
    """``convert`` of each value of a column that repeats, as a sweep's param and xi do.

    One call per distinct value; ``export`` encodes a row list's grid
    columns with it and ``load_rows`` decodes them. Zeros and None are falsy and are
    converted value by value: 0.0 and -0.0 are one key with two results.
    """
    known = {value: convert(value) for value in set(column) if value}
    return [known[value] if value else convert(value) for value in column]


def _value_column(column) -> list[float | None]:
    """``_optional_float`` of each value, with one finite check for the column."""
    values = [None if value is None or value == "" else float(value) for value in column]
    # A sum of finite floats is finite unless it overflows, which only sends
    # the block to the row decoder.
    if not math.isfinite(sum(filter(None, values))):
        raise ValueError("non-finite value")
    return values


def _decode_columns(kinds, params, xis, *values) -> zip:
    """Rows of one block from its six columns, or an error for ``_decode_rows`` to name."""
    return zip(list(map(_KINDS.__getitem__, kinds)), _grid_values(params, _finite_float),
               _grid_values(xis, _xi_value), *map(_value_column, values))


def _csv_columns(lines) -> list[list[str]]:
    """The six columns of CSV lines, by one split of the whole block."""
    if set(map(str.count, lines, repeat(","))) != {5}:
        raise ValueError("a line without six fields")
    fields = ",".join(lines).split(",")
    return [fields[column::6] for column in range(6)]


def _json_columns(rows) -> list[list]:
    return [list(map(operator.itemgetter(name), rows)) for name in ResultRow._fields]


def load_rows(path, fmt: str) -> list[ResultRow]:
    """Read rows back from an exported file; inverse of ``export``.

    A malformed row (a wrong field count, a missing key, a non-numeric or
    non-finite value, an integer too large for a float or an unknown kind)
    raises ValueError naming the file and the CSV line number or the JSON row
    index. A file that is not UTF-8 text, or not JSON, or that holds a JSON
    integer over Python's digit limit, or a JSON document that is not an
    object with a ``rows`` list raises ValueError naming the file.

    Rows are decoded ``FORMAT_BLOCK_ROWS`` at a time, column by column, the
    mirror of ``export`` on a row list: the grid columns once per distinct value, each
    value column in one pass. A block that fails is decoded again row by row,
    which raises the error of its first bad row.
    """
    if fmt == "csv":
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                records = handle.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        if not records or records[0] != CSV_HEADER:
            raise ValueError(f"{path}: missing expected CSV header")
        # Record i is on line i + 1, and record 0 is the header.
        base, label, columns_of = 1, "line", _csv_columns
        fields_of = functools.partial(map, operator.methodcaller("split", ","))
    elif fmt == "json":
        def reject(token):  # json.load takes NaN and Infinity unless told not to
            raise ValueError(f"{token} is not a finite JSON number")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle, parse_constant=reject)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        except ValueError as exc:  # a rejected constant, or an integer over the digit limit
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(document, dict) or not isinstance(document.get("rows"), list):
            raise ValueError(f"{path}: expected a JSON object with a 'rows' list")
        records, base, label, columns_of = document["rows"], 0, "row", _json_columns
        fields_of = functools.partial(map, operator.itemgetter(*ResultRow._fields))
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows: list[ResultRow] = []
    for start in range(base, len(records), FORMAT_BLOCK_ROWS):
        block = records[start : start + FORMAT_BLOCK_ROWS]
        try:
            decoded = _decode_columns(*columns_of(block))
        except (KeyError, TypeError, ValueError, OverflowError):
            # A bad field, which the row decoder names, or a sum that overflows.
            rows += _decode_rows(fields_of(block), path, label, start + base)
        else:
            rows += map(_new_row, decoded)
    return rows
