"""Parameter sweeps, formula-vs-oracle verification, and dataset export.

Sweep output is a flat list of rows over the cartesian grid of noise
parameters and encoding angles, in deterministic param-major order, plus an
optional state-averaged row per parameter. CSV re-exports of identical rows
are byte-identical; floats are written in their shortest round-trip form.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import channels, fidelity
from ._version import __version__
from .channels import NoiseKind
from .fidelity import FidelityReport, QuadratureSpec, RotationAveragedOracle

# Serialized stand-in for the state-averaged row's xi field.
XI_AVERAGE = "avg"

MAX_SWEEP_ROWS = 10**6

# format_rows writes this many rows at a time, so that the text of one
# field per row exists for one block only.
FORMAT_BLOCK_ROWS = 2**14


class SweepMode(Enum):
    CLOSED_FORM = "closed_form"
    ORACLE = "oracle"
    BOTH = "both"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    ``xi_grid`` may be empty when ``include_state_average`` is set, in which
    case each parameter contributes only its state-averaged row.
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
        rows = len(self.param_grid) * (len(self.xi_grid) + int(self.include_state_average))
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"param_grid, xi_grid: {rows} rows, over the cap of {MAX_SWEEP_ROWS}")
        _check_grid("param_grid", self.param_grid)
        try:
            channels.check_parameter(self.kind, self.param_grid)
        except ValueError as exc:
            raise ValueError(f"param_grid: {exc}") from None
        if self.xi_grid:
            _check_grid("xi_grid", self.xi_grid)
        elif not self.include_state_average:
            raise ValueError("xi_grid: empty grid requires include_state_average")


def _check_grid(name: str, grid) -> None:
    if len(grid) == 0:
        raise ValueError(f"{name}: grid must be nonempty")
    values = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: grid values must be finite")
    if np.any(np.diff(values) <= 0.0):
        raise ValueError(f"{name}: grid must be strictly increasing")


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


def _evaluate_grid(kind, params, xis, average: bool, closed: bool, quad):
    """Closed form and oracle over the params x xis grid.

    Returns (closed, oracle), each of shape (len(params), len(xis) + average)
    with the state average in the last column when ``average`` is set. The
    closed form, when ``closed``, takes one broadcast call per grid. The
    oracle, when ``quad`` is given, is one build on the stacked channel
    ``channels.from_kind(kind, params)``: its rotation average is the one
    channel-free tensor M, and each parameter's lift N enters only through
    Q = sum N N N M (see ``RotationAveragedOracle``), contracted
    ``fidelity.ORACLE_BLOCK`` parameters at a time; ``fidelity_at`` gives the
    (len(params), len(xis)) block and ``state_average`` the last column. An
    array not asked for is None.
    """
    params = np.asarray(params, dtype=float)
    xis = np.asarray(xis, dtype=float)
    shape = (len(params), len(xis) + int(average))
    closed_values = oracle_values = None
    if closed:
        closed_values = np.empty(shape)
        closed_values[:, : len(xis)] = fidelity.closed_form_fidelity(
            kind, params[:, None], xis[None, :]
        )
        if average:
            closed_values[:, -1] = fidelity.closed_form_average_fidelity(kind, params)
    if quad is not None:
        oracle_values = np.empty(shape)
        oracle = RotationAveragedOracle(channels.from_kind(kind, params), quad)
        oracle_values[:, : len(xis)] = oracle.fidelity_at(xis)
        if average:
            oracle_values[:, -1] = oracle.state_average()
    return closed_values, oracle_values


def sweep(spec: SweepSpec) -> tuple[list[ResultRow], RunManifest]:
    """Evaluate the grid and return rows in param-major order plus a manifest.

    Within each parameter block the xi rows come first, then the optional
    state-averaged row.
    """
    start = time.perf_counter()
    quad = None if spec.mode is SweepMode.CLOSED_FORM else spec.quadrature
    closed, oracle = _evaluate_grid(
        spec.kind, spec.param_grid, spec.xi_grid, spec.include_state_average,
        closed=spec.mode is not SweepMode.ORACLE, quad=quad,
    )
    deviation = None if closed is None or oracle is None else np.abs(closed - oracle)
    xis = [float(xi) for xi in spec.xi_grid] + [None] * spec.include_state_average
    params = np.repeat(np.asarray(spec.param_grid, dtype=float), len(xis)).tolist()
    values = (repeat(None) if a is None else a.ravel().tolist() for a in (closed, oracle, deviation))
    # Built column by column, so that no row costs a Python-level call.
    columns = zip(repeat(spec.kind), params, xis * len(spec.param_grid), *values)
    worst = None if deviation is None else float(deviation.max())
    return list(map(ResultRow._make, columns)), run_manifest(start, spec.seed, quad, worst)


def default_verification_grids(kind: NoiseKind) -> tuple[np.ndarray, np.ndarray]:
    """Grids the formula-vs-oracle check runs on when none are given.

    Parameters cover the kind's natural range, a probability in steps of 0.05
    and an angle in steps of pi/16; the encoding angle covers [0, 2pi] in
    steps of pi/16.
    """
    lo, hi = kind.natural_range
    params = np.linspace(lo, hi, 21 if kind.is_probability else 33)
    return params, np.linspace(0.0, 2.0 * np.pi, 33)


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
    ``quad.xi_points`` cells. A kind with no closed form raises ValueError.
    """
    kinds = list(kinds)
    unknown = [kind for kind in kinds if kind not in fidelity.CLOSED_FORM_KINDS]
    if unknown:
        raise ValueError(f"kinds: {unknown[0]!r} has no closed form to verify")
    reports = []
    for kind in (known for known in fidelity.CLOSED_FORM_KINDS if known in kinds):
        params, default_xis = default_verification_grids(kind)
        if param_grids is not None and kind in param_grids:
            params = np.asarray(param_grids[kind], dtype=float)
        xis = default_xis if xi_grid is None else np.asarray(xi_grid, dtype=float)
        closed, oracle = _evaluate_grid(kind, params, xis, True, closed=True, quad=quad)
        average_deviation = float(np.max(np.abs(closed[:, -1] - oracle[:, -1])))
        closed, oracle = closed[:, :-1], oracle[:, :-1]
        deviation = np.abs(closed - oracle)
        worst_i, worst_j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        reports.append(FidelityReport(
            kind=kind, param_grid=tuple(params.tolist()), xi_grid=tuple(xis.tolist()),
            closed_form=closed, oracle=oracle,
            max_abs_deviation=float(deviation[worst_i, worst_j]),
            worst_point=(float(params[worst_i]), float(xis[worst_j])),
            average_deviation=average_deviation,
        ))
    return reports


# Per format: the text before each field and after the row (ending in the row
# separator), then the text of a missing xi and of another missing value.
_CSV_LAYOUT = (("", ",", ",", ",", ",", ",", "\n"), XI_AVERAGE, "")
_JSON_LAYOUT = (('{"kind": "', '", "param": ', *(f', "{name}": ' for name in ResultRow._fields[2:]),
                 "},\n"), f'"{XI_AVERAGE}"', "null")
_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # repr of the non-finite floats
_kind_text = operator.attrgetter("_value_")  # NoiseKind.value, without its property call


def _field_texts(column, missing: str) -> list[str]:
    """The field encoder: numbers in shortest round-trip form, None as ``missing``."""
    return [missing if value is None else repr(float(value)) for value in column]


def _format_block(rows, pieces, xi_missing: str, missing: str, finite: bool) -> str:
    """``rows`` in one fixed template; ``finite`` rejects NaN and infinity as json does."""
    kinds, params, xis, *optional = zip(*rows)
    columns = [map(_kind_text, kinds), _field_texts(params, missing), _field_texts(xis, xi_missing),
               *(_field_texts(values, missing) for values in optional)]
    if finite and not all(map(_NON_FINITE.isdisjoint, columns[1:])):
        raise ValueError("Out of range float values are not JSON compliant")
    interleaved = [repeat(pieces[0])]
    for texts, after in zip(columns, pieces[1:]):
        interleaved += (texts, repeat(after))
    return "".join(chain.from_iterable(zip(*interleaved)))


def format_rows(rows, fmt: str, manifest: RunManifest | None = None) -> str:
    """The text ``export`` writes: rows as csv or json.

    CSV is rows only; JSON wraps them with the run manifest less its
    ``duration_ms``, so identical sweeps re-export byte-identically in both.
    Both formats share one field encoder and are built ``FORMAT_BLOCK_ROWS``
    rows at a time.
    """
    return "".join(_text_parts(rows, fmt, manifest))


def _text_parts(rows, fmt: str, manifest: RunManifest | None) -> list[str]:
    """``format_rows`` in parts: the head, one per ``FORMAT_BLOCK_ROWS`` rows, the tail."""
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be nonempty")
    if fmt == "csv":
        head, layout, tail = CSV_HEADER + "\n", _CSV_LAYOUT, ""
    elif fmt == "json":
        # Wall time differs run to run; the stderr manifest keeps it.
        fields = {} if manifest is None else manifest.to_dict()
        fields.pop("duration_ms", None)
        head = f'{{"manifest": {json.dumps(fields or None, allow_nan=False)}, "rows": [\n'
        layout, tail = _JSON_LAYOUT, "]}\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    blocks = [
        _format_block(rows[start : start + FORMAT_BLOCK_ROWS], *layout, fmt == "json")
        for start in range(0, len(rows), FORMAT_BLOCK_ROWS)
    ]
    if fmt == "json":
        blocks[-1] = blocks[-1][:-2] + "\n"  # no comma after the last row
    return [head, *blocks, tail]


def export(rows, fmt: str, path, manifest: RunManifest | None = None) -> None:
    """Write ``format_rows(rows, fmt, manifest)`` to ``path``, all or nothing.

    A new or regular file is written beside itself, then renamed into place; a
    device or pipe, such as /dev/null, is written through. The text is made in
    full before the first write and written a block at a time.
    """
    parts = _text_parts(rows, fmt, manifest)
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


def _optional_float(value) -> float | None:
    return None if value is None or value == "" else float(value)


_KINDS = {kind.value: kind for kind in NoiseKind}


def _decode_row(kind, param, xi, closed_form, oracle, deviation) -> ResultRow:
    """A row from its fields in CSV column order, as CSV text or JSON values."""
    try:
        kind = _KINDS[kind]
    except (KeyError, TypeError):
        kind = NoiseKind(kind)  # raises the enum's own ValueError, as the parse did
    xi = None if xi == XI_AVERAGE else float(xi)
    return ResultRow(kind, float(param), xi, _optional_float(closed_form),
                     _optional_float(oracle), _optional_float(deviation))


def load_rows(path, fmt: str) -> list[ResultRow]:
    """Read rows back from an exported file; inverse of ``export``.

    A malformed row (a wrong field count, a missing key, a non-numeric value
    or an unknown kind) raises ValueError naming the file and the CSV line
    number or the JSON row index; so does a JSON document that is not an
    object with a ``rows`` list.
    """
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{path}: missing expected CSV header")
        records, label, first = map(str.split, lines[1:], repeat(",")), "line", 2
    elif fmt == "json":
        def reject(token):  # json.load takes NaN and Infinity unless told not to
            raise ValueError(f"{path}: {token} is not a finite JSON number")
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle, parse_constant=reject)
        if not isinstance(document, dict) or not isinstance(document.get("rows"), list):
            raise ValueError(f"{path}: expected a JSON object with a 'rows' list")
        columns = operator.itemgetter(*ResultRow._fields)
        records, label, first = map(columns, document["rows"]), "row", 0
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    rows: list[ResultRow] = []
    # The row being decoded when an error is raised is the next one: len(rows).
    try:
        for fields in records:
            rows.append(_decode_row(*fields))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r} in row {len(rows)}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {label} {first + len(rows)}: malformed row: {exc}") from None
    return rows
