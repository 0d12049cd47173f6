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
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import channels, fidelity
from ._version import __version__
from .channels import NoiseKind
from .fidelity import FidelityReport, QuadratureSpec, RotationAveragedOracle

# Serialized stand-in for the state-averaged row's xi field.
XI_AVERAGE = "avg"

CSV_HEADER = "kind,param,xi,closed_form,oracle,deviation"
_CSV_COLUMNS = CSV_HEADER.split(",")

MAX_SWEEP_ROWS = 10**6


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


@dataclass(frozen=True)
class ResultRow:
    """One sweep grid point; ``xi`` is None on state-averaged rows."""

    kind: NoiseKind
    param: float
    xi: float | None
    closed_form: float | None
    oracle: float | None
    deviation: float | None


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
        return asdict(self)


def _make_row(kind, param, xi, closed, oracle) -> ResultRow:
    deviation = None
    if closed is not None and oracle is not None:
        deviation = abs(closed - oracle)
    return ResultRow(
        kind=kind,
        param=float(param),
        xi=None if xi is None else float(xi),
        closed_form=closed,
        oracle=oracle,
        deviation=deviation,
    )


def run_manifest(
    start: float,
    seed: int | None = None,
    quad: QuadratureSpec | None = None,
    max_abs_deviation: float | None = None,
) -> RunManifest:
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
    closed form, when ``closed``, takes one broadcast call per grid; the
    oracle, when ``quad`` is given, one build per parameter. An array not
    asked for is None.
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
        for i, param in enumerate(params):
            oracle = RotationAveragedOracle(channels.from_kind(kind, param), quad)
            oracle_values[i, : len(xis)] = oracle.fidelity_at(xis)
            if average:
                oracle_values[i, -1] = oracle.state_average()
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
    xi_column = list(spec.xi_grid) + [None] * spec.include_state_average
    missing = [[None] * len(xi_column)] * len(spec.param_grid)
    closed = missing if closed is None else closed.tolist()
    oracle = missing if oracle is None else oracle.tolist()
    rows = [
        _make_row(spec.kind, param, xi, closed_value, oracle_value)
        for param, closed_row, oracle_row in zip(spec.param_grid, closed, oracle)
        for xi, closed_value, oracle_value in zip(xi_column, closed_row, oracle_row)
    ]
    deviations = [row.deviation for row in rows if row.deviation is not None]
    return rows, run_manifest(start, spec.seed, quad, max(deviations) if deviations else None)


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
        worst_flat = int(np.argmax(deviation))
        worst_i, worst_j = np.unravel_index(worst_flat, deviation.shape)
        reports.append(
            FidelityReport(
                kind=kind,
                param_grid=tuple(float(p) for p in params),
                xi_grid=tuple(float(x) for x in xis),
                closed_form=closed,
                oracle=oracle,
                max_abs_deviation=float(deviation[worst_i, worst_j]),
                worst_point=(float(params[worst_i]), float(xis[worst_j])),
                average_deviation=average_deviation,
            )
        )
    return reports


def _encode_columns(rows) -> list[list]:
    """The rows' fields as JSON values, a list per column; ``_decode_row`` inverts a row."""
    return [
        [row.kind.value for row in rows],
        [row.param for row in rows],
        [XI_AVERAGE if row.xi is None else row.xi for row in rows],
        [row.closed_form for row in rows],
        [row.oracle for row in rows],
        [row.deviation for row in rows],
    ]


def _csv_texts(column) -> list[str]:
    """One column's JSON values as CSV fields, numbers in shortest round-trip form."""
    return ["" if v is None else v if isinstance(v, str) else repr(float(v)) for v in column]


def format_rows(rows, fmt: str, manifest: RunManifest | None = None) -> str:
    """The text ``export`` writes: rows as csv or json.

    CSV is rows only; JSON wraps them with the run manifest less its
    ``duration_ms``, so identical sweeps re-export byte-identically in both.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be nonempty")
    columns = _encode_columns(rows)
    if fmt == "csv":
        # Column by column, so that no field costs a call or a container.
        lines = map(",".join, zip(*map(_csv_texts, columns)))
        return "\n".join([CSV_HEADER, *lines]) + "\n"
    if fmt != "json":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    # Wall time differs run to run; the stderr manifest keeps it.
    fields = {} if manifest is None else manifest.to_dict()
    fields.pop("duration_ms", None)
    document = {
        "manifest": fields or None,
        "rows": [dict(zip(_CSV_COLUMNS, values)) for values in zip(*columns)],
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def export(rows, fmt: str, path, manifest: RunManifest | None = None) -> None:
    """Write ``format_rows(rows, fmt, manifest)`` to ``path``, all or nothing.

    A new or regular file is written beside itself, then renamed into place; a
    device or pipe, such as /dev/null, is written through.
    """
    payload = format_rows(rows, fmt, manifest)
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        return
    temp = f"{target}.{os.urandom(8).hex()}.tmp"
    handle = open(temp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(payload)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _optional_float(value) -> float | None:
    return None if value is None or value == "" else float(value)


def _decode_row(kind, param, xi, closed_form, oracle, deviation) -> ResultRow:
    """A row from its fields in CSV column order, as CSV text or JSON values."""
    return ResultRow(
        kind=NoiseKind(kind),
        param=float(param),
        xi=None if xi == XI_AVERAGE else float(xi),
        closed_form=_optional_float(closed_form),
        oracle=_optional_float(oracle),
        deviation=_optional_float(deviation),
    )


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
        records, label, first = (line.split(",") for line in lines[1:]), "line", 2
    elif fmt == "json":
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or not isinstance(document.get("rows"), list):
            raise ValueError(f"{path}: expected a JSON object with a 'rows' list")
        columns = operator.itemgetter(*_CSV_COLUMNS)
        records, label, first = (columns(item) for item in document["rows"]), "row", 0
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
