"""Command-line front end.

Subcommands: run (one protocol round), sweep (grid evaluation to csv/json),
verify (closed form vs oracle campaign), commutators (damping-operator
diagnostics), message (bit-sequence transmission). All angles are radians
unless --degrees is given. Payloads go to stdout as JSON or CSV; diagnostics
and the run manifest go to stderr. Exit codes: 0 success, 1 I/O failure,
2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import channels, fidelity, harness, protocol
from ._version import __version__
from .channels import NoiseKind
from .fidelity import QuadratureSpec
from .harness import RunManifest, SweepMode, SweepSpec, run_manifest

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

_QUADRATURE = QuadratureSpec()

MAX_MESSAGE_BITS = 10**6
# verify names its worst point only above this deviation; below it the
# argmax picks out rounding noise.
WORST_POINT_FLOOR = 1e-13


class UsageError(ValueError):
    """Bad flag value; the message names the offending flag."""


def _usage(exc: ValueError, flags: dict[str, str]) -> UsageError:
    """``exc`` as a usage error, each library field it names replaced by its flag."""
    message = str(exc)
    for field, flag in flags.items():
        message = message.replace(field, flag)
    return UsageError(message)


def _angle(value: float, args, flag: str) -> float:
    if not np.isfinite(value):
        raise UsageError(f"{flag}: must be finite, got {value!r}")
    return float(np.deg2rad(value)) if args.degrees else float(value)


def _angle_grid(grid: tuple[float, ...], args, flag: str) -> tuple[float, ...]:
    """``_angle`` of every grid value, as one array operation."""
    values = np.asarray(grid, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise UsageError(f"{flag}: must be finite, got {float(bad[0])!r}")
    return tuple((np.deg2rad(values) if args.degrees else values).tolist())


def _channel_from_args(args) -> channels.QuantumChannel:
    kind = NoiseKind(args.noise)
    param = args.param if kind.is_probability else _angle(args.param, args, "--param")
    try:
        return channels.from_kind(kind, param)
    except ValueError as exc:
        raise UsageError(f"--param: {exc}") from exc


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    try:
        if ":" not in text:
            return tuple(map(float, text.split(",")))
        lo_raw, hi_raw, count_raw = text.split(":")
        lo, hi, count = float(lo_raw), float(hi_raw), int(count_raw)
    except ValueError:
        raise UsageError(
            f"{flag}: expected 'lo:hi:n' or comma-separated numbers, got {text!r}"
        ) from None
    if not 1 <= count <= harness.MAX_SWEEP_ROWS:
        raise UsageError(f"{flag}: n must be in [1, {harness.MAX_SWEEP_ROWS}], got {count}")
    return tuple(np.linspace(lo, hi, count).tolist())


def _print_json(document, file=None) -> None:
    """One strict JSON document per line: NaN and infinities raise ValueError."""
    print(json.dumps(document, allow_nan=False), file=file)


def _emit_manifest(manifest: RunManifest) -> None:
    _print_json({"manifest": manifest.to_dict()}, file=sys.stderr)


def _matrix_json(matrix) -> list:
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in np.asarray(matrix, dtype=complex)
    ]


def _status(passed: bool) -> str:
    text = "PASS" if passed else "FAIL"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        return f"\x1b[{'32' if passed else '31'}m{text}\x1b[0m"
    return text


def _protocol_config(args) -> protocol.ProtocolConfig:
    return protocol.ProtocolConfig(
        xi=_angle(args.xi, args, "--xi"),
        alice_angle=_angle(args.alice_angle, args, "--alice-angle"),
        bob_angle=_angle(args.bob_angle, args, "--bob-angle"),
        channel=_channel_from_args(args),
    )


def _cmd_run(args, start: float) -> int:
    config = _protocol_config(args)
    final, _ = protocol.run_protocol(config, args.bit)
    p0, p1 = protocol.decode_bit(final, config.xi)
    value = p0 if args.bit == 0 else p1
    _print_json({"fidelity": value, "p0": p0, "p1": p1})
    _emit_manifest(run_manifest(start))
    return EXIT_OK


def _cmd_sweep(args, start: float) -> int:
    kind = NoiseKind(args.noise)
    if args.grid is not None:
        grid = _parse_grid(args.grid, "--grid")
        if not kind.is_probability and args.degrees:
            grid = tuple(np.deg2rad(grid).tolist())
    else:
        grid = tuple(np.linspace(*kind.natural_range, 101).tolist())
    xi_grid: tuple[float, ...] = ()
    if args.xi_grid is not None:
        xi_grid = _angle_grid(_parse_grid(args.xi_grid, "--xi-grid"), args, "--xi-grid")
    if not xi_grid and not args.xi_avg:
        raise UsageError("--xi-grid: required unless --xi-avg is given")
    try:
        spec = SweepSpec(
            kind=kind,
            param_grid=grid,
            xi_grid=xi_grid,
            include_state_average=args.xi_avg,
            mode=SweepMode(args.mode),
            quadrature=QuadratureSpec(
                rotation_points=args.rotation_points, xi_points=args.xi_points
            ),
            seed=args.seed,
        )
    except ValueError as exc:
        raise _usage(exc, {
            "param_grid": "--grid",
            "xi_grid": "--xi-grid",
            "rotation_points": "--rotation-points",
            "xi_points": "--xi-points",
        }) from exc
    rows, manifest = harness.sweep(spec)
    if args.out == "-":
        sys.stdout.write(harness.format_rows(rows, args.format, manifest))
    else:
        harness.export(rows, args.format, args.out, manifest)
    _emit_manifest(manifest)
    return EXIT_OK


def _cmd_verify(args, start: float) -> int:
    if not np.isfinite(args.tolerance) or args.tolerance < 0.0:
        raise UsageError(
            f"--tolerance: must be finite and non-negative, got {args.tolerance!r}"
        )
    known = {kind.value: kind for kind in fidelity.CLOSED_FORM_KINDS}
    kinds = []
    for token in args.kinds.split(","):
        token = token.strip()
        if token not in known:
            raise UsageError(f"--kinds: {token!r} is not one of {', '.join(known)}")
        kinds.append(known[token])
    try:
        quad = QuadratureSpec(rotation_points=args.resolution, xi_points=args.xi_points)
    except ValueError as exc:
        raise _usage(exc, {"rotation_points": "--resolution", "xi_points": "--xi-points"}) from exc
    reports = harness.verify_formulas(kinds, quad=quad)
    entries = []
    all_passed = True
    for report in reports:
        passed = max(report.max_abs_deviation, report.average_deviation) <= args.tolerance
        all_passed = all_passed and passed
        worst_param, worst_xi = (
            (None, None) if report.max_abs_deviation <= WORST_POINT_FLOOR else report.worst_point
        )
        entries.append(
            {
                "kind": report.kind.value,
                "max_abs_deviation": report.max_abs_deviation,
                "worst_param": worst_param,
                "worst_xi": worst_xi,
                "max_abs_average_deviation": report.average_deviation,
                "passed": passed,
            }
        )
        where = (
            f"below {WORST_POINT_FLOOR:g}" if worst_param is None
            else f"at (param={worst_param:.6g}, xi={worst_xi:.6g})"
        )
        print(
            f"{report.kind.value}: max deviation {report.max_abs_deviation:.3e} {where}, "
            f"state average {report.average_deviation:.3e}, "
            f"tolerance {args.tolerance:.3e}: {_status(passed)}",
            file=sys.stderr,
        )
    _print_json({"tolerance": args.tolerance, "passed": all_passed, "reports": entries})
    worst = max((r.max_abs_deviation for r in reports), default=None)
    _emit_manifest(run_manifest(start, quad=quad, max_abs_deviation=worst))
    return EXIT_OK if all_passed else EXIT_VERIFY


def _cmd_commutators(args, start: float) -> int:
    try:
        channels.check_parameter(NoiseKind.AMPLITUDE_DAMPING, args.eta)
    except ValueError as exc:
        raise UsageError(f"--eta: {exc}") from exc
    theta = _angle(args.theta, args, "--theta")
    entries = []
    for index in (0, 1):
        computed = fidelity.commutator_defect(index, args.eta, theta)
        expected = fidelity.commutator_closed_form(index, args.eta, theta)
        entries.append(
            {
                "kraus_index": index,
                "commutator": _matrix_json(computed),
                "closed_form_residual": float(np.max(np.abs(computed - expected))),
            }
        )
    _print_json({"eta": args.eta, "theta": theta, "commutators": entries})
    _emit_manifest(run_manifest(start))
    return EXIT_OK


def _cmd_message(args, start: float) -> int:
    if len(args.bits) > MAX_MESSAGE_BITS:
        raise UsageError(f"--bits: {len(args.bits)} bits, over the cap of {MAX_MESSAGE_BITS}")
    if not args.bits or any(c not in "01" for c in args.bits):
        raise UsageError(f"--bits: must be a nonempty string of 0s and 1s, got {args.bits!r}")
    if args.seed < 0:
        raise UsageError(f"--seed: must be non-negative, got {args.seed}")
    config = _protocol_config(args)
    bits = [int(c) for c in args.bits]
    decoded, qber = protocol.transmit_message(bits, config, args.seed)
    _print_json({"decoded": "".join(str(b) for b in decoded), "qber": qber})
    _emit_manifest(run_manifest(start, seed=args.seed))
    return EXIT_OK


def _add_protocol_flags(sub) -> None:
    sub.add_argument("--noise", required=True, choices=[kind.value for kind in NoiseKind])
    sub.add_argument("--param", type=float, default=0.0,
                     help="noise parameter: eta in [0,1] for ad/pd, angle Phi/Theta for cd/cr")
    sub.add_argument("--xi", type=float, default=0.0, help="encoding basis angle")
    sub.add_argument("--alice-angle", type=float, default=0.0)
    sub.add_argument("--bob-angle", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threestage",
        description="Three-stage protocol simulator and fidelity analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one protocol round")
    _add_protocol_flags(run)
    run.add_argument("--bit", type=int, choices=(0, 1), default=0)
    run.add_argument("--degrees", action="store_true", help="interpret angles as degrees")
    run.set_defaults(handler=_cmd_run)

    sweep = subparsers.add_parser("sweep", help="evaluate fidelity over a grid")
    sweep.add_argument("--noise", required=True,
                       choices=[kind.value for kind in fidelity.CLOSED_FORM_KINDS])
    sweep.add_argument("--grid", help="parameter grid, 'lo:hi:n' or comma list "
                                      "(default: 101 points over the natural range)")
    sweep.add_argument("--xi-grid", help="encoding angles, 'lo:hi:n' or comma list")
    sweep.add_argument("--xi-avg", action="store_true",
                       help="add a state-averaged row per parameter")
    sweep.add_argument("--mode", choices=[m.value for m in SweepMode],
                       default=SweepMode.CLOSED_FORM.value)
    sweep.add_argument("--out", required=True, help="output file path, '-' for stdout")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--rotation-points", type=int, default=_QUADRATURE.rotation_points)
    sweep.add_argument("--xi-points", type=int, default=_QUADRATURE.xi_points)
    sweep.add_argument("--degrees", action="store_true")
    sweep.set_defaults(handler=_cmd_sweep)

    verify = subparsers.add_parser("verify", help="closed form vs oracle campaign")
    verify.add_argument("--kinds", default="ad,pd,cd,cr",
                        help="comma-separated subset of ad,pd,cd,cr")
    verify.add_argument("--tolerance", type=float, default=1e-6)
    verify.add_argument("--resolution", type=int, default=_QUADRATURE.rotation_points,
                        help="rotation-average quadrature points per axis")
    verify.add_argument("--xi-points", type=int, default=_QUADRATURE.xi_points,
                        help="state-average quadrature points")
    verify.set_defaults(handler=_cmd_verify)

    comm = subparsers.add_parser("commutators",
                                 help="damping Kraus operators vs rotation commutators")
    comm.add_argument("--eta", type=float, required=True)
    comm.add_argument("--theta", type=float, required=True)
    comm.add_argument("--degrees", action="store_true")
    comm.set_defaults(handler=_cmd_commutators)

    message = subparsers.add_parser("message", help="transmit a bit string")
    _add_protocol_flags(message)
    message.add_argument("--bits", required=True, help="message as a 0/1 string")
    message.add_argument("--seed", type=int, default=0)
    message.add_argument("--degrees", action="store_true")
    message.set_defaults(handler=_cmd_message)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and reused after."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    start = time.perf_counter()
    try:
        return args.handler(args, start)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())
