"""Command-line front end.

Subcommands: run (one protocol round), sweep (grid evaluation to csv/json),
verify (closed form vs oracle campaign), commutators (a channel's commutator
with a secret rotation), message (bit-sequence transmission). All angles are
radians unless --degrees is given. Payloads go to stdout as JSON or CSV; diagnostics
and the run manifest go to stderr. Exit codes: 0 success, 1 I/O failure,
2 usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
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
    """Bad flag value found by the CLI itself; the message names the flag and prints as is."""


def _radians(values, args):
    """An angle flag's float, or a grid's tuple of floats, in radians: unchanged unless --degrees."""
    if not args.degrees:
        return values
    radians = np.deg2rad(values).tolist()
    return radians if type(radians) is float else tuple(radians)


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
    if not math.isfinite(hi - lo):
        raise UsageError(f"{flag}: lo, hi and hi - lo must be finite, got {text!r}")
    grid = np.linspace(lo, hi, count).tolist()
    # linspace adds lo to a zero offset, which turns a lo of -0.0 into +0.0.
    grid[0] = math.copysign(grid[0], lo)
    return tuple(grid)


_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _print_json(document, file=None) -> None:
    """One strict JSON document per line: NaN and infinities raise ValueError."""
    print(_STRICT_JSON.encode(document), file=file)


def _emit_manifest(manifest: RunManifest) -> None:
    _print_json({"manifest": manifest.to_dict()}, file=sys.stderr)


def _status(passed: bool) -> str:
    text = "PASS" if passed else "FAIL"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        return f"\x1b[{'32' if passed else '31'}m{text}\x1b[0m"
    return text


def _channel(args) -> channels.QuantumChannel:
    """The --noise channel at --param, which --degrees reads in degrees when it is an angle."""
    kind = NoiseKind(args.noise)
    return channels.from_kind(kind, args.param if kind.is_probability else _radians(args.param, args))


def _protocol_config(args) -> protocol.ProtocolConfig:
    channel = _channel(args)
    return protocol.ProtocolConfig(
        xi=_radians(args.xi, args),
        alice_angle=_radians(args.alice_angle, args),
        bob_angle=_radians(args.bob_angle, args),
        channel=channel,
    )


def _cmd_run(args, start: float) -> int:
    config = _protocol_config(args)
    final, _ = protocol.run_protocol(config, args.bit)
    p0, p1 = protocol._decode(final, config.xi)
    _print_json({"fidelity": (p0, p1)[args.bit], "p0": p0, "p1": p1})
    _emit_manifest(run_manifest(start))
    return EXIT_OK


def _cmd_sweep(args, start: float) -> int:
    kind = NoiseKind(args.noise)
    if args.grid is not None:
        grid = _parse_grid(args.grid, "--grid")
        if not kind.is_probability:
            grid = _radians(grid, args)
    else:
        grid = tuple(np.linspace(*kind.natural_range, 101).tolist())
    xi_grid: tuple[float, ...] = ()
    if args.xi_grid is not None:
        xi_grid = _radians(_parse_grid(args.xi_grid, "--xi-grid"), args)
    spec = SweepSpec(
        kind=kind,
        param_grid=grid,
        xi_grid=xi_grid,
        include_state_average=args.xi_avg,
        mode=SweepMode(args.mode),
        quadrature=QuadratureSpec(rotation_points=args.rotation_points, xi_points=args.xi_points),
        seed=args.seed,
    )
    table, manifest = harness.sweep(spec)
    harness.export(table, args.format, sys.stdout if args.out == "-" else args.out, manifest)
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
    quad = QuadratureSpec(rotation_points=args.resolution, xi_points=args.xi_points)
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
    channel = _channel(args)  # first, so a bad --param is reported before a bad --theta
    theta = _radians(args.theta, args)
    norm, closed_form = fidelity.channel_commutator(channel, theta)
    _print_json({"noise": args.noise, "param": channel.parameter, "theta": theta, "norm": norm,
                 "closed_form": closed_form, "residual": abs(norm - closed_form)})
    _emit_manifest(run_manifest(start))
    return EXIT_OK


def _cmd_message(args, start: float) -> int:
    if len(args.bits) > MAX_MESSAGE_BITS:
        raise UsageError(f"--bits: {len(args.bits)} bits, over the cap of {MAX_MESSAGE_BITS}")
    # Any character but 0 and 1 has a UTF-8 byte other than 48 or 49, which
    # the subtraction wraps above 1; surrogatepass encodes a lone surrogate
    # (an undecodable argv byte) instead of raising.
    digits = np.frombuffer(args.bits.encode("utf-8", "surrogatepass"), dtype=np.uint8) - ord("0")
    if not args.bits or np.maximum.reduce(digits) > 1:
        raise UsageError(f"--bits: must be a nonempty string of 0s and 1s, got {args.bits!r}")
    if args.seed < 0:
        raise UsageError(f"--seed: must be non-negative, got {args.seed}")
    config = _protocol_config(args)
    decoded, qber = protocol._transmit(digits.view(np.int8), config, args.seed)
    # decoded holds 0s and 1s, so adding ord("0") gives their ASCII digits.
    _print_json({"decoded": (decoded + ord("0")).tobytes().decode("ascii"), "qber": qber})
    _emit_manifest(run_manifest(start, seed=args.seed))
    return EXIT_OK


_PROTOCOL_FLAGS = (
    ("--noise", dict(required=True, choices=[kind.value for kind in NoiseKind])),
    ("--param", dict(type=float, default=0.0,
                     help="noise parameter: eta in [0,1] for ad/pd, angle Phi/Theta for cd/cr")),
    ("--xi", dict(type=float, default=0.0, help="encoding basis angle")),
    ("--alice-angle", dict(type=float, default=0.0)),
    ("--bob-angle", dict(type=float, default=0.0)),
)
# The words the library's errors use for the protocol flags' values: each
# kind's parameter symbol, and the ProtocolConfig fields.
_PARAM_FIELDS = {symbol: f"--param: {symbol}"
                 for symbol in (kind.parameter_symbol or "parameter" for kind in NoiseKind)}
_PROTOCOL_FIELDS = {
    "xi": "--xi:", "alice_angle": "--alice-angle:", "bob_angle": "--bob-angle:", **_PARAM_FIELDS,
}
_DEGREES = ("--degrees", dict(action="store_true"))

# Each subcommand once, in help order: its help, its handler, each flag's
# add_argument keywords, and the text that names a flag in place of each word
# a library error uses for its value. The argparse parsers and _PLAIN are
# built from it, and main names the flags in a library error from it.
_COMMANDS = {
    "run": ("run one protocol round", _cmd_run, _PROTOCOL_FLAGS + (
        ("--bit", dict(type=int, choices=(0, 1), default=0)),
        ("--degrees", dict(action="store_true", help="interpret angles as degrees")),
    ), _PROTOCOL_FIELDS),
    "sweep": ("evaluate fidelity over a grid", _cmd_sweep, (
        ("--noise", dict(required=True, choices=[k.value for k in fidelity.CLOSED_FORM_KINDS])),
        ("--grid", dict(help="parameter grid, 'lo:hi:n' or comma list "
                             "(default: 101 points over the natural range)")),
        ("--xi-grid", dict(help="encoding angles, 'lo:hi:n' or comma list")),
        ("--xi-avg", dict(action="store_true", help="add a state-averaged row per parameter")),
        ("--mode", dict(choices=[m.value for m in SweepMode], default=SweepMode.CLOSED_FORM.value)),
        ("--out", dict(required=True, help="output file path, '-' for stdout")),
        ("--format", dict(choices=("csv", "json"), default="csv")),
        ("--seed", dict(type=int, default=0)),
        ("--rotation-points", dict(type=int, default=_QUADRATURE.rotation_points)),
        ("--xi-points", dict(type=int, default=_QUADRATURE.xi_points)),
        _DEGREES,
    ), {
        "param_grid": "--grid", "xi_grid": "--xi-grid", "include_state_average": "--xi-avg",
        "rotation_points": "--rotation-points", "xi_points": "--xi-points",
    }),
    "verify": ("closed form vs oracle campaign", _cmd_verify, (
        ("--kinds", dict(default="ad,pd,cd,cr", help="comma-separated subset of ad,pd,cd,cr")),
        ("--tolerance", dict(type=float, default=1e-12)),
        ("--resolution", dict(type=int, default=_QUADRATURE.rotation_points,
                              help="rotation-average quadrature points per axis")),
        ("--xi-points", dict(type=int, default=_QUADRATURE.xi_points,
                             help="state-average quadrature points")),
    ), {"rotation_points": "--resolution", "xi_points": "--xi-points"}),
    "commutators": ("a channel's commutator with a secret rotation", _cmd_commutators,
                    _PROTOCOL_FLAGS[:2] + (
        ("--theta", dict(type=float, required=True, help="secret rotation angle")),
        _DEGREES,
    ), {**_PARAM_FIELDS, "theta": "--theta:"}),
    "message": ("transmit a bit string", _cmd_message, _PROTOCOL_FLAGS + (
        ("--bits", dict(required=True, help="message as a 0/1 string")),
        ("--seed", dict(type=int, default=0)),
        _DEGREES,
    ), _PROTOCOL_FIELDS),
}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built from ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="threestage", description="Three-stage protocol simulator and fidelity analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_text, handler, flags, _) in _COMMANDS.items():
        command = commands[name] = subparsers.add_parser(name, help=help_text)
        for flag, keywords in flags:
            command.add_argument(flag, **keywords)
        command.set_defaults(handler=handler)
    return parser, commands


# The parser main hands an argv that is not plain, built on the first such argv.
_parsers = functools.cache(build_parser)


def _plain_lookup(name: str, handler, flags) -> tuple[dict, set, dict]:
    """Per option string (dest, type, choices, switch), the required dests, and the
    namespace of no flags in argparse's order: command, each flag's default, handler."""
    table, required, defaults = {}, set(), {"command": name}
    for flag, keywords in flags:
        dest, switch = flag[2:].replace("-", "_"), keywords.get("action") == "store_true"
        table[flag] = (dest, keywords.get("type"), keywords.get("choices"), switch)
        if keywords.get("required"):
            required.add(dest)
        defaults[dest] = keywords.get("default", False if switch else None)
    return table, required, {**defaults, "handler": handler}


_PLAIN = {name: _plain_lookup(name, *command[1:3]) for name, command in _COMMANDS.items()}

# The dash-leading words argparse reads as values on every supported Python:
# "-" and the negative numbers of its own pattern, since no option string
# here looks like a negative number.
_DASH_VALUE = re.compile(r"-|-\d+|-\d*\.\d+")


def _parse_plain(name: str, tokens: list[str]):
    """``build_parser().parse_args([name, *tokens])`` for plain argv, else None.

    Plain argv is exact option strings of ``_PLAIN[name]``: a store flag
    takes the next token through its type and choices, and that token may
    start with ``-`` only as ``-`` or a negative number (``_DASH_VALUE``);
    a switch takes none; a repeated flag keeps its last value;
    every required flag is present. Anything else gives None, for
    argparse to parse with its own usage and errors. ``TestParseOnce`` pins
    what the pass relies on: a store flag takes one value, typed by ``int``,
    ``float`` or nothing, and no typed flag has a string default.
    """
    (table, required, defaults), parsed, words = _PLAIN[name], {}, iter(tokens)
    for word in words:
        if word not in table:
            return None
        dest, kind, choices, switch = table[word]
        if switch:
            parsed[dest] = True
            continue
        value = next(words, None)
        if value is None or value.startswith("-") and not _DASH_VALUE.fullmatch(value):
            return None  # no value left, or a word argparse may read as an option
        try:
            value = value if kind is None else kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        parsed[dest] = value
    if not required.issubset(parsed):
        return None  # argparse reports the missing flag
    return argparse.Namespace(**{**defaults, **parsed})


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with plain argv parsed in one pass.

    An argv whose first word names a subcommand and whose later words are
    plain (``_parse_plain``) builds no parser. Every other argv, and every
    error and usage line, goes to the top-level parser's own ``parse_args``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in _PLAIN else None
    return _parsers().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    start = time.perf_counter()
    try:
        return args.handler(args, start)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UsageError as exc:  # names its flag already, and may repeat user text
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a library check: each whole word for a value becomes its flag
        fields = _COMMANDS[args.command][3]  # in one pass: "eta" is in "--theta:"
        words = rf"\b(?:{'|'.join(fields)})\b"
        print(f"error: {re.sub(words, lambda word: fields[word[0]], str(exc))}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())
