"""The benchmark's four workloads: seeded inputs, one pass each, and its checks.

Every workload does the same amount of work for every seed; the seed only
changes the values (noise parameters, angles, bits, grid ranges, order).
Constructing a workload generates its inputs and nothing else, so that is
what ``setup_s`` times. ``prepare`` then computes the reference values the
checks compare against, untimed, before any tracing starts.

Why these workloads:

* ``verify`` is the formula-vs-oracle campaign at its defaults. Oracle
  construction in ``fidelity`` is nearly all of it; the protocol engine and
  export do no work.
* ``sweep`` is closed-form ``--xi-avg`` sweeps over all four kinds exported
  as CSV and JSON and read back: the harness row loop, per-row scalar closed
  forms and file I/O. The oracle runs only in one small ``--mode both`` sweep.
* ``message`` is 10^4 bits under the FIXED stage policy through the CLI plus a
  RESAMPLE slice through ``protocol.transmit_message``: the per-round engine
  in ``protocol``, ``channels`` and ``algebra``. RESAMPLE rebuilds the channel
  on every crossing, so a shortcut that only holds under FIXED shows here.
* ``run`` is a closed loop of 2000 single-round ``run`` calls from one client:
  per-call latency, dominated by argument parsing and one protocol round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from threestage import cli, harness, protocol
from threestage.channels import NoiseKind, from_kind
from threestage.fidelity import closed_form_average_fidelity, closed_form_fidelity

KINDS = ("ad", "pd", "cd", "cr")
TWO_PI = 2.0 * math.pi
EXACT = 1e-12


def strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _noise_param(rng, kind: str) -> float:
    if kind in ("ad", "pd"):
        return float(rng.uniform(0.0, 1.0))
    if kind == "none":
        return 0.0
    return float(rng.uniform(0.0, TWO_PI))


def _protocol_argv(command: str, kind: str, param, xi, alice, bob) -> list[str]:
    return [command, "--noise", kind, "--param", repr(param), "--xi", repr(xi),
            "--alice-angle", repr(alice), "--bob-angle", repr(bob)]


class Pass:
    """Times operations, one at a time, and records which ones failed."""

    def __init__(self, recorder=None, first_op: int = 0, speed=None):
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.failed_ops: set[int] = set()
        self.reasons: list[str] = []
        self.recorder = recorder
        self.first_op = first_op
        self.speed = speed

    def op(self, fn, *args):
        """Run one operation timed; None if it raised (and it counts as failed).

        With a host-speed sampler, kernel time spent inside the operation is
        taken off its latency.
        """
        if self.recorder is not None:
            self.recorder.op = self.first_op + len(self.latencies)
        speed = self.speed
        if speed is not None:
            speed.maybe_sample()
        error = result = None
        with speed.inside() if speed is not None else contextlib.nullcontext():
            sampled = speed.kernel_s if speed is not None else 0.0
            start = perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # an operation that raises is a failed operation
                error = exc
            end = perf_counter()
            sampled = speed.kernel_s - sampled if speed is not None else 0.0
        self.latencies.append(end - start - sampled)
        self.intervals.append((start, end))
        if error is not None:
            self.fail(f"{getattr(fn, '__name__', fn)} raised {error!r}")
        return result

    def cli(self, argv: list[str]):
        """One ``cli.main`` call with stdout captured: (exit code, stdout) or None."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.op(cli.main, argv)
        if code is None:
            return None
        if not self.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue()[-200:]!r}"):
            return None
        return code, out.getvalue()

    def cli_json(self, argv: list[str]):
        """A ``cli.main`` call whose stdout must be one strict JSON document."""
        result = self.cli(argv)
        if result is None:
            return None
        try:
            return strict_json(result[1])
        except ValueError as exc:
            self.fail(f"{argv[0]} stdout is not strict JSON: {exc}")
            return None

    def check(self, ok: bool, reason: str) -> bool:
        """Mark the latest operation failed unless ``ok``."""
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed_ops.add(len(self.latencies) - 1)
        if len(self.reasons) < 10:
            self.reasons.append(reason)


class Verify:
    """``threestage verify`` at its defaults; the seed only orders ``--kinds``."""

    name = "verify"
    unit = "grid points"
    # Default grids: ad/pd over 21 etas, cd/cr over 33 angles, 33 xi values each.
    ORACLE_BUILDS = 21 + 21 + 33 + 33
    units = ORACLE_BUILDS * 33

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(len(KINDS))
        self.argv = ["verify", "--kinds", ",".join(KINDS[i] for i in order)]

    def inputs(self):
        return self.argv

    def expected_counts(self) -> dict[str, int]:
        return {"fidelity.oracle_build.calls": self.ORACLE_BUILDS}

    def prepare(self) -> None:
        pass

    def warm_up(self, run: Pass) -> None:
        run.cli(["verify", "--kinds", "cr", "--resolution", "8", "--xi-points", "8"])

    def run_pass(self, run: Pass) -> None:
        doc = run.cli_json(self.argv)
        if doc is None:
            return
        reports = doc["reports"]
        run.check(doc["passed"] is True, "verify did not pass")
        run.check(sorted(r["kind"] for r in reports) == sorted(KINDS),
                  f"verify reported kinds {[r['kind'] for r in reports]}")
        worst = max(r["max_abs_deviation"] for r in reports)
        run.check(all(r["passed"] for r in reports) and worst <= 1e-6,
                  f"verify max deviation {worst!r} above 1e-6")


class Sweep:
    """Closed-form sweeps over every kind, exported as CSV and JSON, read back."""

    name = "sweep"
    unit = "rows"
    PARAMS, XIS = 200, 33
    ROWS = PARAMS * (XIS + 1)
    BOTH_PARAMS, BOTH_XIS = 6, 5
    BOTH_ROWS = BOTH_PARAMS * (BOTH_XIS + 1)
    # Rows written and read back: each kind once as CSV and once as JSON, plus
    # the small --mode both sweep.
    units = 2 * len(KINDS) * ROWS + BOTH_ROWS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.sweeps = []
        for kind in KINDS:
            if kind in ("ad", "pd"):
                lo, hi = rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)
            else:
                lo, hi = rng.uniform(0.0, 0.5), rng.uniform(TWO_PI - 0.5, TWO_PI)
            xi_lo, xi_hi = rng.uniform(0.0, 0.5), rng.uniform(TWO_PI - 0.5, TWO_PI)
            self.sweeps.append((kind, float(lo), float(hi), float(xi_lo), float(xi_hi),
                                int(rng.integers(0, 2**31))))
        kind = KINDS[int(rng.integers(len(KINDS)))]
        span = 1.0 if kind in ("ad", "pd") else TWO_PI
        self.both = (kind, float(rng.uniform(0.0, 0.1 * span)), float(rng.uniform(0.9 * span, span)),
                     float(rng.uniform(0.0, 0.5)), float(rng.uniform(3.0, TWO_PI)),
                     int(rng.integers(0, 2**31)))

    def inputs(self):
        return [self.sweeps, self.both]

    def expected_counts(self) -> dict[str, int]:
        return {"harness.rows": self.units}

    def _argv(self, spec, params: int, xis: int, fmt: str, path: Path, *extra: str) -> list[str]:
        kind, lo, hi, xi_lo, xi_hi, seed = spec
        return ["sweep", "--noise", kind, "--grid", f"{lo!r}:{hi!r}:{params}",
                "--xi-grid", f"{xi_lo!r}:{xi_hi!r}:{xis}", "--xi-avg", *extra,
                "--seed", str(seed), "--format", fmt, "--out", str(path)]

    def prepare(self) -> None:
        """Expected rows of each closed-form sweep, from the vectorised closed forms."""
        self.expected = []
        for kind, lo, hi, xi_lo, xi_hi, _ in self.sweeps:
            params = np.linspace(lo, hi, self.PARAMS)
            xis = np.linspace(xi_lo, xi_hi, self.XIS)
            noise = NoiseKind(kind)
            closed = np.empty((self.PARAMS, self.XIS + 1))
            closed[:, :-1] = closed_form_fidelity(noise, params[:, None], xis[None, :])
            closed[:, -1] = closed_form_average_fidelity(noise, params)
            self.expected.append((params, xis, closed))
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warm_up(self, run: Pass) -> None:
        path = self.workdir / "warm.csv"
        if run.cli(self._argv(self.sweeps[0], 2, 2, "csv", path)) is not None:
            run.op(harness.load_rows, path, "csv")

    def _check_rows(self, run: Pass, rows, expected, kind: str) -> None:
        params, xis, closed = expected
        if not run.check(len(rows) == self.ROWS, f"{kind}: {len(rows)} rows, expected {self.ROWS}"):
            return
        got_kind = {row.kind.value for row in rows}
        got_param = np.array([row.param for row in rows]).reshape(self.PARAMS, self.XIS + 1)
        got_xi = [row.xi for row in rows]
        got_closed = np.array([row.closed_form for row in rows], dtype=float)
        want_xi = [float(x) for x in xis] + [None]
        run.check(got_kind == {kind}, f"{kind}: rows carry kinds {got_kind}")
        run.check(bool(np.all(got_param == params[:, None])), f"{kind}: param column differs from the grid")
        run.check(got_xi == want_xi * self.PARAMS, f"{kind}: xi column differs from the grid")
        error = float(np.max(np.abs(got_closed - closed.ravel())))
        run.check(error <= EXACT, f"{kind}: closed_form off the vectorised closed form by {error!r}")
        run.check(all(row.oracle is None and row.deviation is None for row in rows),
                  f"{kind}: closed_form sweep wrote oracle values")

    def run_pass(self, run: Pass) -> None:
        for spec, expected in zip(self.sweeps, self.expected):
            kind = spec[0]
            csv_path = self.workdir / f"{kind}.csv"
            json_path = self.workdir / f"{kind}.json"
            again_path = self.workdir / f"{kind}.again.csv"
            for path in (csv_path, json_path, again_path):
                path.unlink(missing_ok=True)
            for fmt, path in (("csv", csv_path), ("json", json_path)):
                result = run.cli(self._argv(spec, self.PARAMS, self.XIS, fmt, path))
                if result is not None:
                    run.check(result[1] == "", f"{kind}: sweep --out wrote to stdout")
            csv_rows = run.op(harness.load_rows, csv_path, "csv")
            json_rows = run.op(harness.load_rows, json_path, "json")
            if csv_rows is None or json_rows is None:
                continue
            try:
                strict_json(json_path.read_text(encoding="utf-8"))
            except ValueError as exc:
                run.fail(f"{kind}: JSON export is not strict JSON: {exc}")
            run.check(csv_rows == json_rows, f"{kind}: CSV and JSON read back different rows")
            self._check_rows(run, csv_rows, expected, kind)
            run.op(harness.export, csv_rows, "csv", again_path)
            run.check(again_path.read_bytes() == csv_path.read_bytes(),
                      f"{kind}: re-exported CSV is not byte-identical")

        kind = self.both[0]
        path = self.workdir / "both.csv"
        path.unlink(missing_ok=True)
        argv = self._argv(self.both, self.BOTH_PARAMS, self.BOTH_XIS, "csv", path,
                          "--mode", "both", "--rotation-points", "16", "--xi-points", "64")
        if run.cli(argv) is None:
            return
        rows = run.op(harness.load_rows, path, "csv")
        if rows is None:
            return
        run.check(len(rows) == self.BOTH_ROWS, f"both: {len(rows)} rows, expected {self.BOTH_ROWS}")
        deviations = [row.deviation for row in rows]
        run.check(None not in deviations and max(deviations) <= 1e-6,
                  f"both: {kind} deviation above 1e-6: {max(d or 0.0 for d in deviations)!r}")


def _error_bound(sent: list[int], round_fidelities: list[float]) -> tuple[float, float]:
    """Mean and 5-sigma band of the error count, one Bernoulli(1 - F) per bit.

    One extra count allows for the discreteness of the count when the
    expected number of errors is far below one.
    """
    flips = [1.0 - f for f in round_fidelities]
    mean = sum(flips)
    sigma = math.sqrt(sum(p * (1.0 - p) for p in flips))
    return mean, 5.0 * sigma + 1.0


class Message:
    """10^4 bits under FIXED through ``cli message``, plus a RESAMPLE slice."""

    name = "message"
    unit = "bits"
    CHUNK = 250
    FIXED_PER_KIND = 10  # 4 kinds x 10 messages x 250 bits = 10^4 bits
    units = CHUNK * len(KINDS) * (FIXED_PER_KIND + 1)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)

        def draw(kind: str) -> dict:
            return {
                "kind": kind,
                "param": _noise_param(rng, kind),
                "xi": float(rng.uniform(0.0, TWO_PI)),
                "alice": float(rng.uniform(0.0, TWO_PI)),
                "bob": float(rng.uniform(0.0, TWO_PI)),
                "bits": [int(b) for b in rng.integers(0, 2, self.CHUNK)],
                "seed": int(rng.integers(0, 2**31)),
                "resample_seed": int(rng.integers(0, 2**31)),
            }

        fixed = [draw(kind) for kind in KINDS for _ in range(self.FIXED_PER_KIND)]
        self.fixed = [fixed[i] for i in rng.permutation(len(fixed))]
        self.resample = [draw(kind) for kind in KINDS]

    def inputs(self):
        return [self.fixed, self.resample]

    def expected_counts(self) -> dict[str, int]:
        return {"protocol.run_protocol.calls": self.units}

    @staticmethod
    def _config(message: dict, policy) -> protocol.ProtocolConfig:
        return protocol.ProtocolConfig(
            xi=message["xi"], alice_angle=message["alice"], bob_angle=message["bob"],
            channel=from_kind(NoiseKind(message["kind"]), message["param"]),
            stage_policy=policy, resample_seed=message["resample_seed"],
        )

    @staticmethod
    def _round_fidelity(config, bit: int, index=None) -> float:
        final, _ = protocol.run_protocol(config, bit, message_index=index)
        return protocol.decode_bit(final, config.xi)[bit]

    def prepare(self) -> None:
        """Per-message error-count bands from per-round fidelities."""
        self.fixed_argv, self.fixed_bounds = [], []
        for m in self.fixed:
            argv = _protocol_argv("message", m["kind"], m["param"], m["xi"], m["alice"], m["bob"])
            self.fixed_argv.append(argv + ["--bits", "".join(map(str, m["bits"])), "--seed", str(m["seed"])])
            config = self._config(m, protocol.StagePolicy.FIXED)
            per_bit = [self._round_fidelity(config, 0), self._round_fidelity(config, 1)]
            self.fixed_bounds.append(_error_bound(m["bits"], [per_bit[b] for b in m["bits"]]))
        self.resample_configs, self.resample_bounds = [], []
        for m in self.resample:
            config = self._config(m, protocol.StagePolicy.RESAMPLE)
            fids = [self._round_fidelity(config, b, i) for i, b in enumerate(m["bits"])]
            self.resample_configs.append(config)
            self.resample_bounds.append(_error_bound(m["bits"], fids))

    def warm_up(self, run: Pass) -> None:
        run.cli(self.fixed_argv[0][:-4] + ["--bits", "01", "--seed", "0"])

    @staticmethod
    def _check_decoded(run: Pass, sent, decoded, qber, bound, label: str) -> None:
        if not run.check(len(decoded) == len(sent), f"{label}: decoded {len(decoded)} of {len(sent)} bits"):
            return
        run.check(set(decoded) <= {0, 1}, f"{label}: decoded values outside 0/1")
        errors = sum(1 for a, b in zip(sent, decoded) if a != b)
        run.check(qber == errors / len(sent), f"{label}: qber {qber!r} but {errors} flipped bits")
        mean, band = bound
        run.check(abs(errors - mean) <= band,
                  f"{label}: {errors} errors, expected {mean:.2f} +- {band:.2f}")

    def run_pass(self, run: Pass) -> None:
        for m, argv, bound in zip(self.fixed, self.fixed_argv, self.fixed_bounds):
            doc = run.cli_json(argv)
            if doc is not None:
                decoded = [int(c) for c in doc["decoded"] if c in "01"]
                if run.check(len(decoded) == len(doc["decoded"]), "message: decoded is not a 0/1 string"):
                    self._check_decoded(run, m["bits"], decoded, doc["qber"], bound, f"fixed {m['kind']}")
        for m, config, bound in zip(self.resample, self.resample_configs, self.resample_bounds):
            result = run.op(protocol.transmit_message, m["bits"], config, m["seed"])
            if result is not None:
                self._check_decoded(run, m["bits"], result[0], result[1], bound, f"resample {m['kind']}")


class Run:
    """A closed loop of single-round ``cli run`` calls, one client."""

    name = "run"
    unit = "rounds"
    KINDS = KINDS + ("none",)
    PER_KIND = 400
    units = PER_KIND * len(KINDS)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        rounds = []
        for kind in self.KINDS:
            for _ in range(self.PER_KIND):
                param = _noise_param(rng, kind)
                angles = [float(a) for a in rng.uniform(0.0, TWO_PI, 3)]
                rounds.append((kind, param, *angles, int(rng.integers(0, 2))))
        self.rounds = [rounds[i] for i in rng.permutation(len(rounds))]

    def inputs(self):
        return self.rounds

    def expected_counts(self) -> dict[str, int]:
        return {"protocol.run_protocol.calls": self.units, "cli.main.calls": self.units}

    def prepare(self) -> None:
        self.argv = [_protocol_argv("run", kind, param, xi, a, b) + ["--bit", str(bit)]
                     for kind, param, xi, a, b, bit in self.rounds]

    def warm_up(self, run: Pass) -> None:
        for argv in self.argv[:20]:
            run.cli(argv)

    def run_pass(self, run: Pass) -> None:
        for (kind, param, *_, bit), argv in zip(self.rounds, self.argv):
            doc = run.cli_json(argv)
            if doc is None:
                continue
            p0, p1, value = doc["p0"], doc["p1"], doc["fidelity"]
            run.check(abs(p0 + p1 - 1.0) <= EXACT, f"run {kind}: p0 + p1 = {p0 + p1!r}")
            run.check(value == (p0, p1)[bit] and 0.0 <= value <= 1.0,
                      f"run {kind}: fidelity {value!r} is not p{bit} in [0, 1]")
            if kind == "cr":
                law = math.cos(3.0 * param) ** 2
                run.check(abs(value - law) <= EXACT, f"run cr: fidelity {value!r}, cos^2(3 Theta) = {law!r}")
            elif kind == "none":
                run.check(abs(value - 1.0) <= EXACT, f"run none: fidelity {value!r}, expected 1")


WORKLOADS = {cls.name: cls for cls in (Verify, Sweep, Message, Run)}
