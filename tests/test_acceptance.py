"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a ``[PASS] criterion N`` line once its assertions clear;
run with ``pytest -s tests/test_acceptance.py`` (or ``-v``) to see them.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from threestage import algebra, channels, fidelity, harness, protocol
from threestage.channels import NoiseKind
from threestage.fidelity import QuadratureSpec
from threestage.harness import SweepMode, SweepSpec

ETA_GRID = np.linspace(0.0, 1.0, 21)          # 0, 0.05, ..., 1
ANGLE_GRID = np.linspace(0.0, 2.0 * np.pi, 33)  # 0, pi/16, ..., 2pi
FULL_QUAD = QuadratureSpec(rotation_points=256, xi_points=1024)


def _passed(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_01_noiseless_round_trip():
    rng = np.random.default_rng(101)
    identity = channels.identity_channel()
    worst = 0.0
    for _ in range(1000):
        xi, theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
        bit = int(rng.integers(2))
        config = protocol.ProtocolConfig(
            xi=xi, alice_angle=theta, bob_angle=phi, channel=identity
        )
        final, _ = protocol.run_protocol(config, bit)
        value = algebra.fidelity(protocol.encode_bit(bit, xi), final)
        worst = max(worst, abs(value - 1.0))
    assert worst < 1e-12, f"noiseless round-trip fidelity off by {worst:.3e}"
    _passed(1, f"noiseless fidelity = 1 for 10^3 random rounds (worst |F-1| = {worst:.2e})")


def test_criterion_02_collective_rotation_pointwise_law():
    rng = np.random.default_rng(102)
    worst_law, worst_period = 0.0, 0.0
    for _ in range(1000):
        noise = rng.uniform(0.0, 2.0 * np.pi)
        xi, theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=3)
        bit = int(rng.integers(2))
        value = fidelity.numeric_fidelity(
            channels.collective_rotation(noise), xi, theta, phi, bit
        )
        worst_law = max(worst_law, abs(value - np.cos(3.0 * noise) ** 2))
        shifted = fidelity.numeric_fidelity(
            channels.collective_rotation(noise + np.pi / 3.0), xi, theta, phi, bit
        )
        worst_period = max(worst_period, abs(shifted - value))
    assert worst_law < 1e-12, f"cos^2(3 Theta) law violated by {worst_law:.3e}"
    assert worst_period < 1e-12, f"pi/3 periodicity violated by {worst_period:.3e}"
    _passed(2, f"CR law and pi/3 period hold pointwise (worst {worst_law:.2e} / {worst_period:.2e})")


def test_criterion_03_damping_formulas_match_oracle_grid_wide():
    kinds = {NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING}
    reports = harness.verify_formulas(
        kinds,
        param_grids={kind: ETA_GRID for kind in kinds},
        xi_grid=ANGLE_GRID,
        quad=FULL_QUAD,
    )
    for report in reports:
        assert report.max_abs_deviation < 1e-6, (
            f"{report.kind.value} closed form deviates from the oracle by "
            f"{report.max_abs_deviation:.3e} at (param, xi) = {report.worst_point}"
        )
    pd_report = next(r for r in reports if r.kind is NoiseKind.PHASE_DAMPING)
    anchor = pd_report.oracle[pd_report.param_grid.index(1.0), pd_report.xi_grid.index(0.0)]
    assert abs(anchor - 0.625) < 1e-9, f"PD(eta=1, xi=0) oracle anchor is {anchor!r}"
    devs = {r.kind.value: r.max_abs_deviation for r in reports}
    _passed(3, f"AD/PD formulas match the 256x256 rotation-averaged oracle (max devs {devs})")


def test_criterion_04_collective_dephasing_binding_and_extremes():
    kind = NoiseKind.COLLECTIVE_DEPHASING
    report = harness.verify_formulas(
        {kind}, param_grids={kind: ANGLE_GRID}, xi_grid=ANGLE_GRID, quad=FULL_QUAD
    )[0]
    assert report.max_abs_deviation < 1e-6, (
        f"CD closed form deviates by {report.max_abs_deviation:.3e} "
        f"at (Phi, xi) = {report.worst_point}"
    )
    assert abs(fidelity.closed_form_fidelity(kind, np.pi, 0.0) - 1.0) < 1e-9
    assert abs(fidelity.closed_form_fidelity(kind, np.pi, np.pi / 4.0)) < 1e-9
    average = fidelity.state_averaged_fidelity(kind, np.pi, FULL_QUAD)
    assert abs(average - 0.5) < 1e-9, f"CD state average at Phi=pi is {average!r}"
    _passed(4, f"CD formula matches the oracle (max dev {report.max_abs_deviation:.2e}); "
               "Phi=pi extremes are 1, 0, average 0.5")


def test_criterion_05_average_fidelity_endpoints_and_quadrature():
    ad, pd = NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING
    assert abs(fidelity.closed_form_average_fidelity(ad, 0.0) - 1.0) < 1e-12
    assert abs(fidelity.closed_form_average_fidelity(pd, 0.0) - 1.0) < 1e-12
    assert abs(fidelity.closed_form_average_fidelity(ad, 1.0) - 0.5) < 1e-9
    assert abs(fidelity.closed_form_average_fidelity(pd, 1.0) - 0.5625) < 1e-9
    cases = [
        (ad, (0.0, 0.3, 0.7, 1.0)),
        (pd, (0.0, 0.3, 0.7, 1.0)),
        (NoiseKind.COLLECTIVE_DEPHASING, (0.0, 1.1, np.pi, 5.0)),
        (NoiseKind.COLLECTIVE_ROTATION, (0.0, 1.1, np.pi, 5.0)),
    ]
    worst = 0.0
    for kind, params in cases:
        for param in params:
            quadrature = fidelity.state_averaged_fidelity(kind, param, FULL_QUAD)
            closed = fidelity.closed_form_average_fidelity(kind, param)
            worst = max(worst, abs(quadrature - closed))
    assert worst < 1e-9, f"xi-quadrature disagrees with closed-form averages by {worst:.3e}"
    _passed(5, f"average-fidelity endpoints and xi-quadrature consistency (worst {worst:.2e})")


def test_criterion_06_phase_damping_dominates_amplitude_damping():
    etas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    pd = fidelity.closed_form_average_fidelity(NoiseKind.PHASE_DAMPING, etas)
    ad = fidelity.closed_form_average_fidelity(NoiseKind.AMPLITUDE_DAMPING, etas)
    gap = np.min(pd - ad)
    assert np.all(pd >= ad), f"dominance fails; most negative gap {gap:.3e}"
    _passed(6, f"PD average fidelity >= AD average fidelity on the 10^-3 grid (min gap {gap:.2e})")


def test_criterion_07_only_collective_rotation_commutes_with_the_secret_rotations():
    thetas = np.linspace(0.0, 2.0 * np.pi, 21)[:, None]
    worst, at_04 = 0.0, {}
    for kind in fidelity.CLOSED_FORM_KINDS:
        params = ETA_GRID if kind.is_probability else np.linspace(0.0, 2.0 * np.pi, 21)
        norm, closed = fidelity.channel_commutator(channels.from_kind(kind, params), thetas)
        worst = max(worst, float(np.max(np.abs(norm - closed))))
        assert np.all(closed[0] == 0.0) and np.all(closed[:, 0] == 0.0), (
            f"{kind.value}: commutator not exactly zero at theta = 0 or zero noise"
        )
        if kind is NoiseKind.COLLECTIVE_ROTATION:
            assert np.all(closed == 0.0), "collective rotation fails to commute"
        else:
            assert np.max(closed) > 0.1, f"{kind.value} commutes with every rotation"
        at_04[kind.value] = fidelity.channel_commutator(channels.from_kind(kind, 0.3), 0.4)[1]
    assert worst < 1e-14, f"commutator closed form deviates from the direct norm by {worst:.3e}"
    table = ", ".join(f"{name} {value:.4f}" for name, value in at_04.items())
    _passed(7, f"channel commutator norms match the closed form on 21x21 grids (worst {worst:.2e}); "
               f"at param 0.3, t = 0.4: {table}")


def test_criterion_08_channel_contracts():
    rng = np.random.default_rng(108)
    constructors = [
        (channels.amplitude_damping, 1.0),
        (channels.phase_damping, 1.0),
        (channels.collective_dephasing, 2.0 * np.pi),
        (channels.collective_rotation, 2.0 * np.pi),
    ]
    worst_defect, worst_trace, worst_eigenvalue = 0.0, 0.0, 0.0
    for constructor, span in constructors:
        for _ in range(1000):
            channel = constructor(rng.uniform(0.0, span))
            worst_defect = max(
                worst_defect, channels.completeness_defect(channel.operators)
            )
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho).real
            out = channels.apply_channel(channel, rho)
            worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
            worst_eigenvalue = min(worst_eigenvalue, float(np.linalg.eigvalsh(out)[0]))
    assert worst_defect < 1e-12, f"completeness defect {worst_defect:.3e}"
    assert worst_trace < 1e-12, f"trace drift {worst_trace:.3e}"
    assert worst_eigenvalue >= -1e-12, f"negative eigenvalue {worst_eigenvalue:.3e}"
    _passed(8, "channel contracts hold for 10^3 random (parameter, state) pairs per kind "
               f"(defect {worst_defect:.2e}, trace {worst_trace:.2e}, eig {worst_eigenvalue:.2e})")


def test_criterion_09_message_mode():
    rng = np.random.default_rng(109)
    noiseless = protocol.ProtocolConfig(
        xi=0.3, alice_angle=1.0, bob_angle=2.0, channel=channels.identity_channel()
    )
    bits = list(rng.integers(0, 2, size=200))
    decoded, qber = protocol.transmit_message(bits, noiseless, seed=1)
    assert decoded == bits and qber == 0.0

    flipping = protocol.ProtocolConfig(
        xi=0.3, alice_angle=1.0, bob_angle=2.0,
        channel=channels.collective_rotation(np.pi / 6.0),
    )
    _, qber_flip = protocol.transmit_message(bits, flipping, seed=1)
    assert qber_flip == 1.0

    damping = protocol.ProtocolConfig(
        xi=0.2, alice_angle=0.9, bob_angle=1.7,
        channel=channels.amplitude_damping(1.0),
    )
    long_bits = list(rng.integers(0, 2, size=10_000))
    _, qber_damp = protocol.transmit_message(long_bits, damping, seed=2)
    sigma = np.sqrt(0.25 / len(long_bits))
    assert abs(qber_damp - 0.5) <= 3.0 * sigma, f"QBER {qber_damp} outside 0.5 +/- {3*sigma}"
    _passed(9, f"message QBER: noiseless 0, CR(pi/6) 1, full damping {qber_damp} in 0.5 +/- 0.015")


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    spec = SweepSpec(
        kind=NoiseKind.PHASE_DAMPING,
        param_grid=tuple(np.linspace(0.0, 1.0, 11)),
        xi_grid=(0.0, np.pi / 4.0),
        include_state_average=True,
        mode=SweepMode.BOTH,
        quadrature=QuadratureSpec(rotation_points=32, xi_points=64),
        seed=12345,
    )
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        rows, manifest = harness.sweep(spec)
        harness.export(rows, "csv", path, manifest)
    assert paths[0].read_bytes() == paths[1].read_bytes(), "repeated sweep is not byte-identical"

    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-m", "threestage", *argv], capture_output=True, text=True
        ).returncode

    assert invoke("run", "--noise", "none", "--bit", "0") == 0
    assert invoke(
        "sweep", "--noise", "pd", "--grid", "0:1:3", "--xi-avg",
        "--out", str(tmp_path / "no_such_dir" / "f.csv"),
    ) == 1
    assert invoke("run", "--noise", "ad", "--param", "2.0") == 2
    assert invoke(
        "verify", "--kinds", "cr", "--tolerance", "1e-30", "--resolution", "16"
    ) == 3
    _passed(10, "byte-identical repeated sweep; exit codes 0/1/2/3 verified end to end")
