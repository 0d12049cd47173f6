"""Fidelity analysis: closed-form laws, numeric oracle, and averages.

For each noise model there is a closed-form expression for the round-trip
fidelity of the three-stage protocol, a function of the noise parameter and
the encoding angle xi only. The closed forms presume averaging over the two
secret rotation angles, uniformly on [0, 2pi)^2, and over the two bit values;
``numeric_fidelity`` and ``rotation_averaged_fidelity`` rebuild that quantity
from the Kraus evolution itself, with no reference to the formulas, and serve
as the independent check that keeps the formulas honest.

Collective rotation is special: every operator in the pipeline is a rotation,
rotations commute, and the whole round collapses to a single rotation by three
times the noise angle. Its fidelity cos^2(3 Theta) therefore holds pointwise,
for every choice of angles, with no averaging needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import algebra, channels, protocol
from .channels import NoiseKind, QuantumChannel

# Closed forms and averaged oracles are clamped to [0, 1]; a pre-clamp
# excursion beyond this tolerance indicates a genuine defect, not rounding.
CLAMP_ATOL = 1e-9

# The computed Kraus/rotation commutators must match their closed forms
# essentially exactly.
COMMUTATOR_ATOL = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint-rule resolutions for the two averaging integrals.

    Midpoint sums on a uniform grid over one period integrate low-degree
    trigonometric polynomials exactly, so modest resolutions are already
    spectrally accurate; the defaults leave a wide margin.
    ``rotation_points`` is used per rotation axis, ``xi_points`` for the
    average over the encoding angle.
    """

    rotation_points: int = 256
    xi_points: int = 1024

    def __post_init__(self):
        if self.rotation_points < 8:
            raise ValueError(f"rotation_points must be >= 8, got {self.rotation_points}")
        if self.xi_points < 8:
            raise ValueError(f"xi_points must be >= 8, got {self.xi_points}")


@dataclass(frozen=True)
class FidelityReport:
    """Closed form vs oracle on one grid, with the worst point singled out.

    ``average_deviation`` is the largest gap between the closed-form state
    average and the oracle's ``state_average`` over the parameter grid.
    """

    kind: NoiseKind
    param_grid: tuple[float, ...]
    xi_grid: tuple[float, ...]
    closed_form: np.ndarray
    oracle: np.ndarray
    max_abs_deviation: float
    worst_point: tuple[float, float]
    average_deviation: float


def midpoint_grid(n: int, period: float = 2.0 * np.pi) -> np.ndarray:
    """Midpoint abscissae of ``n`` uniform cells covering [0, period)."""
    return (np.arange(n) + 0.5) * (period / n)


def _check_formula_kind(kind: NoiseKind) -> None:
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(
            f"no closed form for kind {kind!r}; use parameter 0 of any noisy kind "
            "for the noiseless case"
        )


def _assert_and_clamp(values):
    values = np.asarray(values, dtype=float)
    worst = max(float(np.max(values, initial=1.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if worst > CLAMP_ATOL:
        raise ValueError(f"fidelity leaves [0, 1] by {worst:.3e}, beyond {CLAMP_ATOL:g}")
    out = np.clip(values, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _fidelity_amplitude_damping(eta, xi):
    root = np.sqrt(1.0 - eta)
    return (
        -eta * (eta**2 - 3.0 * (root + 2.0) * eta + 7.0 * root + 9.0)
        + 4.0 * (root + 3.0)
        - (eta - 1.0) * (eta * (eta + 3.0 * root - 5.0) - 4.0 * root + 4.0) * np.cos(4.0 * xi)
    ) / 16.0


def _fidelity_phase_damping(eta, xi):
    root = np.sqrt(1.0 - eta)
    return (
        (-root * eta + 3.0 * eta + 4.0 * root - 4.0) * np.sin(2.0 * xi) ** 2
        - 3.0 * eta
        + 8.0
    ) / 8.0


def _fidelity_collective_dephasing(phi, xi):
    return (
        6.0 * np.cos(2.0 * xi) ** 2 * np.cos(2.0 * phi)
        + np.sin(2.0 * xi) ** 2 * (15.0 * np.cos(phi) + np.cos(3.0 * phi))
        + 5.0 * np.cos(4.0 * xi)
        + 21.0
    ) / 32.0


def _fidelity_collective_rotation(theta, xi):
    return np.cos(3.0 * theta) ** 2 + 0.0 * np.asarray(xi, dtype=float)


_CLOSED_FORMS = {
    NoiseKind.AMPLITUDE_DAMPING: _fidelity_amplitude_damping,
    NoiseKind.PHASE_DAMPING: _fidelity_phase_damping,
    NoiseKind.COLLECTIVE_DEPHASING: _fidelity_collective_dephasing,
    NoiseKind.COLLECTIVE_ROTATION: _fidelity_collective_rotation,
}

# The kinds with a closed form: every kind but the noiseless one.
CLOSED_FORM_KINDS = tuple(_CLOSED_FORMS)


def closed_form_fidelity(kind: NoiseKind, param, xi):
    """Closed-form round-trip fidelity at encoding angle ``xi``.

    ``param`` is eta for AD/PD, Phi for CD, Theta for CR; CR ignores ``xi``.
    Scalars broadcast against arrays; outputs are clamped to [0, 1].
    """
    _check_formula_kind(kind)
    channels.check_parameter(kind, param)
    param = np.asarray(param, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    return _assert_and_clamp(_CLOSED_FORMS[kind](param, xi))


def closed_form_average_fidelity(kind: NoiseKind, param):
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi)."""
    _check_formula_kind(kind)
    channels.check_parameter(kind, param)
    param = np.asarray(param, dtype=float)
    if kind is NoiseKind.AMPLITUDE_DAMPING:
        root = np.sqrt(1.0 - param)
        value = (
            4.0 * (root + 3.0)
            - param * (param**2 - 3.0 * (root + 2.0) * param + 7.0 * root + 9.0)
        ) / 16.0
    elif kind is NoiseKind.PHASE_DAMPING:
        value = (np.sqrt(1.0 - param) + 3.0) * (4.0 - param) / 16.0
    elif kind is NoiseKind.COLLECTIVE_DEPHASING:
        value = (
            15.0 * np.cos(param) + 6.0 * np.cos(2.0 * param) + np.cos(3.0 * param) + 42.0
        ) / 64.0
    else:
        value = np.cos(3.0 * param) ** 2
    return _assert_and_clamp(value)


def numeric_fidelity(
    channel: QuantumChannel, xi: float, theta: float, phi: float, bit: int
) -> float:
    """Round-trip fidelity straight from the Kraus evolution, one angle tuple.

    This is the reference oracle: it runs the protocol and compares the final
    state with the encoded one, never touching the closed forms.
    """
    config = protocol.ProtocolConfig(
        xi=xi, alice_angle=theta, bob_angle=phi, channel=channel
    )
    final, _ = protocol.run_protocol(config, bit)
    return algebra.fidelity(protocol.encode_bit(bit, xi), final)


class RotationAveragedOracle:
    """Rotation-averaged numeric fidelity for one channel, evaluated fast.

    The final state of a round is linear in the input projector, so averaging
    over the secret angles commutes with evaluating at a state. For a pure
    input the fidelity is sum_c |<psi| K_c |psi>|^2 over the composite Kraus
    operators K_c = R(phi)^dag E_i R(theta)^dag E_j R(phi) E_l R(theta),
    a quadratic form in the outer-product vector w_(ab) = conj(psi_a) psi_b.
    The constructor accumulates that form over the midpoint grid once; each
    ``fidelity_at`` call is then a cheap 4x4 quadratic form per state, exactly
    equal to the midpoint average of per-point ``numeric_fidelity`` values.
    """

    def __init__(self, channel: QuantumChannel, quad: QuadratureSpec = QuadratureSpec()):
        self.channel = channel
        self.quad = quad
        self._form = self._averaged_form(channel.operators, quad.rotation_points)

    @staticmethod
    def _averaged_form(ops, n: int) -> np.ndarray:
        grid = midpoint_grid(n)
        rot = algebra.rotation(grid)
        rot_dag = rot.conj().swapaxes(-1, -2)
        # theta varies along axis 0, phi along axis 1
        r_theta = rot[:, None]
        r_theta_dag = rot_dag[:, None]
        r_phi = rot[None, :]
        r_phi_dag = rot_dag[None, :]

        heads = [(r_phi_dag @ op) @ r_theta_dag for op in ops]
        mids = [op @ r_phi for op in ops]
        tails = [op @ r_theta for op in ops]

        form = np.zeros((4, 4), dtype=complex)
        for j, l in product(range(len(ops)), repeat=2):
            middle = mids[j] @ tails[l]
            for i in range(len(ops)):
                flat = (heads[i] @ middle).reshape(-1, 4)
                form += flat.conj().T @ flat
        return form / (n * n)

    def fidelity_at(self, xis) -> np.ndarray:
        """Bit-averaged, rotation-averaged fidelity at each encoding angle."""
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        values = np.zeros(xis.shape)
        for bit in (0, 1):
            psi = protocol.encode_bit(bit, xis)
            w = (psi[..., :, None].conj() * psi[..., None, :]).reshape(len(xis), 4)
            values += 0.5 * np.real(np.einsum("xa,ab,xb->x", w.conj(), self._form, w))
        return np.asarray(_assert_and_clamp(values))

    def state_average(self) -> float:
        """Mean fidelity over the encoding angle on [0, 2pi)."""
        grid = midpoint_grid(self.quad.xi_points)
        return float(np.mean(self.fidelity_at(grid)))


def rotation_averaged_fidelity(
    channel: QuantumChannel, xi: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Numeric fidelity averaged over both secret angles and both bits."""
    return float(RotationAveragedOracle(channel, quad).fidelity_at([xi])[0])


def state_averaged_fidelity(
    kind: NoiseKind, param: float | None = None, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi).

    The midpoint rule with ``quad.xi_points`` cells integrates it exactly; the
    oracle's counterpart is ``RotationAveragedOracle(channel, quad).state_average()``.
    """
    if param is None:
        raise ValueError("param is required when averaging a closed form")
    values = closed_form_fidelity(kind, param, midpoint_grid(quad.xi_points))
    return float(np.clip(np.mean(values), 0.0, 1.0))


def commutator_closed_form(kraus_index: int, eta: float, theta: float) -> np.ndarray:
    """Commutator of an amplitude-damping Kraus operator with R(theta).

    Index 0 gives -(1 - sqrt(1 - eta)) sin(theta) times the exchange matrix
    [[0, 1], [1, 0]]; index 1 gives sqrt(eta) sin(theta) times diag(1, -1).
    Both vanish exactly when eta = 0 or sin(theta) = 0; that the damping
    operators fail to commute with generic rotations is why the protocol's
    rotation cancellation breaks under damping noise.
    """
    if kraus_index not in (0, 1):
        raise ValueError(f"kraus_index must be 0 or 1, got {kraus_index!r}")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    channels.check_parameter(NoiseKind.AMPLITUDE_DAMPING, eta)
    if kraus_index == 0:
        scale = -(1.0 - np.sqrt(1.0 - eta)) * np.sin(theta)
        return scale * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    scale = np.sqrt(eta) * np.sin(theta)
    return scale * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def commutator_defect(kraus_index: int, eta: float, theta: float) -> np.ndarray:
    """[E_k, R(theta)] for the amplitude-damping Kraus pair, by multiplication.

    The result is checked entrywise against its closed form within 1e-12
    before being returned; a mismatch means the algebra itself is broken and
    raises ArithmeticError.
    """
    expected = commutator_closed_form(kraus_index, eta, theta)
    ops = channels.amplitude_damping(eta).operators
    computed = algebra.commutator(ops[kraus_index], algebra.rotation(theta))
    residual = float(np.max(np.abs(computed - expected)))
    if residual > COMMUTATOR_ATOL:
        raise ArithmeticError(
            f"commutator deviates from its closed form by {residual:.3e}"
        )
    return computed
