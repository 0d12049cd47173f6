"""Fidelity analysis: closed-form laws, numeric oracle, and averages.

For each noise model there is a closed-form expression for the round-trip
fidelity of the three-stage protocol, a function of the noise parameter and
the encoding angle xi only. The closed forms presume averaging over the two
secret rotation angles, uniformly on [0, 2pi)^2, and over the two bit values;
``numeric_fidelity`` and ``rotation_averaged_fidelity`` rebuild that quantity
from the Kraus evolution itself, with no reference to the formulas, and serve
as the independent check that keeps the formulas honest.

Every law is F = mean(param) + swing(param) cos 4xi, so its average over xi
is ``mean`` and the sign of ``swing`` names the preferred encoding states:
xi = pi/4 (mod pi/2) for AD (swing < 0), xi = 0 (mod pi/2) for PD and CD
(swing > 0), none for CR (swing 0). sin^2 2xi = (1 - cos 4xi)/2 and
cos^2 2xi = (1 + cos 4xi)/2 map the printed PD and CD laws to this form.

Collective rotation is special: every operator in the pipeline is a rotation,
rotations commute, and the whole round collapses to a single rotation by three
times the noise angle. Its fidelity cos^2(3 Theta) therefore holds pointwise,
for every choice of angles, with no averaging needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, channels, protocol
from .channels import NoiseKind, QuantumChannel

# Closed forms and averaged oracles are clamped to [0, 1]; a pre-clamp
# excursion beyond this tolerance indicates a genuine defect, not rounding.
CLAMP_ATOL = 1e-9

# The computed Kraus/rotation commutators must match their closed forms
# essentially exactly.
COMMUTATOR_ATOL = 1e-12

MAX_QUADRATURE_POINTS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint-rule resolutions for the two averaging integrals.

    An n-point midpoint sum over one period integrates every trigonometric
    polynomial of degree below n exactly (Trefethen & Weideman, SIAM Review
    56(3), 2014). Each secret angle enters a round through two lifts of its
    rotation, each of degree 2, so the integrand has degree at most 4 in each
    angle; so has the fidelity in the encoding angle. Any n >= 5 is exact, so
    more than ``MAX_QUADRATURE_POINTS`` buys nothing but memory and is refused.
    ``rotation_points`` is used per rotation axis, ``xi_points`` for the
    average over the encoding angle.
    """

    rotation_points: int = 256
    xi_points: int = 1024

    def __post_init__(self):
        for field in ("rotation_points", "xi_points"):
            points = getattr(self, field)
            if not 8 <= points <= MAX_QUADRATURE_POINTS:
                bound = ">= 8" if points < 8 else f"<= {MAX_QUADRATURE_POINTS}"
                raise ValueError(f"{field} must be {bound}, got {points}")


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


def _assert_and_clamp(values):
    values = np.asarray(values, dtype=float)
    worst = max(float(np.max(values, initial=1.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if worst > CLAMP_ATOL:
        raise ValueError(f"fidelity leaves [0, 1] by {worst:.3e}, beyond {CLAMP_ATOL:g}")
    out = np.clip(values, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _coefficients_amplitude_damping(eta):
    root = np.sqrt(1.0 - eta)
    mean = (
        4.0 * (root + 3.0)
        - eta * (eta**2 - 3.0 * (root + 2.0) * eta + 7.0 * root + 9.0)
    ) / 16.0
    swing = (1.0 - eta) * (eta * (eta + 3.0 * root - 5.0) - 4.0 * root + 4.0) / 16.0
    return mean, swing


def _coefficients_phase_damping(eta):
    root = np.sqrt(1.0 - eta)
    mean = (root + 3.0) * (4.0 - eta) / 16.0
    swing = (root * eta - 3.0 * eta - 4.0 * root + 4.0) / 16.0
    return mean, swing


def _coefficients_collective_dephasing(phi):
    mean = (15.0 * np.cos(phi) + 6.0 * np.cos(2.0 * phi) + np.cos(3.0 * phi) + 42.0) / 64.0
    swing = (6.0 * np.cos(2.0 * phi) - 15.0 * np.cos(phi) - np.cos(3.0 * phi) + 10.0) / 64.0
    return mean, swing


def _coefficients_collective_rotation(theta):
    return np.cos(3.0 * theta) ** 2, np.zeros_like(theta)


_CLOSED_FORMS = {
    NoiseKind.AMPLITUDE_DAMPING: _coefficients_amplitude_damping,
    NoiseKind.PHASE_DAMPING: _coefficients_phase_damping,
    NoiseKind.COLLECTIVE_DEPHASING: _coefficients_collective_dephasing,
    NoiseKind.COLLECTIVE_ROTATION: _coefficients_collective_rotation,
}

# The kinds with a closed form: every kind but the noiseless one.
CLOSED_FORM_KINDS = tuple(_CLOSED_FORMS)


def _coefficients(kind: NoiseKind, param):
    """(mean, swing) of the kind's law F = mean + swing cos 4xi, inputs checked."""
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(
            f"no closed form for kind {kind!r}; use parameter 0 of any noisy kind "
            "for the noiseless case"
        )
    channels.check_parameter(kind, param)
    return _CLOSED_FORMS[kind](np.asarray(param, dtype=float))


def closed_form_fidelity(kind: NoiseKind, param, xi):
    """Closed-form round-trip fidelity at encoding angle ``xi``.

    ``param`` is eta for AD/PD, Phi for CD, Theta for CR; CR ignores ``xi``.
    Scalars broadcast against arrays; outputs are clamped to [0, 1].
    """
    mean, swing = _coefficients(kind, param)
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    return _assert_and_clamp(mean + swing * np.cos(4.0 * xi))


def closed_form_average_fidelity(kind: NoiseKind, param):
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi)."""
    return _assert_and_clamp(_coefficients(kind, param)[0])


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


def _lift(u) -> np.ndarray:
    """Lift u (x) conj(u) of rho -> u rho u^dag on the row-major vec(rho); stacks broadcast."""
    return np.einsum("...ij,...kl->...ikjl", u, u.conj()).reshape(u.shape[:-2] + (4, 4))


class RotationAveragedOracle:
    """Rotation-averaged numeric fidelity for one channel, evaluated fast.

    With the lift L(U) = U (x) conj(U) of rho -> U rho U^dag on the row-major
    vec(rho) and the channel N = sum_i L(E_i), one round is the superoperator
    S = L(R_phi^dag) N L(R_theta^dag) N L(R_phi) N L(R_theta). Each secret
    angle enters S through two lifts, so the midpoint mean over the n x n grid
    factors into M = mean_phi L(R_phi^dag)_ab L(R_phi)_ce and
    Q = mean_theta (N L(R_theta^dag) N)_bc (N L(R_theta))_ed, built in O(n):
    mean S_ad = sum_bce M_abce Q_bced. The fidelity of a pure input psi is
    Re(vec(P)^H S vec(P)) with vec(P) = psi (x) conj(psi), exactly the midpoint
    average of per-point ``numeric_fidelity`` values.
    """

    def __init__(self, channel: QuantumChannel, quad: QuadratureSpec = QuadratureSpec()):
        self.channel = channel
        self.quad = quad
        self._form = self._averaged_form(channel.operators, quad.rotation_points)

    @staticmethod
    def _averaged_form(ops, n: int) -> np.ndarray:
        lift = _lift(algebra.rotation(midpoint_grid(n)))
        lift_dag = algebra.dagger(lift)  # L(U^dag) = L(U)^dag
        noise = _lift(np.stack(ops)).sum(axis=0)
        m = np.einsum("nab,nce->abce", lift_dag, lift) / n
        q = np.einsum("nbc,ned->bced", noise @ lift_dag @ noise, noise @ lift) / n
        return np.einsum("abce,bced->ad", m, q)

    def fidelity_at(self, xis) -> np.ndarray:
        """Bit-averaged, rotation-averaged fidelity at each encoding angle."""
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        values = np.zeros(xis.shape)
        for bit in (0, 1):
            psi = protocol.encode_bit(bit, xis)
            vec = (psi[:, :, None] * psi[:, None, :].conj()).reshape(len(xis), 4)
            values += 0.5 * np.real(np.einsum("xa,ab,xb->x", vec.conj(), self._form, vec))
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
    kind: NoiseKind, param: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi).

    The midpoint rule with ``quad.xi_points`` cells integrates it exactly; the
    oracle's counterpart is ``RotationAveragedOracle(channel, quad).state_average()``.
    """
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
