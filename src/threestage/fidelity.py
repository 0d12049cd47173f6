"""Fidelity analysis: closed-form laws, numeric oracle, and averages.

For each noise model there is a closed-form expression for the round-trip
fidelity of the three-stage protocol, a function of the noise parameter and
the encoding angle xi only. The closed forms presume averaging over the two
secret rotation angles, uniformly on [0, 2pi)^2, and over the two bit values;
``numeric_fidelity`` and ``rotation_averaged_fidelity`` rebuild that quantity
from the Kraus evolution itself, with no reference to the formulas, and serve
as the independent check that keeps the formulas honest. The oracle needs no
loop over the angle grid: a rotation's superoperator is linear in
(1, cos 2t, sin 2t), so each angle's mean is a sum of three constant products.

One law covers every kind. As w = z + i x, the x-z part of a Bloch vector,
the encoded states are w = +-e^{2i xi} and a rotation R(t) multiplies w by
e^{2it}. There a channel's Pauli transfer matrix T_ij = tr(sigma_i N(sigma_j))/2
acts as w -> alpha w + beta conj(w), alpha = (T_xx + T_zz)/2 + i (T_xz - T_zx)/2
and beta = (T_zz - T_xx)/2 + i (T_xz + T_zx)/2, plus terms through y and a
shift. The bit average removes the shift, and the angle average every term
that keeps a phase: those through y, which skip a rotation, and all
alpha/beta products along a round but alpha^3 w and |beta|^2 beta conj(w).
With F = (1 + Re(conj(w0) w))/2 this leaves

    F(xi) = 1/2 + [Re alpha^3 + |beta|^2 Re(beta e^{-4i xi})]/2,

whose preferred encoding is xi* = arg(beta)/4 (mod pi/2). beta is real for
the four kinds, so F = mean + swing cos 4xi with mean = (1 + Re alpha^3)/2
and swing = beta^3/2: xi* = pi/4 under AD (beta < 0), 0 under PD and CD
(beta > 0), none under CR (beta = 0).

Collective rotation is special: every operator in the pipeline is a rotation,
rotations commute, and the whole round collapses to a single rotation by three
times the noise angle. Its fidelity cos^2(3 Theta) therefore holds pointwise,
for every choice of angles, with no averaging needed.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import algebra, channels, protocol
from .channels import NoiseKind, QuantumChannel

# Closed forms and averaged oracles are clamped to [0, 1]; a pre-clamp
# excursion beyond this tolerance indicates a genuine defect, not rounding.
CLAMP_ATOL = 1e-9

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
            value = getattr(self, field)
            try:
                points = operator.index(value)
            except TypeError:
                raise TypeError(f"{field} must be an integer, got {value!r}") from None
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


def midpoint_grid(n: int) -> np.ndarray:
    """Midpoint abscissae of ``n`` uniform cells covering [0, 2pi)."""
    return (np.arange(n) + 0.5) * (2.0 * np.pi / n)


def _assert_and_clamp(values):
    values = np.asarray(values, dtype=float)
    # np.max and np.min carry a NaN or an infinity through to worst; a NaN
    # compares False, so it would slip past the range test without this one.
    worst = max(float(np.max(values, initial=1.0)) - 1.0, -float(np.min(values, initial=0.0)))
    if not math.isfinite(worst):
        raise ValueError("fidelity is not finite")
    if worst > CLAMP_ATOL:
        raise ValueError(f"fidelity leaves [0, 1] by {worst:.3e}, beyond {CLAMP_ATOL:g}")
    out = np.clip(values, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _cos_4(xi):
    """cos(4 xi), as 8c^4 - 8c^2 + 1 with c = cos xi where 4 xi would overflow.

    Multiplying by 4 is exact in binary wherever the product is finite, so
    np.cos(4 * xi) keeps the phase up to |xi| = max / 4; past it the product
    is inf, whose cosine is NaN.
    """
    huge = np.abs(xi) > np.finfo(float).max / 4
    if not huge.any():
        return np.cos(4 * xi)
    c = np.cos(xi)
    return np.where(huge, 8 * c**4 - 8 * c**2 + 1, np.cos(4 * np.where(huge, 0.0, xi)))


# Each rule returns (1 + Re alpha^3, beta^3) of its kind's x-z block, r being
# sqrt(1 - eta). beta is written without cancellation, 1 - r = eta / (1 + r),
# so the sign of the swing is exact at every interior parameter. CD and CR take
# the cosine of Phi / 2 or Theta, exact in binary, never of a rounded multiple.
# Powers are ufuncs, so a scalar takes the same loop as an array and a sweep
# row equals the scalar call on its values.


def _coefficients_amplitude_damping(eta):
    # alpha = r (1 + r) / 2, summed as (r + 1 - eta) / 2, which rounds closer;
    # beta = -r eta / (2 (1 + r)).
    root = np.sqrt(1.0 - eta)
    alpha = (root + (1.0 - eta)) / 2.0
    return 1.0 + np.power(alpha, 3), -np.power(root * eta / (1.0 + root), 3) / 8.0


def _coefficients_phase_damping(eta):
    # alpha = (1 + r) / 2, beta = eta / (2 (1 + r)).
    root = np.sqrt(1.0 - eta)
    return 1.0 + np.power((1.0 + root) / 2.0, 3), np.power(eta / (1.0 + root), 3) / 8.0


def _coefficients_collective_dephasing(phi):
    # alpha = cos^2(Phi / 2), beta = sin^2(Phi / 2).
    return 1.0 + np.power(np.cos(phi / 2.0), 6), np.power(np.sin(phi / 2.0), 6)


def _coefficients_collective_rotation(theta):
    # alpha = e^{2i Theta}, beta = 0: 1 + Re alpha^3 = 1 + cos 6 Theta = 2 T_3(cos Theta)^2,
    # whose half, the mean, keeps its relative precision near the zeros of T_3.
    c = np.cos(theta)
    return 2.0 * np.square(c * (4.0 * np.square(c) - 3.0)), np.zeros_like(theta)


_CLOSED_FORMS = {
    NoiseKind.AMPLITUDE_DAMPING: _coefficients_amplitude_damping,
    NoiseKind.PHASE_DAMPING: _coefficients_phase_damping,
    NoiseKind.COLLECTIVE_DEPHASING: _coefficients_collective_dephasing,
    NoiseKind.COLLECTIVE_ROTATION: _coefficients_collective_rotation,
}

# The kinds with a closed form: every kind but the noiseless one.
CLOSED_FORM_KINDS = tuple(_CLOSED_FORMS)


def _coefficients(kind: NoiseKind, param):
    """(mean, swing) = ((1 + Re alpha^3) / 2, beta^3 / 2) of the kind's block, inputs checked."""
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(
            f"no closed form for kind {kind!r}; use parameter 0 of any noisy kind "
            "for the noiseless case"
        )
    channels.check_parameter(kind, param)
    twice_mean, beta_cubed = _CLOSED_FORMS[kind](np.asarray(param, dtype=float))
    return twice_mean / 2.0, beta_cubed / 2.0


def closed_form_fidelity(kind: NoiseKind, param, xi):
    """Closed-form round-trip fidelity at encoding angle ``xi``.

    ``param`` is eta for AD/PD, Phi for CD, Theta for CR; CR ignores ``xi``.
    Scalars broadcast against arrays; outputs are clamped to [0, 1].
    """
    mean, swing = _coefficients(kind, param)
    return _assert_and_clamp(mean + swing * _cos_4(algebra._finite("xi", xi)))


def closed_form_average_fidelity(kind: NoiseKind, param):
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi)."""
    return _assert_and_clamp(_coefficients(kind, param)[0])


def _closed_form_table(grids, xis, average: bool) -> np.ndarray:
    """``closed_form_fidelity`` of each (kind, checked 1-D params) of ``grids`` x checked ``xis``, as one table.

    Each kind's rule runs once; one broadcast with cos 4xi fills the xi
    columns and the mean the average column, last if ``average``; one clamp.
    """
    twice_means, betas_cubed = zip(*(_CLOSED_FORMS[kind](params) for kind, params in grids))
    mean, swing = np.concatenate(twice_means) / 2.0, np.concatenate(betas_cubed) / 2.0
    table = np.empty((len(mean), len(xis) + average))
    np.add(mean[:, None], swing[:, None] * _cos_4(xis), out=table[:, :len(xis)])
    if average:
        table[:, -1] = mean
    return _assert_and_clamp(table)


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


# The oracle contracts a channel stack ORACLE_BLOCK members at a time, and
# evaluates XI_BLOCK encoding angles at a time, so that its intermediates
# stay small however many parameters or angles a sweep holds. At 128 members
# a block's intermediates, about 1 MiB, reuse the memory the last block
# freed; at 1024, about 8 MiB, the allocator maps them afresh for each block
# and the page faults cost as much as the arithmetic. A block of 1024 angles
# peaks at about 0.8 MiB, and a smaller one spends more of its time on its
# fixed cost, building the weight, so angles go in larger blocks.
ORACLE_BLOCK = 2**7
XI_BLOCK = 2**10

# The oracle's channel-free tensors depend on one resolution alone, so each is
# built once per resolution and kept, read-only; a process rarely uses more
# than a couple of resolutions, and one entry is at most 1.5 KiB.
_CACHED_RESOLUTIONS = 8

# R(t) = cos t I + sin t J, so L(R(t)) = V0 + cos 2t Vc + sin 2t Vs with these
# constant lifts (V0, Vc, Vs), whose entries 0 and +-1/2 are exact.
_I, _J = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
_ROTATION_LIFTS = np.stack([
    np.kron(_I, _I) + np.kron(_J, _J), np.kron(_I, _I) - np.kron(_J, _J), np.kron(_I, _J) + np.kron(_J, _I),
]) / 2


@functools.lru_cache(maxsize=_CACHED_RESOLUTIONS)
def _rotation_moment(n: int) -> np.ndarray:
    """Factors F of M_abce = mean L(R^dag)_ab L(R)_ce = sum_r F[0, a, r, b] F[1, c, r, e].

    As L(R^dag) = L(R)^T, M = sum_ij G_ij V_i^T (x) V_j with G = mean f f^T = C C^T,
    f(t) = (1, cos 2t, sin 2t), over the n-point midpoint grid: U_r = F[0, :, r]
    = sum_i C_ir V_i^T and V_r = F[1, :, r] = sum_i C_ir V_i.
    """
    t = midpoint_grid(n)
    f = np.stack([np.ones(n), np.cos(2 * t), np.sin(2 * t)])
    c = np.linalg.cholesky(f @ f.T / n)
    factors = np.einsum("ir,kiab->karb", c, [_ROTATION_LIFTS.swapaxes(1, 2), _ROTATION_LIFTS]).astype(complex)
    factors.flags.writeable = False
    return factors


def _encoded_vecs(xis) -> np.ndarray:
    """vec(psi psi^H) of the bit-0 and bit-1 states at each xi, shape (2, len(xis), 4).

    Under a round superoperator S the fidelity of v is
    Re(v^H S v) = Re sum_ab S_ab W_ab with W_ab = conj(v_a) v_b, so the bit
    and xi averages act on the weight W alone, before S does.
    """
    # The basis rows are the bits; made contiguous, so that the products and
    # the reshape below give a C-ordered array.
    psi = np.ascontiguousarray(np.moveaxis(protocol._basis(algebra._finite("xi", xis)), -2, 0))
    return (psi[..., :, None] * psi[..., None, :].conj()).reshape(2, len(xis), 4)


def _xi_weight(xis) -> np.ndarray:
    """Row-major W_ab = conj(v_a) v_b averaged over both bits, one row of 16 per xi."""
    vecs = _encoded_vecs(xis)
    return np.einsum("nxa,nxb->xab", vecs.conj(), vecs).reshape(-1, 16) / 2


@functools.lru_cache(maxsize=_CACHED_RESOLUTIONS)
def _state_weight(xi_points: int) -> np.ndarray:
    """Row-major W_ab = mean conj(v_a) v_b over both bits and the xi_points-cell midpoint grid."""
    vecs = _encoded_vecs(midpoint_grid(xi_points)).reshape(-1, 4)
    weight = (vecs.conj().T @ vecs).reshape(16) / len(vecs)
    weight.flags.writeable = False
    return weight


def _fidelity_table(form, xis, xi_points: int | None = None) -> np.ndarray:
    """Fidelity of each row S of a (members, 16) ``form`` at each checked angle of ``xis``, one clamp.

    Each block of ``XI_BLOCK`` angles takes one product with its bit-averaged
    weight; given ``xi_points``, one more gives the state average, last.
    """
    table = np.empty((len(form), len(xis) + (xi_points is not None)))
    for lo in range(0, len(xis), XI_BLOCK):
        block = slice(lo, min(lo + XI_BLOCK, len(xis)))
        table[:, block] = np.real(form @ _xi_weight(xis[block]).T)
    if xi_points is not None:
        table[:, -1] = np.real(form @ _state_weight(xi_points))
    return _assert_and_clamp(table)


class RotationAveragedOracle:
    """Rotation-averaged numeric fidelity for one channel or a channel stack.

    With the lift L(U) = U (x) conj(U) of rho -> U rho U^dag on the row-major
    vec(rho) and the channel N = sum_i L(E_i), one round is the superoperator
    S = L(R_phi^dag) N L(R_theta^dag) N L(R_phi) N L(R_theta). Each secret
    angle enters S through two lifts, so the midpoint mean over the n x n grid
    factors, once per angle, through one channel-free tensor
    M_abce = mean L(R^dag)_ab L(R)_ce. A rotation's lift is linear in
    (1, cos 2t, sin 2t), so M is a sum of three products U_r (x) V_r of
    constant 4x4 matrices, and mean S = sum_rs U_s N U_r N V_s N V_r, whose
    three N are the crossings 3, 2 and 1. The factors are built once per
    resolution per process, in O(n), and so is the bit- and xi-averaged
    weight that ``state_average`` applies; each channel then costs a few
    products of 4x4 matrices, independent of n. The fidelity of a pure input
    psi is Re(vec(P)^H S vec(P)) with vec(P) = psi (x) conj(psi), exactly the
    midpoint average of per-point ``numeric_fidelity`` values.

    A stacked channel, whose operators have shape ``stack + (2, 2)`` (as
    ``channels.from_kind`` builds for an array of parameters), gives one S
    per member, contracted ``ORACLE_BLOCK`` members at a time; ``fidelity_at``
    then returns shape ``stack + (len(xis),)`` and ``state_average`` shape
    ``stack``. A single channel gives shape ``(len(xis),)`` and a float.
    """

    def __init__(self, channel: QuantumChannel, quad: QuadratureSpec = QuadratureSpec()):
        self.channel = channel
        self.quad = quad
        factors = _rotation_moment(quad.rotation_points)
        ops = np.broadcast_arrays(*channel.operators)
        stack = ops[0].shape[:-2]
        ops = [op.reshape(-1, 2, 2) for op in ops]
        form = np.empty((len(ops[0]), 4, 4), dtype=complex)
        for lo in range(0, len(form), ORACLE_BLOCK):
            block = slice(lo, lo + ORACLE_BLOCK)
            form[block] = self._averaged_form(sum(_lift(op[block]) for op in ops), factors)
        # Row-major S_ab, one row per member, so that sum_ab S_ab W_ab is one product per weight.
        self._stack, self._form = stack, form.reshape(-1, 16)

    @staticmethod
    def _averaged_form(noise, factors) -> np.ndarray:
        """mean S = sum_rs U_s N U_r N V_s N V_r for each lift N of a stack (..., 4, 4)."""
        shape = np.shape(noise)
        noise = np.reshape(noise, (-1, 4, 4))
        p = len(noise)
        u, v = factors.reshape(2, 4, 12)  # [a, (r, b)]
        # Crossings 2 and 1: (N V_s)(N V_r), the V products over the whole
        # stack, then one product per member.  [p, x, s, r, d]
        nv = noise.reshape(4 * p, 4) @ v
        q = nv.reshape(p, 12, 4) @ nv.reshape(p, 4, 12)
        # Crossing 3: U_s N U_r, both U products over the whole stack; U_s
        # is real, so its left product takes the float view.  [a, s, p, r, x]
        nu = (noise.transpose(1, 0, 2).reshape(4 * p, 4) @ u).reshape(4, 12 * p)
        a = (u.real.reshape(12, 4) @ nu.view(float)).view(complex)
        a = a.reshape(4, 3, p, 3, 4).transpose(2, 0, 4, 1, 3).reshape(p, 4, 36)  # [p, a, (x, s, r)]
        return (a @ q.reshape(p, 36, 4)).reshape(shape)

    def fidelity_at(self, xis) -> np.ndarray:
        """Bit-averaged, rotation-averaged fidelity at each encoding angle."""
        xis = np.atleast_1d(np.asarray(xis, dtype=float))
        if xis.ndim != 1:
            raise ValueError(f"xis must be an angle or a 1-D sequence of angles, got shape {xis.shape}")
        return _fidelity_table(self._form, xis).reshape(self._stack + xis.shape)

    def state_average(self) -> float | np.ndarray:
        """Mean fidelity over the encoding angle on [0, 2pi), per member of a stack."""
        average = _fidelity_table(self._form, np.empty(0), self.quad.xi_points).reshape(self._stack)
        return float(average) if average.ndim == 0 else average


def rotation_averaged_fidelity(
    channel: QuantumChannel, xi: float, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Numeric fidelity averaged over both secret angles and both bits."""
    if stack := np.broadcast_shapes(*(np.shape(op)[:-2] for op in channel.operators)):
        raise ValueError(f"channel must not be a stack, got a stack of shape {stack}")
    return float(RotationAveragedOracle(channel, quad).fidelity_at([xi])[0])


def state_averaged_fidelity(
    kind: NoiseKind, param, quad: QuadratureSpec = QuadratureSpec()
) -> float | np.ndarray:
    """Closed-form fidelity averaged over the encoding angle xi on [0, 2pi).

    The midpoint rule with ``quad.xi_points`` cells integrates it exactly; the
    oracle's counterpart is ``RotationAveragedOracle(channel, quad).state_average()``.
    An array of parameters gives one average per parameter, as
    ``closed_form_average_fidelity`` does; one parameter gives a float.
    """
    values = closed_form_fidelity(kind, np.expand_dims(param, -1), midpoint_grid(quad.xi_points))
    average = np.clip(np.mean(values, axis=-1), 0.0, 1.0)
    return float(average) if average.ndim == 0 else average


# Columns: the row-major vec of I, X, Y and Z. P^H P = 2 I, and every entry is exact.
_PAULI_VECS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]).T


def channel_commutator(channel: QuantumChannel, theta):
    """Frobenius norm of [N, L(R(theta))], by multiplication and in closed form.

    N = sum_i L(E_i) is the channel's superoperator and L(R) the lift of a
    secret rotation, so the norm belongs to the channel, whatever Kraus
    operators represent it; it is zero at every theta exactly when the
    channel commutes with the secret rotations, as cr does and ad, pd and cd
    do not. The closed form reads the Pauli transfer matrix T = P^H N P / 2,
    whose conjugation by P / sqrt(2) keeps the norm. R(t) turns the x-z plane
    by 2t and fixes y, so with beta as in the module docstring, s = (T_x0, T_z0)
    the shift and c = (T_yx, T_yz, T_xy, T_zy) the y couplings,

        ||[N, L(R(t))]||_F^2 = 8 |beta|^2 sin^2(2t) + 4 sin^2(t) (|s|^2 + |c|^2),

    taken as 2 |sin t| sqrt(8 |beta|^2 cos^2 t + |s|^2 + |c|^2), which needs
    no 2t and is exactly 0 at t = 0. Stacked channels and arrays of angles
    broadcast; one channel and one angle give floats. Returns (norm, closed_form).
    """
    theta = algebra._finite("theta", theta)
    noise = sum(_lift(op) for op in channel.operators)
    rotation = _lift(algebra._rotation(theta))
    norm = np.linalg.norm(noise @ rotation - rotation @ noise, axis=(-2, -1))
    ptm = (_PAULI_VECS.conj().T @ noise @ _PAULI_VECS).real / 2  # [i, j] with I, X, Y, Z = 0, 1, 2, 3
    beta_squared = (np.square(ptm[..., 3, 3] - ptm[..., 1, 1])
                    + np.square(ptm[..., 1, 3] + ptm[..., 3, 1])) / 4
    shift_and_y = np.sum(np.square(ptm[..., [1, 3, 2, 2, 1, 3], [0, 0, 1, 3, 2, 2]]), axis=-1)
    closed = 2 * np.abs(np.sin(theta)) * np.sqrt(8 * beta_squared * np.square(np.cos(theta)) + shift_and_y)
    return tuple(float(value) if np.ndim(value) == 0 else value for value in (norm, closed))
