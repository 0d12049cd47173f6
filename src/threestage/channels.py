"""Single-qubit noise channels as completely positive trace-preserving maps.

Four noise models plus a noiseless baseline. Amplitude damping and phase
damping are genuine two-operator Kraus channels parameterized by a
decoherence probability eta in [0, 1]. Collective dephasing and collective
rotation act as a single unitary (a phase gate and a rotation respectively)
whose angle is shared by every qubit crossing the channel; the parameter is
held fixed across all stages of one protocol round unless the caller opts
into per-stage resampling (see the protocol module).

Every constructor also takes an array of parameters and builds one channel
whose operators are stacks of shape ``parameter.shape + (2, 2)``;
``apply_channel`` broadcasts such a stack against a stack of states, so one
call applies a different channel to each state.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra

# Completeness (sum E_i^dag E_i = I) must hold to 1e-12 at construction.
# Operators are frozen there, so application trusts it.
COMPLETENESS_ATOL = 1e-12


class ChannelError(ValueError):
    """A channel's Kraus operators fail the completeness relation."""


class NoiseKind(Enum):
    """Noise model tags; values double as CLI / serialization tokens."""

    AMPLITUDE_DAMPING = "ad"
    PHASE_DAMPING = "pd"
    COLLECTIVE_DEPHASING = "cd"
    COLLECTIVE_ROTATION = "cr"
    IDENTITY = "none"

    @property
    def parameter_symbol(self) -> str:
        """Conventional name of the noise parameter in serialized output."""
        return _PARAMETER_SYMBOLS[self]

    @property
    def is_probability(self) -> bool:
        """True when the parameter is a decoherence probability eta, not an angle."""
        return self in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING)

    @property
    def natural_range(self) -> tuple[float, float]:
        """[0, 1] for a probability, one full turn [0, 2pi] for an angle."""
        return (0.0, 1.0) if self.is_probability else (0.0, 2.0 * np.pi)


_PARAMETER_SYMBOLS = {
    NoiseKind.AMPLITUDE_DAMPING: "eta",
    NoiseKind.PHASE_DAMPING: "eta",
    NoiseKind.COLLECTIVE_DEPHASING: "Phi",
    NoiseKind.COLLECTIVE_ROTATION: "Theta",
    NoiseKind.IDENTITY: "",
}


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map rho -> sum_i E_i rho E_i^dagger on one qubit.

    ``operators`` holds the Kraus operators explicitly (two for the damping
    channels, one for the unitary ones). Operators from outside the package
    are checked where they enter: a direct ``QuantumChannel(...)`` or a
    ``dataclasses.replace`` stores read-only copies and raises ChannelError
    when completeness misses by more than 1e-12, and ValueError unless
    ``check_parameter`` accepts the kind and parameter. The named
    constructors build operators that are complete by construction, so they
    skip that check and freeze their fresh arrays in place (see ``_built``),
    through the one unchecked builder ``_build``. ``parameter`` is eta
    for AD/PD (a probability), the phase angle Phi for CD, and the rotation
    angle Theta for CR, in radians: a float, or for a stacked channel a
    read-only array of one parameter per member. Instances are immutable.
    """

    kind: NoiseKind
    operators: tuple[np.ndarray, ...]
    parameter: float | np.ndarray

    def __post_init__(self):
        operators = tuple(_freeze(op) for op in self.operators)
        defect = completeness_defect(operators)
        if defect > COMPLETENESS_ATOL:
            raise ChannelError(
                f"Kraus completeness defect {defect:.3e} exceeds {COMPLETENESS_ATOL:g}"
            )
        check_parameter(self.kind, self.parameter)
        _store(self, operators, self.parameter)


def _store(channel: QuantumChannel, operators: tuple, parameter) -> None:
    """Set ``channel``'s operators and ``parameter`` as a float or a read-only float copy."""
    if type(parameter) is not float:
        parameter = np.array(parameter, dtype=float)
        parameter.flags.writeable = False
        parameter = float(parameter) if parameter.ndim == 0 else parameter
    object.__setattr__(channel, "operators", operators)
    object.__setattr__(channel, "parameter", parameter)


def _built(kind: NoiseKind, operators: tuple, parameter) -> QuantumChannel:
    """The channel of operators a constructor here has just built from a checked parameter.

    The arrays are made read-only in place, not copied, and completeness is
    not re-checked, because it holds by construction to a few ulp, far below
    ``COMPLETENESS_ATOL``. With u = 2^-53:

    - Damping: sum E^dag E = diag(1, a^2 + b^2), with a = fl(sqrt(fl(1 - eta)))
      and b = fl(sqrt(eta)) for eta in [0, 1]. fl(1 - eta) is within u of
      1 - eta, and a correctly rounded square root squares back to within
      about 2u relative, so |a^2 + b^2 - 1| <= u + 2u(1 - eta + u) + 2u eta,
      about 3u = 3.3e-16.
    - Collective dephasing and rotation: the one operator is unitary up to
      c^2 + s^2 - 1, with c and s numpy's cosine and sine of the same angle,
      each within a few ulp of the true value at any finite angle; the
      rotation's off-diagonal c(-s) + sc is exactly 0.

    ``tests/test_channels.py`` checks the defect at both ends of each
    parameter range, subnormal eta and angles up to 1e300 included.
    """
    for op in operators:
        op.flags.writeable = False
    channel = object.__new__(QuantumChannel)
    object.__setattr__(channel, "kind", kind)
    _store(channel, operators, parameter)
    return channel


def completeness_defect(operators) -> float:
    """Max-abs entry of sum E_i^dagger E_i - I, over every member of a stack (1 for no operators)."""
    ops = [np.asarray(op, dtype=complex) for op in operators]
    total = functools.reduce(operator.add, [algebra.dagger(op) @ op for op in ops]) if ops else 0
    return float(np.maximum.reduce(np.abs(total - algebra._IDENTITY), axis=None, initial=0.0))


def _freeze(op: np.ndarray) -> np.ndarray:
    out = np.array(op, dtype=complex)
    out.flags.writeable = False
    return out


def check_parameter(kind: NoiseKind, values) -> None:
    """Raise ValueError unless ``kind`` is a NoiseKind and every entry of ``values`` is valid for it.

    Every parameter must be finite; a probability must also lie in [0, 1]. The
    message names the parameter symbol and the first bad value, or the first
    int beyond the float range when there is one. A valid Python float is
    checked with ``math``; anything else, a bad float included, takes the
    array check, so the messages are the same.
    """
    if not isinstance(kind, NoiseKind):
        raise ValueError(f"unknown noise kind {kind!r}")
    if type(values) is float and math.isfinite(values) and (
        not kind.is_probability or 0.0 <= values <= 1.0
    ):
        return
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        first = algebra._first_overflow(values)
    else:
        bad = ~np.isfinite(array)
        if kind.is_probability:
            bad |= (array < 0.0) | (array > 1.0)
        if not np.logical_or.reduce(bad, axis=None):
            return
        first = float(array[bad][0])
    domain = "lie in [0, 1]" if kind.is_probability else "be finite"
    raise ValueError(f"{kind.parameter_symbol or 'parameter'} must {domain}, got {first!r}")


def _damping(kind: NoiseKind, eta, lost: tuple[int, int]) -> QuantumChannel:
    """E0 = diag(1, sqrt(1 - eta)) and E1 = sqrt(eta) at entry ``lost``, stacked over eta in [0, 1].

    A Python float eta builds each 2x2 in one call from ``math.sqrt``, which
    rounds correctly as ``np.sqrt`` does, so the bytes are the same.
    """
    if type(eta) is float:
        e1 = [[0.0, 0.0], [0.0, 0.0]]
        e1[lost[0]][lost[1]] = math.sqrt(eta)
        e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - eta)]], dtype=complex)
        return _built(kind, (e0, np.array(e1, dtype=complex)), eta)
    eta = np.asarray(eta, dtype=float)
    e0 = np.zeros(eta.shape + (2, 2), dtype=complex)
    e1 = np.zeros(eta.shape + (2, 2), dtype=complex)
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1] = np.sqrt(1.0 - eta)
    e1[(...,) + lost] = np.sqrt(eta)
    return _built(kind, (e0, e1), eta)


def amplitude_damping(eta) -> QuantumChannel:
    """Energy-loss channel: the excited state decays with probability eta.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, sqrt(eta)], [0, 0]]
    """
    check_parameter(NoiseKind.AMPLITUDE_DAMPING, eta)
    return _build(NoiseKind.AMPLITUDE_DAMPING, eta)


def phase_damping(eta) -> QuantumChannel:
    """Pure dephasing channel: coherences shrink, populations are untouched.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, 0], [0, sqrt(eta)]]
    """
    check_parameter(NoiseKind.PHASE_DAMPING, eta)
    return _build(NoiseKind.PHASE_DAMPING, eta)


def collective_dephasing(phi) -> QuantumChannel:
    """Unitary phase kick diag(1, e^{i Phi}) applied to every travel qubit."""
    check_parameter(NoiseKind.COLLECTIVE_DEPHASING, phi)
    return _build(NoiseKind.COLLECTIVE_DEPHASING, phi)


def collective_rotation(theta) -> QuantumChannel:
    """Unitary rotation by Theta applied to every travel qubit."""
    check_parameter(NoiseKind.COLLECTIVE_ROTATION, theta)
    return _build(NoiseKind.COLLECTIVE_ROTATION, theta)


# Frozen, with read-only operators, so one instance serves every caller.
_IDENTITY_CHANNEL = QuantumChannel(NoiseKind.IDENTITY, (np.eye(2, dtype=complex),), 0.0)


def identity_channel() -> QuantumChannel:
    """Noiseless channel: the one shared, immutable instance."""
    return _IDENTITY_CHANNEL


def from_kind(kind: NoiseKind, parameter) -> QuantumChannel:
    """Construct the channel named by ``kind`` with the given parameter (or stack).

    The identity kind ignores the parameter's value, which must still be
    finite, and returns the one unstacked identity channel.
    """
    check_parameter(kind, parameter)
    return _build(kind, parameter)


def _build(kind: NoiseKind, parameter) -> QuantumChannel:
    """``from_kind`` of a parameter (or stack) known to be valid for ``kind``, unchecked."""
    if kind is NoiseKind.AMPLITUDE_DAMPING:
        return _damping(kind, parameter, (0, 1))
    if kind is NoiseKind.PHASE_DAMPING:
        return _damping(kind, parameter, (1, 1))
    if kind is NoiseKind.COLLECTIVE_DEPHASING:
        return _built(kind, (algebra._phase_gate(parameter),), parameter)
    if kind is NoiseKind.COLLECTIVE_ROTATION:
        return _built(kind, (algebra._rotation(parameter),), parameter)
    return _IDENTITY_CHANNEL


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus sum sum_i E_i rho E_i^dagger, re-symmetrized; stacks broadcast.

    ``rho`` is assumed valid and ``channel`` complete, so it has a first term
    to start the sum from; both were checked where they entered, or hold by
    construction.

    On a stack, every E_i meets the same state, so the rows of all k
    operators, laid end to end at each call, shape ``(..., 2k, 2)``, form
    every left product E_i rho in one ``@`` member per state. They share
    the right operand rho, so numpy hands BLAS rho^T times the rows as
    columns, and each entry has the operands and order of E_i rho alone. A
    single 2x2 state and an unstacked channel keep one ``dot`` per operator:
    laying two 2x2 operators end to end costs more than the ``dot`` it
    saves. The right products, sum and symmetrization are ``conjugate_by``'s.
    """
    rho, operators = np.asarray(rho, dtype=complex), channel.operators
    if rho.ndim == 2 and operators[0].ndim == 2:
        terms = [op.dot(rho).dot(op.conj().T) for op in operators]
    else:
        left = (np.concatenate(operators, axis=-2) if len(operators) > 1 else operators[0]) @ rho
        terms = [algebra._right(left[..., 2 * i:2 * i + 2, :], op.conj().swapaxes(-1, -2))
                 for i, op in enumerate(operators)]
    return algebra.symmetrize(functools.reduce(operator.add, terms))
