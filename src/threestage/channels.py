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
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra

# Completeness (sum E_i^dag E_i = I) must hold to 1e-12 at construction.
# Operators are frozen there, so application trusts it.
COMPLETENESS_ATOL = 1e-12

_IDENTITY = np.eye(2)


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
    channels, one for the unitary ones) so completeness can be validated once
    at construction, direct construction included: a set that misses it by
    more than 1e-12 raises ChannelError. ``parameter`` is eta for AD/PD (a
    probability), the phase angle Phi for CD, and the rotation angle Theta
    for CR, in radians: a float, or for a stacked channel an array of one
    parameter per member. Instances are immutable; the stored arrays are
    read-only copies.
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
        parameter = np.array(self.parameter, dtype=float)
        parameter.flags.writeable = False
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "parameter", float(parameter) if parameter.ndim == 0 else parameter)


def completeness_defect(operators) -> float:
    """Max-abs entry of sum E_i^dagger E_i - I, over every member of a stack (1 for no operators)."""
    ops = [np.asarray(op, dtype=complex) for op in operators]
    total = functools.reduce(operator.add, [algebra.dagger(op) @ op for op in ops]) if ops else 0
    return float(np.maximum.reduce(np.abs(total - _IDENTITY), axis=None))


def _freeze(op: np.ndarray) -> np.ndarray:
    out = np.array(op, dtype=complex)
    out.flags.writeable = False
    return out


def check_parameter(kind: NoiseKind, values) -> None:
    """Raise ValueError unless every entry of ``values`` is a valid ``kind`` parameter.

    Every parameter must be finite; a probability must also lie in [0, 1]. The
    message names the parameter symbol and the first bad value.
    """
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if kind.is_probability:
        bad |= (values < 0.0) | (values > 1.0)
    if np.logical_or.reduce(bad, axis=None):
        domain = "lie in [0, 1]" if kind.is_probability else "be finite"
        raise ValueError(
            f"{kind.parameter_symbol or 'parameter'} must {domain}, "
            f"got {float(values[bad][0])!r}"
        )


def _damping(kind: NoiseKind, eta, lost: tuple[int, int]) -> QuantumChannel:
    """E0 = diag(1, sqrt(1 - eta)) and E1 = sqrt(eta) at entry ``lost``, stacked over eta."""
    check_parameter(kind, eta)
    eta = np.asarray(eta, dtype=float)
    e0 = np.zeros(eta.shape + (2, 2), dtype=complex)
    e1 = np.zeros(eta.shape + (2, 2), dtype=complex)
    e0[..., 0, 0] = 1.0
    e0[..., 1, 1] = np.sqrt(1.0 - eta)
    e1[(...,) + lost] = np.sqrt(eta)
    return QuantumChannel(kind, (e0, e1), eta)


def amplitude_damping(eta) -> QuantumChannel:
    """Energy-loss channel: the excited state decays with probability eta.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, sqrt(eta)], [0, 0]]
    """
    return _damping(NoiseKind.AMPLITUDE_DAMPING, eta, (0, 1))


def phase_damping(eta) -> QuantumChannel:
    """Pure dephasing channel: coherences shrink, populations are untouched.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, 0], [0, sqrt(eta)]]
    """
    return _damping(NoiseKind.PHASE_DAMPING, eta, (1, 1))


def collective_dephasing(phi) -> QuantumChannel:
    """Unitary phase kick diag(1, e^{i Phi}) applied to every travel qubit."""
    check_parameter(NoiseKind.COLLECTIVE_DEPHASING, phi)
    return QuantumChannel(NoiseKind.COLLECTIVE_DEPHASING, (algebra.phase_gate(phi),), phi)


def collective_rotation(theta) -> QuantumChannel:
    """Unitary rotation by Theta applied to every travel qubit."""
    check_parameter(NoiseKind.COLLECTIVE_ROTATION, theta)
    return QuantumChannel(NoiseKind.COLLECTIVE_ROTATION, (algebra.rotation(theta),), theta)


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
    if kind is NoiseKind.AMPLITUDE_DAMPING:
        return amplitude_damping(parameter)
    if kind is NoiseKind.PHASE_DAMPING:
        return phase_damping(parameter)
    if kind is NoiseKind.COLLECTIVE_DEPHASING:
        return collective_dephasing(parameter)
    if kind is NoiseKind.COLLECTIVE_ROTATION:
        return collective_rotation(parameter)
    if kind is NoiseKind.IDENTITY:
        check_parameter(kind, parameter)
        return identity_channel()
    raise ValueError(f"unknown noise kind {kind!r}")


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus sum sum_i E_i rho E_i^dagger, re-symmetrized; stacks broadcast.

    ``rho`` is assumed valid and ``channel`` complete, so it has a first term
    to start the sum from; both were validated where they were constructed.
    """
    rho = np.asarray(rho, dtype=complex)
    terms = [op @ rho @ op.conj().swapaxes(-1, -2) for op in channel.operators]
    return algebra.symmetrize(functools.reduce(operator.add, terms))
