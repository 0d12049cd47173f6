"""Single-qubit noise channels as completely positive trace-preserving maps.

Four noise models plus a noiseless baseline. Amplitude damping and phase
damping are genuine two-operator Kraus channels parameterized by a
decoherence probability eta in [0, 1]. Collective dephasing and collective
rotation act as a single unitary (a phase gate and a rotation respectively)
whose angle is shared by every qubit crossing the channel; the parameter is
held fixed across all stages of one protocol round unless the caller opts
into per-stage resampling (see the protocol module).
"""

from __future__ import annotations

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
    for CR, in radians. Instances are immutable; the stored arrays are
    read-only copies.
    """

    kind: NoiseKind
    operators: tuple[np.ndarray, ...]
    parameter: float

    def __post_init__(self):
        operators = tuple(_freeze(op) for op in self.operators)
        defect = completeness_defect(operators)
        if defect > COMPLETENESS_ATOL:
            raise ChannelError(
                f"Kraus completeness defect {defect:.3e} exceeds {COMPLETENESS_ATOL:g}"
            )
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "parameter", float(self.parameter))


def completeness_defect(operators) -> float:
    """Max-abs entry of sum E_i^dagger E_i - I."""
    total = np.zeros((2, 2), dtype=complex)
    for op in operators:
        op = np.asarray(op, dtype=complex)
        total += op.conj().T @ op
    return float(np.max(np.abs(total - np.eye(2))))


def _freeze(op: np.ndarray) -> np.ndarray:
    out = np.array(op, dtype=complex)
    out.flags.writeable = False
    return out


def _check_probability(value: float, name: str) -> None:
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def amplitude_damping(eta: float) -> QuantumChannel:
    """Energy-loss channel: the excited state decays with probability eta.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, sqrt(eta)], [0, 0]]
    """
    _check_probability(eta, "eta")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel(NoiseKind.AMPLITUDE_DAMPING, (e0, e1), eta)


def phase_damping(eta: float) -> QuantumChannel:
    """Pure dephasing channel: coherences shrink, populations are untouched.

    Kraus operators::

        E0 = [[1, 0], [0, sqrt(1 - eta)]]
        E1 = [[0, 0], [0, sqrt(eta)]]
    """
    _check_probability(eta, "eta")
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [0.0, np.sqrt(eta)]], dtype=complex)
    return QuantumChannel(NoiseKind.PHASE_DAMPING, (e0, e1), eta)


def collective_dephasing(phi: float) -> QuantumChannel:
    """Unitary phase kick diag(1, e^{i Phi}) applied to every travel qubit."""
    if not np.isfinite(phi):
        raise ValueError(f"Phi must be finite, got {phi!r}")
    return QuantumChannel(NoiseKind.COLLECTIVE_DEPHASING, (algebra.phase_gate(phi),), phi)


def collective_rotation(theta: float) -> QuantumChannel:
    """Unitary rotation by Theta applied to every travel qubit."""
    if not np.isfinite(theta):
        raise ValueError(f"Theta must be finite, got {theta!r}")
    return QuantumChannel(NoiseKind.COLLECTIVE_ROTATION, (algebra.rotation(theta),), theta)


def identity_channel() -> QuantumChannel:
    """Noiseless channel."""
    return QuantumChannel(NoiseKind.IDENTITY, (np.eye(2, dtype=complex),), 0.0)


def from_kind(kind: NoiseKind, parameter: float) -> QuantumChannel:
    """Construct the channel named by ``kind`` with the given parameter.

    The identity kind ignores the parameter.
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
        return identity_channel()
    raise ValueError(f"unknown noise kind {kind!r}")


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Kraus sum sum_i E_i rho E_i^dagger, re-symmetrized.

    ``rho`` is assumed to be a valid density matrix and ``channel`` complete;
    both were validated where they were constructed.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return algebra.symmetrize(out)
