"""2x2 complex matrix and single-qubit state algebra.

Everything in this package rides on plain numpy arrays: operators and density
matrices are complex arrays of shape (2, 2), pure states are complex arrays of
shape (2,). This module builds the protocol's unitaries, enforces the state
and density-matrix invariants, and provides the handful of algebraic
operations the rest of the package is assembled from. All functions are pure
and all values are treated as immutable.
"""

from __future__ import annotations

import numpy as np

# Algebraic identities on 2x2 objects hold to near machine precision.
ATOL = 1e-12
# Unitarity preconditions get one matrix product of extra slack.
UNITARY_ATOL = 1e-10


def _as_mat2(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must have shape (2, 2), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def rotation(theta) -> np.ndarray:
    """Real rotation [[cos t, -sin t], [sin t, cos t]] by angle ``theta`` (radians).

    An array of angles gives the stack of rotations, shape ``theta.shape + (2, 2)``.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("rotation angle must be finite")
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def phase_gate(phi: float) -> np.ndarray:
    """Phase gate diag(1, e^{i phi}) for angle ``phi`` (radians)."""
    if not np.isfinite(phi):
        raise ValueError("phase angle must be finite")
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes, so batches are safe)."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(2))) <= atol)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2, scrubbing the Hermiticity drift of a product chain."""
    return (m + m.conj().T) / 2.0


def validate_state(psi) -> np.ndarray:
    """Return ``psi`` as a complex (2,) array, checking normalization.

    Raises ValueError unless |a0|^2 + |a1|^2 = 1 within 1e-12.
    """
    a = np.asarray(psi, dtype=complex)
    if a.shape != (2,):
        raise ValueError(f"state must have shape (2,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("state has non-finite amplitudes")
    norm_sq = float(np.real(np.vdot(a, a)))
    if abs(norm_sq - 1.0) > ATOL:
        raise ValueError(f"state is not normalized: |a0|^2 + |a1|^2 = {norm_sq!r}")
    return a


def validate_density(rho) -> np.ndarray:
    """Return ``rho`` as a complex (2, 2) array, checking density-matrix invariants.

    Hermitian within 1e-12, unit trace within 1e-12, eigenvalues >= -1e-12.
    Validation runs here, at construction boundaries; operations downstream
    assume a valid input and re-symmetrize their outputs.
    """
    a = _as_mat2(rho, "density matrix")
    if np.max(np.abs(a - a.conj().T)) > ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    trace = complex(a[0, 0] + a[1, 1])
    if abs(trace - 1.0) > ATOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")
    lowest = float(np.linalg.eigvalsh(a)[0])
    if lowest < -ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")
    return a


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state."""
    psi = validate_state(psi)
    return np.outer(psi, psi.conj())


def conjugate_by(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """U rho U^dagger for unitary U, re-symmetrized.

    Raises ValueError when ``u`` is not unitary within 1e-10.
    """
    u = _as_mat2(u, "unitary")
    if not is_unitary(u):
        raise ValueError("operator is not unitary within 1e-10")
    rho = np.asarray(rho, dtype=complex)
    return symmetrize(u @ rho @ u.conj().T)


def fidelity(psi, rho) -> float:
    """Squared overlap <psi|rho|psi> as a real number in [0, 1].

    The value of a Hermitian form is real up to rounding; any imaginary
    residue above 1e-12 indicates an invalid input and raises.
    """
    psi = validate_state(psi)
    rho = validate_density(rho)
    value = complex(psi.conj() @ rho @ psi)
    if abs(value.imag) > ATOL:
        raise ValueError(f"fidelity has imaginary residue {value.imag!r}")
    return min(max(value.real, 0.0), 1.0)
