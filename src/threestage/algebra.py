"""2x2 complex matrix and single-qubit state algebra.

Everything in this package rides on plain numpy arrays: operators and density
matrices are complex arrays of shape (2, 2), pure states are complex arrays of
shape (2,). This module builds the protocol's unitaries, enforces the state
and density-matrix invariants, and provides the handful of algebraic
operations the rest of the package is assembled from. All functions are pure
and all values are treated as immutable. The matrix functions also take
stacks of shape (..., 2, 2) and broadcast over the leading axes, checking
every member; a stacked check fails with the message of its first bad member.
"""

from __future__ import annotations

import numpy as np

# Algebraic identities on 2x2 objects hold to near machine precision.
ATOL = 1e-12
# Unitarity preconditions get one matrix product of extra slack.
UNITARY_ATOL = 1e-10

_IDENTITY = np.eye(2)


def _as_mat2(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"{name} must have shape (..., 2, 2), got {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{name} has non-finite entries")
    return a


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array, else ValueError "<name> must be finite, got <first bad value>"."""
    try:
        a = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite, got {_first_overflow(values)!r}") from None
    finite = np.isfinite(a)
    if not np.logical_and.reduce(finite, axis=None):
        raise ValueError(f"{name} must be finite, got {float(a[~finite][0])!r}")
    return a


def _first_overflow(values):
    """The first entry of ``values`` that a float cannot hold, such as the int 10**400."""
    for value in np.asarray(values, dtype=object).flat:
        try:
            float(value)
        except OverflowError:
            return value


def rotation(theta) -> np.ndarray:
    """Real rotation [[cos t, -sin t], [sin t, cos t]] by angle ``theta`` (radians).

    An array of angles gives the stack of rotations, shape ``theta.shape + (2, 2)``.
    """
    return _rotation(_finite("rotation angle", theta))


def _rotation(theta) -> np.ndarray:
    """``rotation`` of angles already checked finite, such as a config's or a channel's."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def phase_gate(phi) -> np.ndarray:
    """Phase gate diag(1, e^{i phi}) for angle ``phi`` (radians).

    An array of angles gives the stack of gates, shape ``phi.shape + (2, 2)``.
    """
    return _phase_gate(_finite("phase angle", phi))


def _phase_gate(phi) -> np.ndarray:
    """``phase_gate`` of angles already checked finite, such as a channel's."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = np.exp(1j * phi)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes, so batches are safe)."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


def _within_unitary(u: np.ndarray, u_dagger: np.ndarray, atol: float) -> bool:
    """max |U^dagger U - 1| <= atol over every entry (and member), given U^dagger."""
    return bool(np.maximum.reduce(np.abs(u_dagger @ u - _IDENTITY), axis=None, initial=0.0) <= atol)


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u, dtype=complex)
    return _within_unitary(u, u.conj().swapaxes(-1, -2), atol)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2, scrubbing the Hermiticity drift of a product chain."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def validate_state(psi) -> np.ndarray:
    """Return ``psi`` as a complex (2,) array, checking normalization.

    Raises ValueError unless |a0|^2 + |a1|^2 = 1 within 1e-12.
    """
    a = np.asarray(psi, dtype=complex)
    if a.shape != (2,):
        raise ValueError(f"state must have shape (2,), got {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("state has non-finite amplitudes")
    norm_sq = float(np.real(np.vdot(a, a)))
    if abs(norm_sq - 1.0) > ATOL:
        raise ValueError(f"state is not normalized: |a0|^2 + |a1|^2 = {norm_sq!r}")
    return a


def _lowest_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Lower eigenvalue of each Hermitian 2x2 in ``a``, in closed form.

    (tr - hypot(a00 - a11, 2|a10|)) / 2 from the diagonal's real parts and the
    lower triangle, the entries ``np.linalg.eigvalsh`` reads; it agrees with
    that routine to about 1e-16 in absolute terms on density matrices.
    """
    a00, a11 = a[..., 0, 0].real, a[..., 1, 1].real
    return (a00 + a11 - np.hypot(a00 - a11, 2.0 * np.abs(a[..., 1, 0]))) / 2.0


def validate_density(rho) -> np.ndarray:
    """Return ``rho`` as a complex (..., 2, 2) array, checking density-matrix invariants.

    Hermitian within 1e-12, unit trace within 1e-12, eigenvalues >= -1e-12.
    Validation runs here, at construction boundaries; operations downstream
    assume a valid input and re-symmetrize their outputs.
    """
    a = _as_mat2(rho, "density matrix")
    if np.maximum.reduce(np.abs(a - a.conj().swapaxes(-1, -2)), axis=None, initial=0.0) > ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    trace = a[..., 0, 0] + a[..., 1, 1]
    bad = np.abs(trace - 1.0) > ATOL
    if np.logical_or.reduce(bad, axis=None):
        raise ValueError(f"density matrix trace is {complex(trace[bad][0])!r}, expected 1")
    lowest = _lowest_eigenvalue(a)
    bad = lowest < -ATOL
    if np.logical_or.reduce(bad, axis=None):
        raise ValueError(f"density matrix has negative eigenvalue {float(lowest[bad][0])!r}")
    return a


def density_from_pure(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state."""
    psi = validate_state(psi)
    return np.outer(psi, psi.conj())


def conjugate_by(u: np.ndarray, rho: np.ndarray, *, _built: np.ndarray | None = None) -> np.ndarray:
    """U rho U^dagger for unitary U, re-symmetrized; stacks of either broadcast.

    Raises ValueError when ``u`` (every member of a stack) is not unitary
    within 1e-10, or has a wrong shape or a non-finite entry. Every operator
    from outside the package takes that one numpy test.

    ``_built`` carries U^dagger, the undo rotation of a rotation or the
    rotation of an undo rotation, for the ones a round builds itself with
    ``_rotation`` from angles its config checked finite. The call then takes
    complex arrays as they are, skips the test and forms no adjoint, because
    those operators are unitary by construction. With c = fl(cos t) and
    s = fl(sin t), the diagonal of U^dagger U - I is c^2 + s^2 - 1, within a
    few ulp of 0; the off-diagonal c(-s) + sc is exactly 0; and ``dagger``
    is an exact conjugate transpose, so the adjoint given has the bytes and
    the memory layout of ``u.conj().swapaxes(-1, -2)``.
    """
    if _built is None:
        u = _as_mat2(u, "unitary")
        _built = u.conj().swapaxes(-1, -2)
        if not _within_unitary(u, _built, UNITARY_ATOL):
            raise ValueError("operator is not unitary within 1e-10")
        rho = np.asarray(rho, dtype=complex)
    return symmetrize(_sandwich(u, rho, _built))


def _sandwich(u: np.ndarray, rho: np.ndarray, u_dagger: np.ndarray) -> np.ndarray:
    """U rho U^dagger of complex arrays, given U^dagger, not re-symmetrized; stacks broadcast.

    Three cases, each with the bytes of ``u @ rho @ u.conj().swapaxes(-1, -2)``:

    - A single 2x2 pair multiplies through ``ndarray.dot``. On C- or
      F-ordered operands, such as a round's, it makes the same BLAS call as
      ``@`` (same order, same transpose flags) without the matmul ufunc's
      dispatch.
    - One 2x2 ``u`` and a stack ``rho``: the left products ``u @ rho`` stay
      one BLAS call per member, and ``_right`` forms the right products in
      one call. The left product cannot batch the same way: laying its
      members end to end needs ``rho^T U^T``, which hands BLAS the two
      factors in the other order, and a complex product rounds differently
      when its factors swap.
    - A stacked ``u`` multiplies through ``@``.

    ``tests/test_round_reference.py`` pins every case against ``@``.
    """
    if u.ndim == 2 and rho.ndim == 2:
        return u.dot(rho).dot(u_dagger)
    return _right(u @ rho, u_dagger)


def _right(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` for a stack ``left``, with the bytes of ``@``.

    A 2x2 ``right`` shared by every member multiplies the members' rows laid
    end to end in one ``dot``: numpy hands BLAS ``right^T`` times the rows as
    columns, so each entry is formed from the same operands in the same
    order as in a member's own call. A stacked ``right`` goes through ``@``.
    """
    if right.ndim == 2:
        return left.reshape(-1, 2).dot(right).reshape(left.shape)
    return left @ right


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
