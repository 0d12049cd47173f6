import numpy as np
import pytest

from threestage import algebra


def hand_product(a, b):
    """Explicit 2x2 complex product, independent of the library's matmul."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.empty((2, 2), dtype=complex)
    for r in range(2):
        for c in range(2):
            out[r, c] = a[r, 0] * b[0, c] + a[r, 1] * b[1, c]
    return out


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    _, vectors = np.linalg.eigh(a + a.conj().T)
    return vectors


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(algebra.rotation(0.0), np.eye(2), atol=1e-15)

    def test_quarter_turn_maps_zero_to_one(self):
        out = algebra.rotation(np.pi / 2) @ np.array([1.0, 0.0], dtype=complex)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_group_law_specific_angles(self):
        # oracle: explicit product of the two matrices
        product = hand_product(algebra.rotation(0.3), algebra.rotation(1.1))
        np.testing.assert_allclose(product, algebra.rotation(1.4), atol=1e-12)

    def test_group_law_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = rng.uniform(-10, 10, size=2)
            np.testing.assert_allclose(
                algebra.rotation(a) @ algebra.rotation(b),
                algebra.rotation(a + b),
                atol=1e-12,
            )

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(12)
        for theta in rng.uniform(-50, 50, size=1000):
            r = algebra.rotation(theta)
            assert np.max(np.abs(r @ r.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(ValueError):
            algebra.rotation(bad)

    def test_array_of_angles_stacks_the_scalar_rotations_exactly(self):
        angles = np.random.default_rng(12).uniform(-50, 50, size=(3, 40))
        stacked = np.array([[algebra.rotation(float(t)) for t in row] for row in angles])
        assert algebra.rotation(angles).shape == (3, 40, 2, 2)
        np.testing.assert_array_equal(algebra.rotation(angles), stacked)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_with_one_non_finite_angle_rejected(self, bad):
        angles = np.linspace(0.0, 1.0, 9)
        angles[4] = bad
        with pytest.raises(ValueError):
            algebra.rotation(angles)


class TestPhaseGate:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(algebra.phase_gate(0.0), np.eye(2), atol=1e-15)

    def test_pi_is_diag_one_minus_one(self):
        np.testing.assert_allclose(
            algebra.phase_gate(np.pi), np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_inverse_pair(self):
        product = algebra.phase_gate(0.7) @ algebra.phase_gate(-0.7)
        np.testing.assert_allclose(product, np.eye(2), atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            algebra.phase_gate(np.inf)


class TestDagger:
    def test_identity(self):
        np.testing.assert_allclose(algebra.dagger(np.eye(2)), np.eye(2))

    def test_rotation_dagger_is_negative_angle(self):
        np.testing.assert_allclose(
            algebra.dagger(algebra.rotation(0.4)), algebra.rotation(-0.4), atol=1e-15
        )

    def test_phase_gate_dagger_is_negative_angle(self):
        np.testing.assert_allclose(
            algebra.dagger(algebra.phase_gate(1.2)), algebra.phase_gate(-1.2), atol=1e-15
        )

    def test_involution(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_array_equal(algebra.dagger(algebra.dagger(m)), m)


class TestConjugateBy:
    def test_identity_leaves_rho(self):
        rho = algebra.density_from_pure([0.6, 0.8])
        np.testing.assert_allclose(algebra.conjugate_by(np.eye(2), rho), rho, atol=1e-15)

    def test_quarter_turn_on_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = algebra.conjugate_by(algebra.rotation(np.pi / 2), rho)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_inverse_pair_restores(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng)
        forward = algebra.conjugate_by(algebra.rotation(0.9), rho)
        back = algebra.conjugate_by(algebra.rotation(-0.9), forward)
        np.testing.assert_allclose(back, rho, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            rho = random_density(rng)
            out = algebra.conjugate_by(random_unitary(rng), rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert abs(np.trace(out).imag) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_non_unitary_rejected(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            algebra.conjugate_by(np.diag([1.0, 0.5]), rho)


class TestCommutator:
    def test_identity_commutes_with_everything(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(algebra.commutator(np.eye(2), m), 0.0, atol=1e-15)

    def test_rotations_commute(self):
        out = algebra.commutator(algebra.rotation(0.3), algebra.rotation(2.1))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_phase_gate_vs_quarter_turn(self):
        # oracle: explicit products, entries land on an off-diagonal +/-2 pattern
        p, r = algebra.phase_gate(np.pi), algebra.rotation(np.pi / 2)
        expected = hand_product(p, r) - hand_product(r, p)
        np.testing.assert_allclose(expected, [[0, -2], [-2, 0]], atol=1e-15)
        np.testing.assert_allclose(algebra.commutator(p, r), expected, atol=1e-15)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_array_equal(
                algebra.commutator(a, b), -algebra.commutator(b, a)
            )


class TestFidelity:
    def test_pure_state_with_itself(self):
        psi = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
        assert algebra.fidelity(psi, algebra.density_from_pure(psi)) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_states(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        assert algebra.fidelity([1.0, 0.0], rho) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert algebra.fidelity(plus, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-14)

    def test_range_for_random_inputs(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            xi = rng.uniform(0, 2 * np.pi)
            psi = np.array([np.cos(xi), np.sin(xi)], dtype=complex)
            value = algebra.fidelity(psi, random_density(rng))
            assert 0.0 <= value <= 1.0

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            algebra.fidelity([1.0, 1.0], np.eye(2, dtype=complex) / 2)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            algebra.fidelity([1.0, 0.0], np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            algebra.fidelity([1.0, 0.0], np.array([[0.5, 0.5], [0.1, 0.5]]))


class TestDensityFromPure:
    def test_ground_state(self):
        np.testing.assert_allclose(
            algebra.density_from_pure([1.0, 0.0]), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_plus_state(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(algebra.density_from_pure(plus), np.full((2, 2), 0.5), atol=1e-15)

    def test_xi_pi_over_six(self):
        # oracle: outer product by hand, cos(pi/6) = sqrt(3)/2, sin = 1/2
        psi = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)], dtype=complex)
        expected = np.array(
            [
                [psi[0] * psi[0].conjugate(), psi[0] * psi[1].conjugate()],
                [psi[1] * psi[0].conjugate(), psi[1] * psi[1].conjugate()],
            ]
        )
        np.testing.assert_allclose(expected, [[0.75, np.sqrt(3) / 4], [np.sqrt(3) / 4, 0.25]], atol=1e-15)
        np.testing.assert_allclose(algebra.density_from_pure(psi), expected, atol=1e-15)

    def test_trace_one_rank_one(self):
        rng = np.random.default_rng(19)
        xi = rng.uniform(0, 2 * np.pi)
        rho = algebra.density_from_pure([np.cos(xi), np.sin(xi)])
        assert abs(np.trace(rho) - 1.0) < 1e-14
        eigenvalues = np.linalg.eigvalsh(rho)
        np.testing.assert_allclose(sorted(eigenvalues), [0.0, 1.0], atol=1e-14)


class TestValidation:
    def test_validate_density_accepts_valid(self):
        algebra.validate_density(np.eye(2, dtype=complex) / 2)

    def test_validate_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            algebra.validate_density(np.diag([0.6, 0.6]))

    def test_validate_density_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            algebra.validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_validate_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            algebra.validate_density(np.diag([1.5, -0.5]))

    def test_validate_state_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            algebra.validate_state([1.0, 0.0, 0.0])
