import numpy as np
import pytest

from threestage import algebra, channels, fidelity
from threestage.channels import NoiseKind
from threestage.fidelity import QuadratureSpec, RotationAveragedOracle


def naive_rotation_average(channel, xi, points):
    """Literal midpoint double loop over numeric_fidelity; the slow reference."""
    grid = (np.arange(points) + 0.5) * (2 * np.pi / points)
    total = 0.0
    for theta in grid:
        for phi in grid:
            for bit in (0, 1):
                total += 0.5 * fidelity.numeric_fidelity(channel, xi, theta, phi, bit)
    return total / points**2


def random_channel(rng, count):
    """A channel of ``count`` Kraus operators cut from a random 2*count x 2 isometry."""
    gaussian = rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2))
    isometry, _ = np.linalg.qr(gaussian)
    operators = tuple(isometry[2 * i : 2 * i + 2] for i in range(count))
    return channels.QuantumChannel(kind=NoiseKind.IDENTITY, operators=operators, parameter=0.0)


class TestClosedForms:
    def test_noiseless_limits(self):
        for kind in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING):
            for xi in (0.0, 0.4, 1.9):
                assert fidelity.closed_form_fidelity(kind, 0.0, xi) == pytest.approx(1.0, abs=1e-12)
        assert fidelity.closed_form_fidelity(NoiseKind.COLLECTIVE_DEPHASING, 0.0, 0.7) == pytest.approx(1.0, abs=1e-12)
        assert fidelity.closed_form_fidelity(NoiseKind.COLLECTIVE_ROTATION, 0.0, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_full_amplitude_damping_is_half(self):
        assert fidelity.closed_form_fidelity(NoiseKind.AMPLITUDE_DAMPING, 1.0, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_full_phase_damping_computational_basis(self):
        assert fidelity.closed_form_fidelity(NoiseKind.PHASE_DAMPING, 1.0, 0.0) == pytest.approx(0.625, abs=1e-12)

    def test_collective_dephasing_pi_extremes(self):
        cd = NoiseKind.COLLECTIVE_DEPHASING
        assert fidelity.closed_form_fidelity(cd, np.pi, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert fidelity.closed_form_fidelity(cd, np.pi, np.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_collective_rotation_law(self):
        cr = NoiseKind.COLLECTIVE_ROTATION
        assert fidelity.closed_form_fidelity(cr, np.pi / 6, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert fidelity.closed_form_fidelity(cr, np.pi / 3, 1.2) == pytest.approx(1.0, abs=1e-12)
        theta = 0.91
        assert fidelity.closed_form_fidelity(cr, theta, 0.5) == pytest.approx(np.cos(3 * theta) ** 2, abs=1e-14)

    def test_collective_rotation_period(self):
        rng = np.random.default_rng(41)
        cr = NoiseKind.COLLECTIVE_ROTATION
        for theta in rng.uniform(0, 2 * np.pi, size=100):
            a = fidelity.closed_form_fidelity(cr, theta, 0.0)
            b = fidelity.closed_form_fidelity(cr, theta + np.pi / 3, 0.0)
            assert abs(a - b) < 1e-12

    def test_outputs_clamped_to_unit_interval(self):
        rng = np.random.default_rng(42)
        for kind, span in [
            (NoiseKind.AMPLITUDE_DAMPING, 1.0),
            (NoiseKind.PHASE_DAMPING, 1.0),
            (NoiseKind.COLLECTIVE_DEPHASING, 2 * np.pi),
            (NoiseKind.COLLECTIVE_ROTATION, 2 * np.pi),
        ]:
            values = fidelity.closed_form_fidelity(
                kind, rng.uniform(0, span, size=200), rng.uniform(0, 2 * np.pi, size=200)
            )
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS)
    def test_law_is_mean_plus_cos_4xi_swing(self, kind):
        lo, hi = kind.natural_range
        params = np.linspace(lo, hi, 33)[:, None]
        xis = np.linspace(0.0, 2 * np.pi, 17)[None, :]
        opposite = fidelity.closed_form_fidelity(kind, params, xis) + fidelity.closed_form_fidelity(
            kind, params, xis + np.pi / 4
        )
        mean = fidelity.closed_form_average_fidelity(kind, params)
        assert np.max(np.abs(opposite - 2 * mean)) <= 1e-14

    @pytest.mark.parametrize("kind, preferred", [
        (NoiseKind.AMPLITUDE_DAMPING, "pi/4"),
        (NoiseKind.PHASE_DAMPING, "0"),
        (NoiseKind.COLLECTIVE_DEPHASING, "0"),
        (NoiseKind.COLLECTIVE_ROTATION, None),
    ])
    def test_preferred_encoding_states(self, kind, preferred):
        lo, hi = kind.natural_range
        interior = np.linspace(lo, hi, 33)[1:-1]
        at_zero = fidelity.closed_form_fidelity(kind, interior, 0.0)
        at_quarter = fidelity.closed_form_fidelity(kind, interior, np.pi / 4)
        if preferred == "pi/4":
            assert np.all(at_quarter > at_zero)
        elif preferred == "0":
            assert np.all(at_zero > at_quarter)
        else:
            assert np.array_equal(at_zero, at_quarter)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            fidelity.closed_form_fidelity(NoiseKind.AMPLITUDE_DAMPING, 1.5, 0.0)
        with pytest.raises(ValueError):
            fidelity.closed_form_fidelity(NoiseKind.COLLECTIVE_DEPHASING, np.nan, 0.0)
        with pytest.raises(ValueError):
            fidelity.closed_form_fidelity(NoiseKind.IDENTITY, 0.0, 0.0)


class TestClosedFormAverages:
    def test_endpoints_at_zero_noise(self):
        for kind in (
            NoiseKind.AMPLITUDE_DAMPING,
            NoiseKind.PHASE_DAMPING,
            NoiseKind.COLLECTIVE_DEPHASING,
            NoiseKind.COLLECTIVE_ROTATION,
        ):
            assert fidelity.closed_form_average_fidelity(kind, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_full_damping_values(self):
        assert fidelity.closed_form_average_fidelity(NoiseKind.AMPLITUDE_DAMPING, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert fidelity.closed_form_average_fidelity(NoiseKind.PHASE_DAMPING, 1.0) == pytest.approx(0.5625, abs=1e-12)

    def test_collective_dephasing_pi_bottoms_at_half(self):
        assert fidelity.closed_form_average_fidelity(NoiseKind.COLLECTIVE_DEPHASING, np.pi) == pytest.approx(0.5, abs=1e-9)

    def test_collective_rotation_average_equals_pointwise(self):
        theta = 1.3
        avg = fidelity.closed_form_average_fidelity(NoiseKind.COLLECTIVE_ROTATION, theta)
        assert avg == pytest.approx(np.cos(3 * theta) ** 2, abs=1e-14)

    def test_phase_beats_amplitude_damping(self):
        etas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        pd = fidelity.closed_form_average_fidelity(NoiseKind.PHASE_DAMPING, etas)
        ad = fidelity.closed_form_average_fidelity(NoiseKind.AMPLITUDE_DAMPING, etas)
        assert np.all(pd >= ad)


class TestNumericOracle:
    def test_identity_channel_gives_unity(self):
        assert fidelity.numeric_fidelity(channels.identity_channel(), 0.3, 1.0, 2.0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_collective_rotation_pointwise_law(self):
        value = fidelity.numeric_fidelity(channels.collective_rotation(0.4), 1.1, 0.7, 2.2, 1)
        assert value == pytest.approx(np.cos(1.2) ** 2, abs=1e-12)

    def test_full_damping_bit_average(self):
        ch = channels.amplitude_damping(1.0)
        total = sum(fidelity.numeric_fidelity(ch, 0.2, 0.9, 1.7, bit) for bit in (0, 1))
        assert total / 2 == pytest.approx(0.5, abs=1e-12)


class TestRotationAverage:
    def test_identity_channel_gives_unity(self):
        quad = QuadratureSpec(rotation_points=16, xi_points=16)
        assert fidelity.rotation_averaged_fidelity(channels.identity_channel(), 0.9, quad) == pytest.approx(1.0, abs=1e-12)

    def test_matches_literal_double_loop(self):
        # same midpoint sum, evaluated through the precomputed quadratic form
        quad = QuadratureSpec(rotation_points=8, xi_points=8)
        rng = np.random.default_rng(43)
        cases = [
            channels.amplitude_damping(0.37),
            channels.phase_damping(0.81),
            channels.collective_dephasing(2.2),
            channels.collective_rotation(0.6),
            random_channel(rng, 3),
        ]
        for ch in cases:
            xi = rng.uniform(0, 2 * np.pi)
            fast = fidelity.rotation_averaged_fidelity(ch, xi, quad)
            slow = naive_rotation_average(ch, xi, 8)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_exact_rule_is_resolution_independent(self):
        # degree <= 4 in each angle: 8 points are already exact
        rng = np.random.default_rng(44)
        xis = np.linspace(0.0, 2 * np.pi, 17)
        for count in (1, 2, 3, 4):
            ch = random_channel(rng, count)
            low = RotationAveragedOracle(ch, QuadratureSpec(rotation_points=8, xi_points=8))
            high = RotationAveragedOracle(ch, QuadratureSpec(rotation_points=256, xi_points=8))
            np.testing.assert_allclose(low.fidelity_at(xis), high.fidelity_at(xis), rtol=0, atol=1e-13)

    def test_phase_damping_anchor(self):
        value = fidelity.rotation_averaged_fidelity(channels.phase_damping(1.0), 0.0)
        assert value == pytest.approx(0.625, abs=1e-9)

    def test_collective_rotation_resolution_independent(self):
        ch = channels.collective_rotation(0.4)
        low = fidelity.rotation_averaged_fidelity(ch, 0.3, QuadratureSpec(rotation_points=8, xi_points=8))
        high = fidelity.rotation_averaged_fidelity(ch, 0.3, QuadratureSpec(rotation_points=64, xi_points=8))
        assert low == pytest.approx(np.cos(1.2) ** 2, abs=1e-12)
        assert high == pytest.approx(np.cos(1.2) ** 2, abs=1e-12)

    def test_oracle_object_reuse_matches_function(self):
        quad = QuadratureSpec(rotation_points=16, xi_points=16)
        ch = channels.amplitude_damping(0.5)
        oracle = RotationAveragedOracle(ch, quad)
        xis = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(
            oracle.fidelity_at(xis),
            [fidelity.rotation_averaged_fidelity(ch, x, quad) for x in xis],
            atol=1e-14,
        )


class TestStateAverage:
    # the xi integrand is a trigonometric polynomial of degree four, so even
    # coarse midpoint grids integrate it exactly
    def test_closed_form_average_consistency(self):
        quad = QuadratureSpec(rotation_points=8, xi_points=64)
        for kind, param in [
            (NoiseKind.AMPLITUDE_DAMPING, 0.35),
            (NoiseKind.PHASE_DAMPING, 0.8),
            (NoiseKind.COLLECTIVE_DEPHASING, 1.1),
            (NoiseKind.COLLECTIVE_ROTATION, 2.4),
        ]:
            numeric = fidelity.state_averaged_fidelity(kind, param, quad)
            closed = fidelity.closed_form_average_fidelity(kind, param)
            assert numeric == pytest.approx(closed, abs=1e-9)

    def test_channel_oracle_average_matches_closed_average(self):
        quad = QuadratureSpec(rotation_points=16, xi_points=64)
        value = RotationAveragedOracle(channels.phase_damping(0.5), quad).state_average()
        closed = fidelity.closed_form_average_fidelity(NoiseKind.PHASE_DAMPING, 0.5)
        assert value == pytest.approx(closed, abs=1e-9)

    def test_zero_noise_averages_to_unity(self):
        assert fidelity.state_averaged_fidelity(NoiseKind.AMPLITUDE_DAMPING, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_param_argument_discipline(self):
        with pytest.raises(TypeError):
            fidelity.state_averaged_fidelity(NoiseKind.AMPLITUDE_DAMPING)


class TestCommutatorDiagnostics:
    def test_zero_when_noiseless(self):
        for index in (0, 1):
            np.testing.assert_allclose(fidelity.commutator_defect(index, 0.0, 1.0), 0.0, atol=1e-15)

    def test_zero_when_rotation_trivial(self):
        for index in (0, 1):
            np.testing.assert_allclose(fidelity.commutator_defect(index, 0.7, 0.0), 0.0, atol=1e-15)

    def test_kraus_zero_value(self):
        # oracle: direct multiplication, 1 - sqrt(1/4) = 1/2; the exchange
        # pattern enters with a minus sign
        ops = channels.amplitude_damping(0.75).operators
        direct = ops[0] @ algebra.rotation(np.pi / 2) - algebra.rotation(np.pi / 2) @ ops[0]
        np.testing.assert_allclose(direct, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(fidelity.commutator_defect(0, 0.75, np.pi / 2), direct, atol=1e-15)

    def test_kraus_one_value(self):
        ops = channels.amplitude_damping(1.0).operators
        direct = ops[1] @ algebra.rotation(np.pi / 2) - algebra.rotation(np.pi / 2) @ ops[1]
        np.testing.assert_allclose(direct, [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)
        np.testing.assert_allclose(fidelity.commutator_defect(1, 1.0, np.pi / 2), direct, atol=1e-15)

    def test_closed_form_matches_multiplication_on_grid(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, 2 * np.pi, 11):
                for index in (0, 1):
                    computed = fidelity.commutator_defect(index, eta, theta)
                    expected = fidelity.commutator_closed_form(index, eta, theta)
                    assert np.max(np.abs(computed - expected)) < 1e-12

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            fidelity.commutator_defect(2, 0.5, 1.0)
        with pytest.raises(ValueError):
            fidelity.commutator_defect(0, 1.5, 1.0)


class TestQuadratureSpec:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rotation_points=4)
        with pytest.raises(ValueError):
            QuadratureSpec(xi_points=7)

    def test_resolution_cap(self):
        with pytest.raises(ValueError, match="rotation_points must be <= 4096, got 4097"):
            QuadratureSpec(rotation_points=4097)
        with pytest.raises(ValueError, match="xi_points must be <= 4096, got 4097"):
            QuadratureSpec(xi_points=4097)
        QuadratureSpec(rotation_points=4096, xi_points=4096)

    def test_midpoint_grid_covers_period(self):
        grid = fidelity.midpoint_grid(8)
        assert len(grid) == 8
        assert grid[0] == pytest.approx(np.pi / 8)
        assert grid[-1] < 2 * np.pi
