import tracemalloc

import numpy as np
import pytest

from threestage import algebra, channels, fidelity, protocol
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


def _printed_ad_swing(eta):
    root = np.sqrt(1.0 - eta)
    return (1.0 - eta) * (eta * (eta + 3.0 * root - 5.0) - 4.0 * root + 4.0) / 16.0


def _printed_pd_swing(eta):
    root = np.sqrt(1.0 - eta)
    return (root * eta - 3.0 * eta - 4.0 * root + 4.0) / 16.0


def _printed_cd_swing(phi):
    return (6.0 * np.cos(2.0 * phi) - 15.0 * np.cos(phi) - np.cos(3.0 * phi) + 10.0) / 64.0


# The cos 4xi swings as the paper prints them, expanded; they cancel near
# zero noise, so the library writes them in factored form.
PRINTED_SWINGS = {
    NoiseKind.AMPLITUDE_DAMPING: _printed_ad_swing,
    NoiseKind.PHASE_DAMPING: _printed_pd_swing,
    NoiseKind.COLLECTIVE_DEPHASING: _printed_cd_swing,
}


def _expanded_ad_mean(eta):
    root = np.sqrt(1.0 - eta)
    return (
        4.0 * (root + 3.0)
        - eta * (np.square(eta) - 3.0 * (root + 2.0) * eta + 7.0 * root + 9.0)
    ) / 16.0


def _expanded_pd_mean(eta):
    return (np.sqrt(1.0 - eta) + 3.0) * (4.0 - eta) / 16.0


def _expanded_cd_mean(phi):
    return (1.0 + np.power(np.cos(phi / 2.0), 6)) / 2.0


def _expanded_cr_mean(theta):
    c = np.cos(theta)
    return np.square(c * (4.0 * np.square(c) - 3.0))


# Each kind's mean multiplied out on its own, as the library wrote it before
# the one law over the x-z block; a reference for the law's means.
EXPANDED_MEANS = {
    NoiseKind.AMPLITUDE_DAMPING: _expanded_ad_mean,
    NoiseKind.PHASE_DAMPING: _expanded_pd_mean,
    NoiseKind.COLLECTIVE_DEPHASING: _expanded_cd_mean,
    NoiseKind.COLLECTIVE_ROTATION: _expanded_cr_mean,
}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def xz_block(channel):
    """(alpha, beta) of the channel's x-z block, straight from its Kraus operators.

    T_ij = tr(sigma_i N(sigma_j)) / 2 is the Pauli transfer matrix; on the x-z
    plane, as w = z + i x, it acts as w -> alpha w + beta conj(w). Stacks give
    one (alpha, beta) per member.
    """
    ops = np.stack(np.broadcast_arrays(*channel.operators))

    def transfer(out, into):
        image = np.sum(ops @ into @ algebra.dagger(ops), axis=0)
        return np.real(np.trace(out @ image, axis1=-2, axis2=-1)) / 2

    txx, txz, tzx, tzz = (transfer(i, j) for i in (PAULI_X, PAULI_Z) for j in (PAULI_X, PAULI_Z))
    return (txx + tzz) / 2 + 1j * (txz - tzx) / 2, (tzz - txx) / 2 + 1j * (txz + tzx) / 2


def law_fidelity(alpha, beta, xi):
    """F(xi) = 1/2 + [Re alpha^3 + |beta|^2 Re(beta e^{-4i xi})] / 2, for a complex beta."""
    return 0.5 + (np.real(alpha**3) + np.abs(beta) ** 2 * np.real(beta * np.exp(-4j * xi))) / 2


# The law's inputs: each natural range, the ends of [0, 1] and their nearest
# doubles, and angles far beyond one turn.
EDGE_PROBABILITIES = np.array([0.0, 5e-324, 1e-300, np.nextafter(1.0, 0.0), 1.0])
EDGE_ANGLES = np.array([0.0, np.pi / 2, np.pi, 1234567.891, 1e12, 123456789012.345])


def law_inputs(kind):
    edges = EDGE_PROBABILITIES if kind.is_probability else EDGE_ANGLES
    return np.concatenate([np.linspace(*kind.natural_range, 10001), edges])


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

    def test_an_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError) as info:
            fidelity.closed_form_fidelity(NoiseKind.COLLECTIVE_ROTATION, 10**400, 0.1)
        assert str(info.value) == f"Theta must be finite, got {10**400!r}"

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

    @pytest.mark.parametrize("kind, sign", [
        (NoiseKind.AMPLITUDE_DAMPING, -1.0),
        (NoiseKind.PHASE_DAMPING, 1.0),
        (NoiseKind.COLLECTIVE_DEPHASING, 1.0),
    ])
    def test_swing_sign_is_exact_at_every_interior_point(self, kind, sign):
        lo, hi = kind.natural_range
        _, swing = fidelity._coefficients(kind, np.linspace(lo, hi, 10001)[1:-1])
        assert np.all(np.sign(swing) == sign)

    @pytest.mark.parametrize("kind", [
        NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING, NoiseKind.COLLECTIVE_DEPHASING,
    ])
    def test_swing_matches_the_printed_expanded_form(self, kind):
        lo, hi = kind.natural_range
        params = np.linspace(lo, hi, 10001)
        _, swing = fidelity._coefficients(kind, params)
        gap = np.max(np.abs(swing - PRINTED_SWINGS[kind](params)))
        assert gap <= np.finfo(float).eps  # 2.2e-16

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS, ids=lambda kind: kind.value)
    def test_rules_are_the_cubes_of_the_channels_own_block(self, kind):
        params = law_inputs(kind)
        twice_mean, beta_cubed = fidelity._CLOSED_FORMS[kind](params)
        alpha, beta = xz_block(channels.from_kind(kind, params))
        assert np.max(np.abs(twice_mean - (1 + np.real(alpha**3)))) <= 16 * np.finfo(float).eps
        assert np.max(np.abs(beta_cubed - beta**3)) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS, ids=lambda kind: kind.value)
    def test_law_means_match_the_expanded_means(self, kind):
        params = law_inputs(kind)
        mean, _ = fidelity._coefficients(kind, params)
        assert np.max(np.abs(mean - EXPANDED_MEANS[kind](params))) <= 2 * np.finfo(float).eps

    def test_law_holds_for_channels_it_was_not_written_for(self):
        rng = np.random.default_rng(48)
        worst = 0.0
        for _ in range(200):
            channel = random_channel(rng, int(rng.integers(1, 5)))
            xis = rng.uniform(0.0, 2 * np.pi, 50)
            oracle = RotationAveragedOracle(channel, QuadratureSpec(8, 8)).fidelity_at(xis)
            worst = max(worst, float(np.max(np.abs(law_fidelity(*xz_block(channel), xis) - oracle))))
        assert worst <= 4e-15

    def test_preferred_encoding_is_a_quarter_of_arg_beta(self):
        rng = np.random.default_rng(49)
        xis = fidelity.midpoint_grid(64)
        for _ in range(20):
            channel = random_channel(rng, int(rng.integers(1, 5)))
            oracle = RotationAveragedOracle(channel, QuadratureSpec(8, 8))
            preferred = np.angle(xz_block(channel)[1]) / 4 + np.array([0.0, np.pi / 2])
            best = oracle.fidelity_at(preferred)
            assert best[0] == pytest.approx(best[1], abs=1e-15)
            assert np.all(oracle.fidelity_at(xis) <= best[0] + 1e-15)

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

    @pytest.mark.parametrize("theta", [np.pi / 6 + 1e-9, np.pi / 6 + 1e-6, np.pi / 2 + 1e-9])
    def test_collective_rotation_mean_keeps_its_precision_near_a_zero(self, theta):
        # 1 + cos 6 Theta formed as 2 T_3(cos Theta)^2 - 1 + 1 rounds T_3^2 ~ 1e-17 away.
        c = np.cos(theta)
        expected = np.square(c * (4.0 * np.square(c) - 3.0))
        mean = fidelity.closed_form_average_fidelity(NoiseKind.COLLECTIVE_ROTATION, theta)
        assert mean > 0.0 and mean == expected

    def test_phase_beats_amplitude_damping(self):
        etas = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        pd = fidelity.closed_form_average_fidelity(NoiseKind.PHASE_DAMPING, etas)
        ad = fidelity.closed_form_average_fidelity(NoiseKind.AMPLITUDE_DAMPING, etas)
        assert np.all(pd >= ad)


HUGE_ANGLES = np.array([2.0**53, 1e200, 1e308, -1.7e308, np.finfo(float).max])


class TestHugeAngles:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_clamp_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            fidelity._assert_and_clamp(bad)
        with pytest.raises(ValueError, match="not finite"):
            fidelity._assert_and_clamp(np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="^fidelity is not finite$"):
            fidelity._assert_and_clamp(np.array([[2.0, -1.0], [0.5, bad]]))

    def test_clamp_of_nothing_is_nothing(self):
        assert fidelity._assert_and_clamp(np.empty((0, 3))).shape == (0, 3)
        assert fidelity._assert_and_clamp([]).tolist() == []

    def test_cos_4_is_np_cos_below_the_limit(self):
        rng = np.random.default_rng(61)
        limit = np.nextafter(2.0**51, 0.0)
        angles = np.concatenate([
            rng.uniform(-7.0, 7.0, 500), rng.uniform(-1e9, 1e9, 500), fidelity.midpoint_grid(64),
            [0.0, -0.0, limit, -limit],
        ])
        assert fidelity._cos_4(angles).tobytes() == np.cos(4 * angles).tobytes()

    def test_cos_4_of_huge_angles_is_np_cos_to_a_quarter_of_max_then_the_formula(self):
        quarter = np.finfo(float).max / 4
        for angles in (HUGE_ANGLES, np.array([0.3, 1e308, 2.0**51, -(2.0**51)])):
            got = fidelity._cos_4(angles)
            within = np.abs(angles) <= quarter
            assert got[within].tobytes() == np.cos(4 * angles[within]).tobytes()
            c = np.cos(angles[~within])
            np.testing.assert_allclose(got[~within], 8 * c**4 - 8 * c**2 + 1, atol=1e-15)
        assert {2.0**53, 1e200} <= set(HUGE_ANGLES[np.abs(HUGE_ANGLES) <= quarter].tolist())
        assert 1e308 in HUGE_ANGLES[np.abs(HUGE_ANGLES) > quarter]

    def test_cos_4_is_np_cos_wherever_4_xi_is_finite(self):
        quarter = np.finfo(float).max / 4
        angles = np.array([2.0**51, -(2.0**51), 2.0**53, 1e200, quarter, -quarter])
        assert np.isfinite(4 * angles).all()
        assert fidelity._cos_4(angles).tobytes() == np.cos(4 * angles).tobytes()
        beyond = np.array([np.nextafter(quarter, np.inf), 1e308, np.finfo(float).max])
        c = np.cos(beyond)
        np.testing.assert_allclose(fidelity._cos_4(beyond), 8 * c**4 - 8 * c**2 + 1, atol=1e-15)

    @pytest.mark.parametrize("kind, param", [
        (NoiseKind.AMPLITUDE_DAMPING, 0.3), (NoiseKind.PHASE_DAMPING, 0.7),
        (NoiseKind.COLLECTIVE_DEPHASING, 1e308), (NoiseKind.COLLECTIVE_ROTATION, -1.7e308),
        (NoiseKind.COLLECTIVE_DEPHASING, 1234567.891), (NoiseKind.COLLECTIVE_ROTATION, 1234567.891),
        (NoiseKind.COLLECTIVE_DEPHASING, 123456789012.345),
        (NoiseKind.COLLECTIVE_ROTATION, 123456789012.345),
    ])
    def test_closed_forms_at_huge_angles_match_the_oracle(self, kind, param):
        closed = fidelity.closed_form_fidelity(kind, param, HUGE_ANGLES)
        average = fidelity.closed_form_average_fidelity(kind, param)
        oracle = RotationAveragedOracle(channels.from_kind(kind, param), QuadratureSpec(8, 8))
        np.testing.assert_allclose(closed, oracle.fidelity_at(HUGE_ANGLES), atol=1e-12)
        assert average == pytest.approx(oracle.state_average(), abs=1e-12)


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

    @pytest.mark.parametrize("params", [[0.1, 0.2], np.array([[0.0, 0.35], [0.8, 1.0]])])
    def test_a_stack_of_parameters_averages_each(self, params):
        quad = QuadratureSpec(rotation_points=8, xi_points=64)
        for kind in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING):
            stacked = fidelity.state_averaged_fidelity(kind, params, quad)
            assert stacked.shape == np.shape(params)
            each = [fidelity.state_averaged_fidelity(kind, float(p), quad) for p in np.ravel(params)]
            np.testing.assert_array_equal(stacked.ravel(), each)

    def test_zero_noise_averages_to_unity(self):
        assert fidelity.state_averaged_fidelity(NoiseKind.AMPLITUDE_DAMPING, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_param_argument_discipline(self):
        with pytest.raises(TypeError):
            fidelity.state_averaged_fidelity(NoiseKind.AMPLITUDE_DAMPING)


def direct_averaged_form(ops, n):
    """The averaged round superoperator with the theta mean taken directly; the reference.

    Q_bced = mean_theta (N L(R^dag) N)_bc (N L(R))_ed over n midpoint angles,
    each member's lift multiplied out, as the oracle computed it before M
    was factored out of Q.
    """
    lift = fidelity._lift(algebra.rotation(fidelity.midpoint_grid(n)))
    lift_dag = algebra.dagger(lift)
    noise = fidelity._lift(np.stack(ops)).sum(axis=0)
    m = np.einsum("nab,nce->abce", lift_dag, lift) / n
    q = np.einsum("nbc,ned->bced", noise @ lift_dag @ noise, noise @ lift) / n
    return np.einsum("abce,bced->ad", m, q)


class TestStackedOracle:
    QUAD = QuadratureSpec(rotation_points=16, xi_points=64)
    XIS = np.linspace(0.0, 2 * np.pi, 13)

    def test_factored_form_matches_direct_theta_average(self):
        rng = np.random.default_rng(45)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(8, 301))
            ops = random_channel(rng, int(rng.integers(1, 5))).operators
            noise = fidelity._lift(np.stack(ops)).sum(axis=0)
            fast = RotationAveragedOracle._averaged_form(noise, fidelity._rotation_moment(n))
            worst = max(worst, float(np.max(np.abs(fast - direct_averaged_form(ops, n)))))
        assert worst <= 2e-15

    def test_factored_form_broadcasts_over_a_stack(self):
        rng = np.random.default_rng(46)
        noise = np.stack([
            fidelity._lift(np.stack(random_channel(rng, 2).operators)).sum(axis=0) for _ in range(6)
        ]).reshape(2, 3, 4, 4)
        m = fidelity._rotation_moment(8)
        stacked = RotationAveragedOracle._averaged_form(noise, m)
        assert stacked.shape == (2, 3, 4, 4)
        for index in np.ndindex(2, 3):
            np.testing.assert_allclose(
                stacked[index], RotationAveragedOracle._averaged_form(noise[index], m), rtol=0, atol=1e-15
            )

    def assert_stack_equals_members(self, channel, members, indices):
        oracle = RotationAveragedOracle(channel, self.QUAD)
        values, averages = oracle.fidelity_at(self.XIS), oracle.state_average()
        for index in indices:
            single = RotationAveragedOracle(members(index), self.QUAD)
            np.testing.assert_allclose(values[index], single.fidelity_at(self.XIS), rtol=0, atol=1e-15)
            assert abs(averages[index] - single.state_average()) <= 1e-15

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS, ids=lambda kind: kind.value)
    def test_stack_equals_its_members(self, kind):
        params = np.linspace(*kind.natural_range, 6).reshape(2, 3)
        channel = channels.from_kind(kind, params)
        oracle = RotationAveragedOracle(channel, self.QUAD)
        assert oracle.fidelity_at(self.XIS).shape == (2, 3, len(self.XIS))
        assert oracle.state_average().shape == (2, 3)
        self.assert_stack_equals_members(
            channel, lambda index: channels.from_kind(kind, params[index]), np.ndindex(2, 3)
        )

    def test_random_channel_stack_equals_its_members(self):
        rng = np.random.default_rng(47)
        members = [random_channel(rng, 3) for _ in range(5)]
        stacked = tuple(np.stack(ops) for ops in zip(*(member.operators for member in members)))
        channel = channels.QuantumChannel(NoiseKind.IDENTITY, stacked, 0.0)
        self.assert_stack_equals_members(channel, lambda i: members[i], range(5))

    def test_single_channel_shapes(self):
        oracle = RotationAveragedOracle(channels.phase_damping(0.3), self.QUAD)
        assert oracle.fidelity_at(self.XIS).shape == (len(self.XIS),)
        assert oracle.fidelity_at(0.2).shape == (1,)
        assert isinstance(oracle.state_average(), float)

    @pytest.mark.parametrize("kind", fidelity.CLOSED_FORM_KINDS, ids=lambda kind: kind.value)
    def test_state_average_is_the_mean_over_the_xi_grid(self, kind):
        params = np.linspace(*kind.natural_range, 5)
        oracle = RotationAveragedOracle(channels.from_kind(kind, params), self.QUAD)
        mean = np.mean(oracle.fidelity_at(fidelity.midpoint_grid(self.QUAD.xi_points)), axis=-1)
        np.testing.assert_allclose(oracle.state_average(), mean, rtol=0, atol=1e-15)
        single = RotationAveragedOracle(channels.from_kind(kind, params[2]), self.QUAD)
        mean = np.mean(single.fidelity_at(fidelity.midpoint_grid(self.QUAD.xi_points)))
        assert abs(single.state_average() - mean) <= 1e-15

    def test_stack_equals_its_members_at_the_block_edges(self):
        block = fidelity.ORACLE_BLOCK
        params = np.linspace(0.0, 1.0, 4 * block + 1)
        edges = sorted({i for k in range(5) for i in (k * block - 1, k * block) if 0 <= i <= 4 * block})
        self.assert_stack_equals_members(
            channels.amplitude_damping(params), lambda i: channels.amplitude_damping(params[i]), edges
        )

    def test_xi_blocks_equal_one_pass(self):
        xis = np.linspace(0.0, 2 * np.pi, 2 * fidelity.XI_BLOCK + 3)
        oracle = RotationAveragedOracle(channels.amplitude_damping(np.array([0.2, 0.7])), self.QUAD)
        values = oracle.fidelity_at(xis)
        for i in (0, fidelity.XI_BLOCK - 1, fidelity.XI_BLOCK, len(xis) - 1):
            np.testing.assert_allclose(values[:, i], oracle.fidelity_at(xis[i])[:, 0], rtol=0, atol=1e-15)

    def test_memory_is_bounded_by_the_block(self):
        # Unblocked, the intermediates take about 12 KiB per member (123 MiB
        # at 10^4); blocked, the peak is the channel, the averaged forms and
        # one block's intermediates.
        params = np.linspace(0.0, 1.0, 10**5)
        tracemalloc.start()
        try:
            oracle = RotationAveragedOracle(channels.amplitude_damping(params))
            oracle.state_average()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20


class TestRotationFactors:
    """The rotation average M = sum_r U_r (x) V_r that the oracle contracts through."""

    def test_a_rotation_lift_is_linear_in_cos_and_sin_of_twice_the_angle(self):
        rng = np.random.default_rng(81)
        t = np.concatenate([
            rng.uniform(-10.0, 10.0, 200), rng.uniform(-1e6, 1e6, 50),
            [0.0, -0.0, np.pi / 4, np.pi / 2, np.pi, 1e6, -1e6],
        ])
        v0, vc, vs = fidelity._ROTATION_LIFTS
        expected = v0 + np.cos(2 * t)[:, None, None] * vc + np.sin(2 * t)[:, None, None] * vs
        lift = fidelity._lift(algebra.rotation(t))
        assert np.max(np.abs(lift - expected)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [8, 9, 256, 4096])
    def test_cached_factors_rebuild_the_direct_moment(self, n):
        lift = fidelity._lift(algebra.rotation(fidelity.midpoint_grid(n)))
        direct = np.einsum("nab,nce->abce", algebra.dagger(lift), lift) / n
        factors = fidelity._rotation_moment(n)
        rebuilt = np.einsum("arb,cre->abce", factors[0], factors[1])
        assert np.max(np.abs(rebuilt - direct)) <= 1e-15

    @pytest.mark.parametrize("n", [8, 16])
    def test_three_different_lifts_factor_like_the_angle_grid(self, n):
        # S = L(R_phi^dag) N3 L(R_theta^dag) N2 L(R_phi) N1 L(R_theta), each
        # crossing its own channel, averaged over the n x n grid one point at a time.
        lift = fidelity._lift(algebra.rotation(fidelity.midpoint_grid(n)))
        lift_dag = algebra.dagger(lift)
        u, v = np.moveaxis(fidelity._rotation_moment(n), 2, 1)  # U_r, V_r: (3, 4, 4) each
        rng = np.random.default_rng(82 + n)
        worst = 0.0
        for _ in range(20):
            n3, n2, n1 = (fidelity._lift(np.stack(random_channel(rng, 2).operators)).sum(axis=0) for _ in range(3))
            direct = sum(
                lift_dag[phi] @ n3 @ lift_dag[theta] @ n2 @ lift[phi] @ n1 @ lift[theta]
                for phi in range(n) for theta in range(n)
            ) / n**2
            factored = sum(u[s] @ n3 @ u[r] @ n2 @ v[s] @ n1 @ v[r] for s in range(3) for r in range(3))
            worst = max(worst, float(np.max(np.abs(factored - direct))))
        assert worst <= 2e-15


class TestOracleShapes:
    def test_a_two_dimensional_xis_is_named_by_its_shape(self):
        oracle = RotationAveragedOracle(channels.amplitude_damping(np.array([0.2, 0.7])), QuadratureSpec(8, 8))
        with pytest.raises(ValueError, match=r"xis must be an angle or a 1-D sequence of angles, got shape \(2, 8\)"):
            oracle.fidelity_at(np.zeros((2, 8)))

    @pytest.mark.parametrize("params, stack", [
        (np.array([0.1, 0.2]), "(2,)"), (np.full((2, 3), 0.4), "(2, 3)"), (np.array([0.5]), "(1,)"),
    ])
    def test_a_stacked_channel_is_refused_by_the_single_channel_average(self, params, stack):
        channel = channels.amplitude_damping(params)
        with pytest.raises(ValueError) as info:
            fidelity.rotation_averaged_fidelity(channel, 0.3, QuadratureSpec(8, 8))
        assert str(info.value) == f"channel must not be a stack, got a stack of shape {stack}"


NAMED_CHANNELS = [
    (kind, param)
    for kind, params in (
        (NoiseKind.AMPLITUDE_DAMPING, np.linspace(0.0, 1.0, 11)),
        (NoiseKind.PHASE_DAMPING, np.linspace(0.0, 1.0, 11)),
        (NoiseKind.COLLECTIVE_DEPHASING, np.linspace(0.0, 2 * np.pi, 13)),
        (NoiseKind.COLLECTIVE_ROTATION, np.linspace(0.0, 2 * np.pi, 13)),
        (NoiseKind.IDENTITY, [0.0]),
    )
    for param in params
]
COMMUTATOR_ANGLES = np.linspace(-2 * np.pi, 2 * np.pi, 25)


def seeded_random_channels(count=30):
    rng = np.random.default_rng(2039)
    return [random_channel(rng, int(rng.integers(1, 5))) for _ in range(count)]


def depolarizing(p):
    """rho -> (1 - p) rho + p I / 2 as four Kraus operators; it commutes with every unitary."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    weights = [np.sqrt(1 - 3 * p / 4)] + [np.sqrt(p / 4)] * 3
    return channels.QuantumChannel(NoiseKind.IDENTITY, tuple(w * op for w, op in zip(weights, paulis)), 0.0)


class TestChannelCommutator:
    @pytest.mark.parametrize("kind, param", NAMED_CHANNELS)
    def test_closed_form_equals_the_direct_norm_for_every_kind(self, kind, param):
        norm, closed = fidelity.channel_commutator(channels.from_kind(kind, param), COMMUTATOR_ANGLES)
        assert norm.shape == closed.shape == COMMUTATOR_ANGLES.shape
        np.testing.assert_allclose(closed, norm, rtol=0.0, atol=1e-14)

    def test_closed_form_equals_the_direct_norm_on_random_channels(self):
        for channel in seeded_random_channels():
            norm, closed = fidelity.channel_commutator(channel, COMMUTATOR_ANGLES)
            np.testing.assert_allclose(closed, norm, rtol=0.0, atol=1e-14)

    def test_direct_norm_is_the_lifted_commutator_by_multiplication(self):
        channel, theta = channels.amplitude_damping(0.75), np.pi / 2
        lift = lambda u: np.kron(u, u.conj())  # noqa: E731
        noise = sum(lift(op) for op in channel.operators)
        rotation = lift(algebra.rotation(theta))
        direct = np.linalg.norm(noise @ rotation - rotation @ noise)
        assert fidelity.channel_commutator(channel, theta)[0] == pytest.approx(direct, abs=1e-15)

    @pytest.mark.parametrize("kind, param, expected", [
        (NoiseKind.AMPLITUDE_DAMPING, 0.3, 0.2717),
        (NoiseKind.PHASE_DAMPING, 0.3, 0.1657),
        (NoiseKind.COLLECTIVE_DEPHASING, 0.9, 0.9443),
        (NoiseKind.COLLECTIVE_ROTATION, 0.7, 0.0),
    ])
    def test_the_table_at_theta_four_tenths(self, kind, param, expected):
        norm, closed = fidelity.channel_commutator(channels.from_kind(kind, param), 0.4)
        assert type(norm) is float and type(closed) is float
        assert norm == pytest.approx(expected, abs=1e-4)
        assert closed == pytest.approx(expected, abs=1e-4)

    def test_collective_rotation_commutes_at_every_angle(self):
        channel = channels.collective_rotation(np.linspace(-7.0, 7.0, 57))
        norm, closed = fidelity.channel_commutator(channel, COMMUTATOR_ANGLES[:, None])
        assert np.all(closed == 0.0)
        assert np.max(norm) <= 1e-15

    def test_zero_at_theta_zero_and_rounding_at_theta_pi(self):
        named = [channels.from_kind(kind, param) for kind, param in NAMED_CHANNELS]
        for channel in named + seeded_random_channels():
            assert fidelity.channel_commutator(channel, 0.0) == (0.0, 0.0)
            assert max(fidelity.channel_commutator(channel, np.pi)) <= 1e-15

    def test_a_unitary_mix_of_the_kraus_pair_keeps_the_norm(self):
        # Kraus operators are fixed only up to a unitary mix (Nielsen & Chuang,
        # Thm 8.2); the norm belongs to the channel, so the mix leaves it.
        channel = channels.amplitude_damping(0.3)
        mix, _ = np.linalg.qr(np.array([[1.0, 2.0 + 1j], [0.5j, -1.0]]))
        e0, e1 = channel.operators
        mixed = channels.QuantumChannel(
            NoiseKind.AMPLITUDE_DAMPING, (mix[0, 0] * e0 + mix[0, 1] * e1, mix[1, 0] * e0 + mix[1, 1] * e1), 0.3)
        kraus_miss = [np.max(np.abs(algebra.commutator(op, algebra.rotation(0.4)))) for op in (e0, mixed.operators[0])]
        assert kraus_miss[1] - kraus_miss[0] > 0.01
        for got, want in zip(fidelity.channel_commutator(mixed, COMMUTATOR_ANGLES),
                             fidelity.channel_commutator(channel, COMMUTATOR_ANGLES)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_depolarizing_commutes_though_its_kraus_operators_do_not(self):
        channel = depolarizing(0.6)
        assert np.max(np.abs(algebra.commutator(channel.operators[1], algebra.rotation(0.4)))) > 0.1
        norm, closed = fidelity.channel_commutator(channel, COMMUTATOR_ANGLES)
        assert np.max(norm) <= 1e-15
        assert np.max(closed) <= 1e-15

    def test_a_stacked_channel_equals_its_members(self):
        params = np.array([[0.0, 0.1, 0.5], [0.7, 0.95, 1.0]])
        thetas = np.array([0.4, -2.5, 1e3])[:, None, None]
        for kind in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.PHASE_DAMPING, NoiseKind.COLLECTIVE_DEPHASING):
            norm, closed = fidelity.channel_commutator(channels.from_kind(kind, params), thetas)
            assert norm.shape == closed.shape == (3, 2, 3)
            for index in np.ndindex(norm.shape):
                member = channels.from_kind(kind, float(params[index[1:]]))
                assert (norm[index], closed[index]) == fidelity.channel_commutator(member, float(thetas[index[0], 0, 0]))

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_theta_is_named(self, theta):
        with pytest.raises(ValueError) as info:
            fidelity.channel_commutator(channels.amplitude_damping(0.5), [0.1, theta])
        assert str(info.value) == f"theta must be finite, got {theta!r}"


def clear_resolution_caches():
    fidelity._rotation_moment.cache_clear()
    fidelity._state_weight.cache_clear()


class TestResolutionCaches:
    """The channel-free tensors are built once per resolution and shared, read-only."""

    QUAD = QuadratureSpec(rotation_points=16, xi_points=64)

    @pytest.mark.parametrize("build, shape", [
        (lambda: fidelity._rotation_moment(16), (2, 4, 3, 4)),
        (lambda: fidelity._state_weight(64), (16,)),
    ], ids=["rotation_moment", "state_weight"])
    def test_cached_arrays_are_read_only(self, build, shape):
        value = build()
        assert value.shape == shape and value.dtype == complex
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[(0,) * len(shape)] = 5.0
        assert build() is value

    @pytest.mark.parametrize("n", [8, 16, 256, 1024])
    def test_cache_equals_a_fresh_build(self, n):
        warm_m, warm_w = fidelity._rotation_moment(n), fidelity._state_weight(n)
        clear_resolution_caches()
        cold_m, cold_w = fidelity._rotation_moment(n), fidelity._state_weight(n)
        assert cold_m is not warm_m and cold_w is not warm_w
        assert cold_m.tobytes() == warm_m.tobytes()
        assert cold_w.tobytes() == warm_w.tobytes()
        assert fidelity._rotation_moment.__wrapped__(n).tobytes() == cold_m.tobytes()

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_state_weight_is_the_inline_weight(self, n):
        # the weight state_average formed in line before it was cached
        psi = np.stack([protocol.encode_bit(bit, fidelity.midpoint_grid(n)) for bit in (0, 1)])
        vecs = (psi[..., :, None] * psi[..., None, :].conj()).reshape(-1, 4)
        inline = (vecs.conj().T @ vecs).reshape(16) / len(vecs)
        assert fidelity._state_weight(n).tobytes() == inline.tobytes()

    def test_encoded_vecs_are_bit_identical_to_encode_bit(self):
        rng = np.random.default_rng(71)
        xis = np.concatenate([
            fidelity.midpoint_grid(33), rng.uniform(-50.0, 50.0, 40), [0.0, -0.0, 2.0**51, -1e300],
        ])
        psi = np.stack([protocol.encode_bit(bit, xis) for bit in (0, 1)])
        reference = (psi[..., :, None] * psi[..., None, :].conj()).reshape(2, len(xis), 4)
        vecs = fidelity._encoded_vecs(xis)
        assert vecs.shape == reference.shape and vecs.flags.c_contiguous
        assert vecs.tobytes() == reference.tobytes()

    def test_oracle_values_equal_with_cold_and_warm_caches(self):
        channel = channels.from_kind(NoiseKind.AMPLITUDE_DAMPING, np.linspace(0.0, 1.0, 7))
        xis = np.linspace(0.0, 2 * np.pi, 13)
        clear_resolution_caches()
        cold = RotationAveragedOracle(channel, self.QUAD)
        cold_at, cold_average = cold.fidelity_at(xis), cold.state_average()
        warm = RotationAveragedOracle(channel, self.QUAD)
        assert warm.fidelity_at(xis).tobytes() == cold_at.tobytes()
        assert warm.state_average().tobytes() == cold_average.tobytes()
        assert fidelity._rotation_moment.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert fidelity._state_weight.cache_info()[:2] == (1, 1)


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

    @pytest.mark.parametrize("field", ["rotation_points", "xi_points"])
    @pytest.mark.parametrize("value", [8.5, 63.5, 16.0, "16", None, [16]], ids=repr)
    def test_a_non_integer_size_is_refused_and_named(self, field, value):
        with pytest.raises(TypeError) as info:
            QuadratureSpec(**{field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integer_sizes_are_accepted(self):
        quad = QuadratureSpec(rotation_points=np.int64(8), xi_points=np.int32(64))
        value = RotationAveragedOracle(channels.amplitude_damping(0.3), quad).fidelity_at(0.3)[0]
        closed = fidelity.closed_form_fidelity(NoiseKind.AMPLITUDE_DAMPING, 0.3, 0.3)
        assert value == pytest.approx(closed, abs=1e-12)

    def test_midpoint_grid_covers_period(self):
        grid = fidelity.midpoint_grid(8)
        assert len(grid) == 8
        assert grid[0] == pytest.approx(np.pi / 8)
        assert grid[-1] < 2 * np.pi
