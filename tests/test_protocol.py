import numpy as np
import pytest

from threestage import algebra, channels, protocol
from threestage.protocol import ProtocolConfig, StagePolicy


def config_with(channel, xi=0.3, theta=1.0, phi=2.0, **kwargs):
    return ProtocolConfig(xi=xi, alice_angle=theta, bob_angle=phi, channel=channel, **kwargs)


class TestEncodeBit:
    def test_bit_zero_at_xi_zero(self):
        np.testing.assert_allclose(protocol.encode_bit(0, 0.0), [1.0, 0.0], atol=1e-15)

    def test_bit_one_at_xi_zero_carries_minus_sign(self):
        np.testing.assert_allclose(protocol.encode_bit(1, 0.0), [0.0, -1.0], atol=1e-15)

    def test_encodings_are_orthogonal(self):
        xi = 0.77
        overlap = np.vdot(protocol.encode_bit(0, xi), protocol.encode_bit(1, xi))
        assert abs(overlap) < 1e-15

    def test_encodings_are_normalized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            psi = protocol.encode_bit(int(rng.integers(2)), rng.uniform(0, 2 * np.pi))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-15

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            protocol.encode_bit(2, 0.0)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_array_of_angles_stacks_the_scalar_states_exactly(self, bit):
        xis = np.random.default_rng(32).uniform(-50, 50, size=(4, 25))
        stacked = np.array([[protocol.encode_bit(bit, float(x)) for x in row] for row in xis])
        assert protocol.encode_bit(bit, xis).shape == (4, 25, 2)
        np.testing.assert_array_equal(protocol.encode_bit(bit, xis), stacked)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_array_with_one_non_finite_angle_rejected(self, bad):
        xis = np.linspace(0.0, 1.0, 9)
        xis[4] = bad
        with pytest.raises(ValueError, match="xi must be finite"):
            protocol.encode_bit(0, xis)


class TestRunProtocol:
    def test_noiseless_round_trip_is_exact(self):
        rng = np.random.default_rng(32)
        identity = channels.identity_channel()
        for _ in range(300):
            xi, theta, phi = rng.uniform(0, 2 * np.pi, size=3)
            bit = int(rng.integers(2))
            config = config_with(identity, xi=xi, theta=theta, phi=phi)
            final, _ = protocol.run_protocol(config, bit)
            sent = algebra.density_from_pure(protocol.encode_bit(bit, xi))
            assert np.max(np.abs(final - sent)) < 1e-12
            value = algebra.fidelity(protocol.encode_bit(bit, xi), final)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_rotations_commute(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            psi = protocol.encode_bit(0, rng.uniform(0, 2 * np.pi))
            one_way = algebra.rotation(phi) @ (algebra.rotation(theta) @ psi)
            other = algebra.rotation(theta) @ (algebra.rotation(phi) @ psi)
            np.testing.assert_allclose(one_way, other, atol=1e-12)

    def test_collective_rotation_fidelity_law(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            value = rng.uniform(0, 2 * np.pi)
            xi, theta, phi = rng.uniform(0, 2 * np.pi, size=3)
            bit = int(rng.integers(2))
            config = config_with(channels.collective_rotation(value), xi=xi, theta=theta, phi=phi)
            final, _ = protocol.run_protocol(config, bit)
            fid = algebra.fidelity(protocol.encode_bit(bit, xi), final)
            assert fid == pytest.approx(np.cos(3 * value) ** 2, abs=1e-12)

    def test_collective_rotation_pi_over_three_is_transparent(self):
        config = config_with(channels.collective_rotation(np.pi / 3))
        final, _ = protocol.run_protocol(config, 1)
        fid = algebra.fidelity(protocol.encode_bit(1, config.xi), final)
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_collective_rotation_final_state_ignores_secret_angles(self):
        rng = np.random.default_rng(35)
        reference = None
        for _ in range(20):
            theta, phi = rng.uniform(0, 2 * np.pi, size=2)
            config = config_with(channels.collective_rotation(0.8), xi=0.4, theta=theta, phi=phi)
            final, _ = protocol.run_protocol(config, 0)
            if reference is None:
                reference = final
            else:
                assert np.max(np.abs(final - reference)) < 1e-12

    def test_full_damping_bit_averaged_fidelity_half(self):
        # full damping collapses each crossing to the ground state; the final
        # state is R(phi)^dag |0><0| R(phi), giving cos^2(xi+phi) for bit 0
        # and sin^2(xi+phi) for bit 1
        config = config_with(channels.amplitude_damping(1.0), xi=0.2, theta=0.9, phi=1.7)
        total = 0.0
        for bit in (0, 1):
            final, _ = protocol.run_protocol(config, bit)
            total += algebra.fidelity(protocol.encode_bit(bit, config.xi), final)
        assert total / 2 == pytest.approx(0.5, abs=1e-12)
        final0, _ = protocol.run_protocol(config, 0)
        fid0 = algebra.fidelity(protocol.encode_bit(0, config.xi), final0)
        assert fid0 == pytest.approx(np.cos(config.xi + config.bob_angle) ** 2, abs=1e-12)

    def test_transcript_records_four_valid_states(self):
        config = config_with(channels.phase_damping(0.5))
        final, transcript = protocol.run_protocol(config, 1)
        assert len(transcript.stage_states) == 4
        for state in transcript.stage_states:
            algebra.validate_density(state)
        np.testing.assert_array_equal(transcript.stage_states[3], final)
        assert transcript.bit_sent == 1
        assert transcript.stage_parameters == (0.5, 0.5, 0.5)

    def test_non_finite_angles_rejected(self):
        with pytest.raises(ValueError):
            config_with(channels.identity_channel(), xi=np.nan)


class TestDecodeBit:
    def test_pure_encoded_state_decodes_sharply(self):
        xi = 0.6
        rho = algebra.density_from_pure(protocol.encode_bit(0, xi))
        p0, p1 = protocol.decode_bit(rho, xi)
        assert p0 == pytest.approx(1.0, abs=1e-14)
        assert p1 == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_decodes_even(self):
        p0, p1 = protocol.decode_bit(np.eye(2, dtype=complex) / 2, 1.1)
        assert p0 == pytest.approx(0.5, abs=1e-14)
        assert p1 == pytest.approx(0.5, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            p0, p1 = protocol.decode_bit(rho, rng.uniform(0, 2 * np.pi))
            assert 0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_error_probability_complements_fidelity(self):
        config = config_with(channels.amplitude_damping(0.3))
        for bit in (0, 1):
            final, _ = protocol.run_protocol(config, bit)
            fid = algebra.fidelity(protocol.encode_bit(bit, config.xi), final)
            probs = protocol.decode_bit(final, config.xi)
            assert probs[1 - bit] == pytest.approx(1.0 - fid, abs=1e-12)


class TestTransmitMessage:
    def test_noiseless_message_is_error_free(self):
        config = config_with(channels.identity_channel())
        bits = [0, 1, 0, 0, 1, 1]
        decoded, qber = protocol.transmit_message(bits, config, seed=5)
        assert decoded == bits
        assert qber == 0.0

    def test_collective_rotation_pi_over_six_flips_everything(self):
        config = config_with(channels.collective_rotation(np.pi / 6))
        bits = [0, 1, 1, 0, 1]
        decoded, qber = protocol.transmit_message(bits, config, seed=9)
        assert decoded == [1 - b for b in bits]
        assert qber == 1.0

    def test_full_damping_qber_near_half(self):
        rng = np.random.default_rng(37)
        bits = list(rng.integers(0, 2, size=2000))
        config = config_with(channels.amplitude_damping(1.0), xi=0.2, theta=0.9, phi=1.7)
        _, qber = protocol.transmit_message(bits, config, seed=11)
        sigma = np.sqrt(0.25 / len(bits))
        assert abs(qber - 0.5) <= 3 * sigma

    def test_deterministic_in_inputs(self):
        config = config_with(channels.phase_damping(0.7))
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        first = protocol.transmit_message(bits, config, seed=42)
        second = protocol.transmit_message(bits, config, seed=42)
        assert first == second

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            protocol.transmit_message([], config_with(channels.identity_channel()), seed=0)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            protocol.transmit_message([0, 2], config_with(channels.identity_channel()), seed=0)


class TestStagePolicy:
    def test_fixed_policy_uses_one_parameter(self):
        config = config_with(channels.amplitude_damping(0.4))
        _, transcript = protocol.run_protocol(config, 0)
        assert transcript.stage_parameters == (0.4, 0.4, 0.4)

    def test_resample_policy_varies_per_stage_deterministically(self):
        config = config_with(
            channels.amplitude_damping(0.4),
            stage_policy=StagePolicy.RESAMPLE,
            resample_seed=123,
        )
        _, first = protocol.run_protocol(config, 0)
        _, second = protocol.run_protocol(config, 0)
        assert first.stage_parameters == second.stage_parameters
        assert len(set(first.stage_parameters)) == 3
        for value in first.stage_parameters:
            assert 0.0 <= value <= 0.4

    def test_resample_rounds_draw_independently(self):
        config = config_with(
            channels.collective_dephasing(1.0),
            stage_policy=StagePolicy.RESAMPLE,
            resample_seed=7,
        )
        _, round_a = protocol.run_protocol(config, 0, message_index=0)
        _, round_b = protocol.run_protocol(config, 0, message_index=1)
        assert round_a.stage_parameters != round_b.stage_parameters

    def test_resample_message_is_deterministic(self):
        config = config_with(
            channels.phase_damping(0.8),
            stage_policy=StagePolicy.RESAMPLE,
            resample_seed=99,
        )
        bits = [1, 0, 1, 1]
        assert protocol.transmit_message(bits, config, seed=3) == protocol.transmit_message(
            bits, config, seed=3
        )
