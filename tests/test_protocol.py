import dataclasses
import fractions
import functools
import re
import tracemalloc

import numpy as np
import pytest

from threestage import algebra, channels, cli, protocol
from threestage.protocol import ProtocolConfig, StagePolicy


def config_with(channel, xi=0.3, theta=1.0, phi=2.0, **kwargs):
    return ProtocolConfig(xi=xi, alice_angle=theta, bob_angle=phi, channel=channel, **kwargs)


@functools.lru_cache(maxsize=1)
def stream(seed, count):
    """The first ``count`` doubles of ``PCG64(seed)``, drawn in one call with no jump-ahead."""
    return np.random.Generator(np.random.PCG64(seed)).random(count)


def reference_decoding(bits, config, seed, indices):
    """Decoded bits at ``indices``: one scalar round per bit, bit i read with double i of the stream."""
    draws = stream(seed, max(indices) + 1)
    decoded = []
    for index in indices:
        final, _ = protocol.run_protocol(config, bits[index], message_index=index)
        p0, _ = protocol.decode_bit(final, config.xi)
        decoded.append(0 if draws[index] < p0 else 1)
    return decoded


# One, three and five SeedSequence entropy words.
SEEDS = [0, 2**64 + 5, 2**128 + 9]


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

    def test_an_int_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(ValueError) as info:
            protocol.encode_bit(0, 10**400)
        assert str(info.value) == f"xi must be finite, got {10**400!r}"


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

    @pytest.mark.parametrize("bit, as_int", [(True, 1), (False, 0), (1.0, 1), (0.0, 0), (np.int64(1), 1)])
    def test_a_bit_equal_to_0_or_1_runs_as_that_int(self, bit, as_int):
        config = config_with(channels.amplitude_damping(0.3))
        _, transcript = protocol.run_protocol(config, bit)
        _, want = protocol.run_protocol(config, as_int)
        assert type(transcript.bit_sent) is int and transcript.bit_sent == as_int
        for got, expected in zip(transcript.stage_states, want.stage_states):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestDecodeBit:
    def test_an_empty_stack_decodes_to_empty_arrays(self):
        rho = algebra.density_from_pure(protocol.encode_bit(0, 0.6)) + np.zeros((0, 2, 2))
        p0, p1 = protocol.decode_bit(rho, 0.6)
        assert p0.shape == p1.shape == (0,)

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


    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.3], [0.0, 0.5]]),  # not Hermitian
        np.diag([0.6, 0.6]),  # trace 1.2
        np.diag([1.5, -0.5]),  # negative eigenvalue
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.eye(3) / 3,
    ])
    def test_invalid_density_matrix_is_rejected_as_validate_density_rejects_it(self, bad):
        with pytest.raises(ValueError) as decoded:
            protocol.decode_bit(bad, 0.4)
        with pytest.raises(ValueError) as validated:
            algebra.validate_density(bad)
        assert str(decoded.value) == str(validated.value)


class TestChecksWhereValuesEnter:
    """A round re-checks neither the channels the package built nor the states it evolved,
    and ``cli message`` hands the protocol bits it has checked itself."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        for module, name in ((channels, "completeness_defect"), (algebra, "validate_density"),
                             (protocol, "_message_bits")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["ad", "pd", "cd", "cr", "none"])
    def test_a_round_and_messages_run_no_check(self, kind, checks, capsys):
        argv = ["--noise", kind, "--param", "0.3", "--xi", "0.2", "--alice-angle", "1", "--bob-angle", "2"]
        assert cli.main(["run", *argv]) == 0
        assert cli.main(["message", *argv, "--bits", "0110"]) == 0
        channel = channels.from_kind(channels.NoiseKind(kind), 0.3)
        for policy in StagePolicy:
            protocol._transmit(np.array([0, 1, 1, 0] * 50), config_with(channel, stage_policy=policy), 5)
        assert checks == []
        # Values from outside are still checked, through the same counters.
        protocol.decode_bit(np.eye(2) / 2, 0.3)
        channels.QuantumChannel(channel.kind, channel.operators, channel.parameter)
        protocol.transmit_message([0, 1, 1, 0], config_with(channel), 5)
        assert checks == ["validate_density", "completeness_defect", "_message_bits"]

    @pytest.mark.parametrize("kind", ["ad", "pd", "cd", "cr", "none"])
    def test_a_round_s_rotations_take_no_unitarity_test(self, kind, monkeypatch):
        def checked(*args):
            raise AssertionError("a round's rotation reached a unitarity test")

        channel = channels.from_kind(channels.NoiseKind(kind), 0.3)
        monkeypatch.setattr(algebra, "_within_unitary", checked)
        monkeypatch.setattr(algebra, "_as_mat2", checked)
        for policy in StagePolicy:
            for bit in (0, 1):
                protocol.run_protocol(config_with(channel, stage_policy=policy), bit, message_index=3)
        protocol.transmit_message([0, 1, 1, 0] * 50, config_with(channel), 5)


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

    @pytest.mark.parametrize("policy", [StagePolicy.FIXED, StagePolicy.RESAMPLE])
    @pytest.mark.parametrize("kind, param", [
        ("ad", 0.37), ("pd", 0.61), ("cd", 1.3), ("cr", 0.41), ("none", 0.0),
    ])
    def test_fixed_message_equals_one_round_per_bit(self, kind, param, policy):
        config = config_with(
            channels.from_kind(channels.NoiseKind(kind), param), stage_policy=policy, resample_seed=8
        )
        bits = [int(b) for b in np.random.default_rng(38).integers(0, 2, 200)]
        seed = 17
        expected = reference_decoding(bits, config, seed, range(len(bits)))
        flips = sum(sent != got for sent, got in zip(bits, expected))
        assert protocol.transmit_message(bits, config, seed) == (expected, flips / len(bits))

    @pytest.mark.parametrize("policy", [StagePolicy.FIXED, StagePolicy.RESAMPLE])
    def test_message_of_three_blocks_matches_the_reference_at_the_block_edges(self, policy):
        block = protocol.MESSAGE_BLOCK_BITS
        config = config_with(channels.amplitude_damping(0.45), stage_policy=policy, resample_seed=3)
        bits = [int(b) for b in np.random.default_rng(39).integers(0, 2, 2 * block + 7)]
        edges = [0, 1, block - 2, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                 len(bits) - 1]
        decoded, qber = protocol.transmit_message(bits, config, seed=23)
        assert [decoded[i] for i in edges] == reference_decoding(bits, config, 23, edges)
        assert qber == sum(a != b for a, b in zip(bits, decoded)) / len(bits)

    @pytest.mark.parametrize("policy", [StagePolicy.FIXED, StagePolicy.RESAMPLE])
    def test_block_size_does_not_change_the_message(self, monkeypatch, policy):
        config = config_with(channels.collective_dephasing(1.1), stage_policy=policy)
        bits = [int(b) for b in np.random.default_rng(40).integers(0, 2, 100)]
        whole = protocol.transmit_message(bits, config, seed=6)
        monkeypatch.setattr(protocol, "MESSAGE_BLOCK_BITS", 7)
        assert protocol.transmit_message(bits, config, seed=6) == whole

    def test_million_bit_message_memory_is_bounded(self):
        # The checked bits and the decoded list are ~8 MB each; every other
        # array is one block long. The peak is 10.5 MiB; in one block of
        # 10^6 bits it was 223 MiB.
        config = config_with(channels.phase_damping(0.3))
        bits = [int(b) for b in np.random.default_rng(41).integers(0, 2, 10**6)]
        tracemalloc.start()
        try:
            decoded, _ = protocol.transmit_message(bits, config, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(decoded) == 10**6
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("bits, policy, stack", [
        ([0, 1, 1, 0, 1], StagePolicy.FIXED, 2),
        ([0, 0, 0, 0], StagePolicy.FIXED, 2),
        ([0, 1, 1, 0, 1], StagePolicy.RESAMPLE, 5),
    ])
    def test_rounds_run_per_message(self, monkeypatch, bits, policy, stack):
        # One stacked round (three crossings) per message: over both encoded
        # states under FIXED, over every bit under RESAMPLE.
        rounds, crossings = [], []
        run_protocol, apply_channel = protocol.run_protocol, channels.apply_channel
        monkeypatch.setattr(
            protocol, "run_protocol", lambda *a, **k: rounds.append(a) or run_protocol(*a, **k)
        )
        monkeypatch.setattr(
            channels, "apply_channel",
            lambda channel, rho: crossings.append(np.shape(rho)) or apply_channel(channel, rho),
        )
        config = config_with(channels.phase_damping(0.5), stage_policy=policy)
        protocol.transmit_message(bits, config, seed=1)
        assert rounds == []
        assert crossings == [(stack, 2, 2)] * 3

    @pytest.mark.parametrize("seed", [0, 9, 2**64 + 5])
    @pytest.mark.parametrize("kind, param", [
        ("ad", 0.37), ("pd", 0.61), ("cd", 1.3), ("cr", 0.41), ("none", 0.0),
    ])
    def test_fixed_message_of_one_bit_value_decodes_as_a_mixed_message(self, kind, param, seed):
        # Bit i is read from the p0 of the bit sent and double i of the stream,
        # so where a mixed message holds b it decodes as the message of b alone.
        config = config_with(channels.from_kind(channels.NoiseKind(kind), param))
        mixed = [int(b) for b in np.random.default_rng(42).integers(0, 2, 300)]
        decoded, _ = protocol.transmit_message(mixed, config, seed)
        for bit in (0, 1):
            alone, qber = protocol.transmit_message([bit] * len(mixed), config, seed)
            assert qber == sum(got != bit for got in alone) / len(mixed)
            assert [a for a, sent in zip(alone, mixed) if sent == bit] == [
                d for d, sent in zip(decoded, mixed) if sent == bit
            ]

    @pytest.mark.parametrize("bits", [
        np.zeros((2, 3), dtype=int), np.array([[0, 1, 1]], dtype=np.int8), np.array(1), np.ones((2, 2)),
    ], ids=["2x3 int", "1x3 int8", "0-d", "2x2 float"])
    def test_an_array_that_is_not_1d_is_named_by_its_shape(self, bits):
        config = config_with(channels.identity_channel())
        message = f"message must be a 1-D sequence of bits, got an array of shape {bits.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            protocol.transmit_message(bits, config, 0)

    def test_bad_bit_raises_before_any_round(self, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol, "run_protocol", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=r"^message bits must be 0 or 1, got 2 at index 3$"):
            protocol.transmit_message([0, 1, 0, 2, 1], config_with(channels.identity_channel()), 0)
        assert calls == []


def reference_message_bits(bits):
    """The per-element message check every input took before integer arrays skipped it."""
    values = np.fromiter(bits, dtype=object)
    if values.size == 0:
        raise ValueError("message must contain at least one bit")
    valid = (values == 0) | (values == 1)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError(f"message bits must be 0 or 1, got {values[index]!r} at index {index}")
    return values.astype(np.int8)


MESSAGE_INPUTS = [
    [0, 1, 1], (1,), [True, False], [0.0, 1.0], [], [0, 2], [1, -1, 0], ["0", "1"], [0, None],
    np.array([0, 1, 1, 0]), np.array([], dtype=int), np.array([1, 0, 7]),
    np.array([0, 1, 1], dtype=np.int8), np.array([0, -3], dtype=np.int8),
    np.array([1, 0], dtype=np.uint8), np.array([1, 255], dtype=np.uint8),
    np.array([0, 2**40], dtype=np.uint64), np.array([True, False]), np.array([0.0, 1.5]),
]


@pytest.mark.parametrize("bits", MESSAGE_INPUTS, ids=range(len(MESSAGE_INPUTS)))
def test_message_bits_check_equals_the_per_element_reference(bits):
    try:
        want = reference_message_bits(bits)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            protocol._message_bits(bits)
        assert str(info.value) == str(exc)
    else:
        got = protocol._message_bits(bits)
        assert got.dtype == np.int8 and np.array_equal(got, want)


def test_message_bits_leaves_an_integer_array_unchanged():
    bits = np.array([0, 1, 1], dtype=np.int8)
    protocol._message_bits(bits)[0] = 1
    assert bits.tolist() == [0, 1, 1]


class TestStagePolicy:
    def test_fixed_policy_uses_one_parameter(self):
        config = config_with(channels.amplitude_damping(0.4))
        _, transcript = protocol.run_protocol(config, 0)
        assert transcript.stage_parameters == (0.4, 0.4, 0.4)

    @pytest.mark.parametrize("bad", ["fixed", None, 0], ids=repr)
    def test_a_policy_that_is_not_a_stage_policy_raises_type_error(self, bad):
        # A round would take anything but StagePolicy.FIXED for RESAMPLE.
        message = f"^stage_policy must be a StagePolicy, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            config_with(channels.amplitude_damping(0.5), stage_policy=bad)

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


# Draws at both ends of [0, 1) and one between, against each kind's edge parameters.
EDGE_DRAWS = np.array([[0.0, 1 - 2**-53, 0.5], [1 - 2**-53, 0.0, 2**-53]])


@pytest.mark.parametrize("kind, param", [
    (kind, param)
    for kind, params in [("ad", (0.0, 5e-324, 1.0)), ("pd", (0.0, 5e-324, 1.0)),
                         ("cd", (0.0, 1e12, -1e300)), ("cr", (1e12, 1e300, -1e300)), ("none", (0.0,))]
    for param in params
])
def test_resample_stage_channels_equal_the_checked_channels_at_the_domain_edges(monkeypatch, kind, param):
    # The stages skip check_parameter; from_kind would raise on a product
    # outside the domain, and builds the same bytes inside it.
    monkeypatch.setattr(protocol, "_uniform_draws", lambda seed, first, n, k: EDGE_DRAWS[:n, :k])
    channel = channels.from_kind(channels.NoiseKind(kind), param)
    config = config_with(channel, stage_policy=StagePolicy.RESAMPLE)
    for n, draws in ((2, EDGE_DRAWS), (None, EDGE_DRAWS[0])):
        for j, stage in enumerate(protocol._stage_channels(config, 0, n)):
            checked = channels.from_kind(channel.kind, draws[..., j] * param)
            assert stage.kind is checked.kind
            assert np.asarray(stage.parameter).tobytes() == np.asarray(checked.parameter).tobytes()
            assert [op.tobytes() for op in stage.operators] == [op.tobytes() for op in checked.operators]


FIRSTS = [0, 1, 2**14 - 1, 2**14, 10**6 - 1]


class TestUniformDraws:
    @pytest.mark.parametrize("first", FIRSTS)
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_are_slices_of_one_stream(self, seed, k, first):
        reference = stream(seed, 3 * (10**6 + 3)).reshape(-1, k)
        for n in (1, 4):
            np.testing.assert_array_equal(
                protocol._uniform_draws(seed, first, n, k), reference[first:first + n]
            )

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_block_equals_its_parts(self, seed, k):
        # Far past any stream a test can slice, and past 2**32.
        first = 2**40 - 3
        whole = protocol._uniform_draws(seed, first, 7, k)
        parts = [protocol._uniform_draws(seed, first + i, 1, k) for i in range(7)]
        np.testing.assert_array_equal(whole, np.concatenate(parts))
        assert protocol._uniform_draws(seed, first, 0, k).shape == (0, k)

    def test_a_single_round_draws_its_stage_row(self):
        config = config_with(
            channels.amplitude_damping(0.5), stage_policy=StagePolicy.RESAMPLE, resample_seed=2**64 + 5
        )
        reference = stream(2**64 + 5, 3 * (2**14 + 1)).reshape(-1, 3)
        for index in (0, 1, 2**14):
            _, transcript = protocol.run_protocol(config, 1, message_index=index)
            assert transcript.stage_parameters == tuple(reference[index] * 0.5)
        _, default = protocol.run_protocol(config, 1)
        assert default.stage_parameters == tuple(reference[0] * 0.5)
        _, far = protocol.run_protocol(config, 1, message_index=2**40)
        assert far.stage_parameters == tuple(protocol._uniform_draws(2**64 + 5, 2**40, 1, 3)[0] * 0.5)


NOT_NON_NEGATIVE_INTEGERS = [None, 1.5, [1, 2], -1]


class TestSeedAndIndexChecks:
    @pytest.mark.parametrize("bad", NOT_NON_NEGATIVE_INTEGERS, ids=repr)
    def test_resample_seed(self, bad):
        with pytest.raises((TypeError, ValueError), match=r"^resample_seed must be a non-negative integer"):
            config_with(channels.identity_channel(), resample_seed=bad)

    @pytest.mark.parametrize("policy", [StagePolicy.FIXED, StagePolicy.RESAMPLE])
    @pytest.mark.parametrize("bad", NOT_NON_NEGATIVE_INTEGERS, ids=repr)
    def test_message_seed(self, bad, policy):
        config = config_with(channels.identity_channel(), stage_policy=policy)
        with pytest.raises((TypeError, ValueError), match=r"^seed must be a non-negative integer"):
            protocol.transmit_message([0, 1], config, seed=bad)

    @pytest.mark.parametrize("policy", [StagePolicy.FIXED, StagePolicy.RESAMPLE])
    @pytest.mark.parametrize("bad", NOT_NON_NEGATIVE_INTEGERS[1:], ids=repr)
    def test_message_index(self, bad, policy):
        config = config_with(channels.phase_damping(0.4), stage_policy=policy)
        with pytest.raises((TypeError, ValueError), match=r"^message_index must be a non-negative integer"):
            protocol.run_protocol(config, 0, message_index=bad)

    def test_a_message_index_of_none_is_index_zero(self):
        config = config_with(channels.phase_damping(0.4), stage_policy=StagePolicy.RESAMPLE)
        _, none = protocol.run_protocol(config, 0, message_index=None)
        _, zero = protocol.run_protocol(config, 0, message_index=0)
        assert none.stage_parameters == zero.stage_parameters

    def test_numpy_integers_are_accepted(self):
        config = config_with(
            channels.phase_damping(0.4), stage_policy=StagePolicy.RESAMPLE, resample_seed=np.uint64(9)
        )
        _, numpy_index = protocol.run_protocol(config, 0, message_index=np.int32(3))
        _, int_index = protocol.run_protocol(config, 0, message_index=3)
        assert numpy_index.stage_parameters == int_index.stage_parameters
        assert protocol.transmit_message([0, 1], config, np.int64(4)) == protocol.transmit_message(
            [0, 1], config, 4
        )


class TestStackedRound:
    @pytest.mark.parametrize("kind, param", [
        ("ad", 0.37), ("pd", 0.61), ("cd", 1.3), ("cr", 0.41), ("none", 0.0),
    ])
    def test_stacked_resample_round_equals_its_rounds_one_by_one(self, kind, param):
        config = config_with(
            channels.from_kind(channels.NoiseKind(kind), param),
            stage_policy=StagePolicy.RESAMPLE, resample_seed=12,
        )
        bits = np.random.default_rng(42).integers(0, 2, 40).astype(np.int8)
        indices = np.arange(100, 140)
        stacked = protocol._round_p0(config, bits, 100)
        one_by_one = [
            protocol.decode_bit(protocol.run_protocol(config, int(b), message_index=int(i))[0], config.xi)[0]
            for b, i in zip(bits, indices)
        ]
        np.testing.assert_array_equal(stacked, one_by_one)

    def test_decode_of_a_stack_equals_its_members(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        rho = a @ algebra.dagger(a)
        rho = algebra.symmetrize(rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])
        p0, p1 = protocol.decode_bit(rho, 0.8)
        assert p0.shape == p1.shape == (50,)
        members = [protocol.decode_bit(r, 0.8) for r in rho]
        assert all(type(p) is float for pair in members for p in pair)
        np.testing.assert_array_equal(np.stack([p0, p1], axis=1), members)

    @pytest.mark.parametrize("xis", [[0.3], np.array([0.1, 0.2]), np.linspace(-7.0, 7.0, 9)])
    def test_decode_of_one_state_at_an_array_of_angles_equals_each_angle(self, xis):
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        p0, p1 = protocol.decode_bit(rho, xis)
        assert p0.shape == p1.shape == (len(xis),)
        each = [protocol.decode_bit(rho, float(xi)) for xi in xis]
        np.testing.assert_array_equal(np.stack([p0, p1], axis=1), each)

    def test_decode_of_a_stack_rejects_one_bad_member_as_alone(self):
        stack = np.stack([np.eye(2) / 2] * 4).astype(complex)
        stack[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError) as alone:
            protocol.decode_bit(stack[2], 0.1)
        with pytest.raises(ValueError) as stacked:
            protocol.decode_bit(stack, 0.1)
        assert str(stacked.value) == str(alone.value)


BASIS_ANGLES = (0.0, -0.0, np.pi / 2, -np.pi / 2, 1e300) + tuple(
    np.random.default_rng(26).uniform(-10.0, 10.0, 6).tolist()
)


@pytest.mark.parametrize("angle", BASIS_ANGLES, ids=float.hex)
def test_one_angle_builds_the_basis_bytes_of_a_stack(angle):
    expected = protocol._basis(np.array([angle]))[0].tobytes()
    for xi in (angle, np.float64(angle), np.array(angle)):
        basis = protocol._basis(xi)
        assert basis.shape == (2, 2) and basis.tobytes() == expected


def transcript_bytes(config, bit, index):
    final, transcript = protocol.run_protocol(config, bit, message_index=index)
    return (
        [state.tobytes() for state in transcript.stage_states],
        [float(p).hex() for p in transcript.stage_parameters],
        protocol._decode(final, config.xi),
    )


@pytest.mark.parametrize("kind", list(channels.NoiseKind))
@pytest.mark.parametrize("policy", list(StagePolicy))
def test_float_and_numpy_scalar_configs_give_the_same_transcript(kind, policy):
    rng = np.random.default_rng(27)
    for index in range(4):
        param = rng.uniform(0.0, 1.0) if kind.is_probability else rng.uniform(-7.0, 7.0)
        angles = rng.uniform(-4.0, 4.0, 3)
        configs = [
            ProtocolConfig(*map(cast, angles), channels.from_kind(kind, cast(param)),
                           stage_policy=policy, resample_seed=index)
            for cast in (float, np.float64)
        ]
        for bit in (0, 1):
            assert transcript_bytes(configs[0], bit, index) == transcript_bytes(configs[1], bit, index)


ANGLE_FIELDS = ("xi", "alice_angle", "bob_angle")


def config_of(field, value):
    angles = dict(xi=0.3, alice_angle=1.0, bob_angle=2.0)
    angles[field] = value
    return ProtocolConfig(**angles, channel=channels.amplitude_damping(0.3))


class TestStackedChannel:
    """A round takes one channel: a config with a stacked one is refused where it enters."""

    AD = channels.NoiseKind.AMPLITUDE_DAMPING

    @pytest.fixture(params=["list", "one-member array", "array parameter", "stacked operators"])
    def stacked(self, request):
        single, pair = channels.from_kind(self.AD, 0.1), channels.from_kind(self.AD, [0.1, 0.2])
        return {
            "list": pair,
            "one-member array": channels.from_kind(self.AD, np.array([0.1])),
            "array parameter": channels.QuantumChannel(self.AD, single.operators, np.array([0.1])),
            "stacked operators": channels.QuantumChannel(self.AD, pair.operators, 0.1),
        }[request.param]

    def test_run_protocol_refuses_it(self, stacked):
        with pytest.raises(ValueError, match="^channel must not be a stack, got parameter "):
            protocol.run_protocol(config_with(stacked), 0)

    @pytest.mark.parametrize("policy", list(StagePolicy))
    def test_transmit_message_refuses_it(self, stacked, policy):
        with pytest.raises(ValueError, match="^channel must not be a stack"):
            protocol.transmit_message([0, 1, 1], config_with(stacked, stage_policy=policy), 0)

    def test_replace_refuses_it(self, stacked):
        config = config_with(channels.from_kind(self.AD, 0.1))
        with pytest.raises(ValueError, match="^channel must not be a stack"):
            dataclasses.replace(config, channel=stacked)

    @pytest.mark.parametrize("bad", [None, "ad", channels.amplitude_damping(0.1).operators],
                             ids=["None", "str", "operators"])
    def test_an_object_that_is_not_a_channel_raises_type_error(self, bad):
        message = f"^channel must be a QuantumChannel, got {type(bad).__name__}$"
        with pytest.raises(TypeError, match=message):
            ProtocolConfig(0.1, 0.2, 0.3, bad)
        with pytest.raises(TypeError, match=message):
            dataclasses.replace(config_with(channels.from_kind(self.AD, 0.1)), channel=bad)


class TestAngleChecks:
    """A config's angles are checked where they enter: real, then finite."""

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    @pytest.mark.parametrize("bad", [
        1j, complex(0.3, 0.0), np.complex128(0.3), np.array(0.3 + 0j),
        np.array([0.3]), np.array([0.3, 0.4]), [0.3], "0.3", None,
    ], ids=repr)
    def test_a_non_real_angle_raises_type_error(self, field, bad):
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {re.escape(repr(bad))}$"):
            config_of(field, bad)

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cast", [float, np.float32, np.float64, np.array], ids=repr)
    def test_a_non_finite_angle_raises_value_error(self, field, bad, cast):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            config_of(field, cast(bad))

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    def test_an_int_beyond_the_float_range_is_not_finite(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got 1000"):
            config_of(field, 10**400)

    @pytest.mark.parametrize("field", ANGLE_FIELDS)
    @pytest.mark.parametrize("good", [
        2, True, 0.75, fractions.Fraction(3, 4), np.float32(0.75), np.float64(0.75),
        np.int64(2), np.bool_(True), np.array(0.75), np.array(2),
    ], ids=repr)
    def test_a_real_angle_runs_as_its_float(self, field, good):
        as_float = config_of(field, float(good))
        for bit in (0, 1):
            assert transcript_bytes(config_of(field, good), bit, 0) == transcript_bytes(as_float, bit, 0)
