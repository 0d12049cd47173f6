import numpy as np
import pytest

from threestage import algebra, channels
from threestage.channels import ChannelError, NoiseKind


def hand_kraus_sum(operators, rho):
    """Kraus sum written out longhand, independent of apply_channel."""
    total = np.zeros((2, 2), dtype=complex)
    for op in operators:
        total += np.asarray(op) @ np.asarray(rho) @ np.asarray(op).conj().T
    return total


def plus_projector():
    return np.full((2, 2), 0.5, dtype=complex)


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


ALL_CONSTRUCTORS = [
    (channels.amplitude_damping, 1.0),
    (channels.phase_damping, 1.0),
    (channels.collective_dephasing, 2 * np.pi),
    (channels.collective_rotation, 2 * np.pi),
]


class TestConstruction:
    def test_amplitude_damping_kraus_entries(self):
        ch = channels.amplitude_damping(0.36)
        np.testing.assert_allclose(ch.operators[0], np.diag([1.0, 0.8]), atol=1e-15)
        np.testing.assert_allclose(ch.operators[1], [[0.0, 0.6], [0.0, 0.0]], atol=1e-15)

    def test_phase_damping_kraus_entries(self):
        ch = channels.phase_damping(0.75)
        np.testing.assert_allclose(ch.operators[0], np.diag([1.0, 0.5]), atol=1e-15)
        np.testing.assert_allclose(ch.operators[1], np.diag([0.0, np.sqrt(0.75)]), atol=1e-15)

    def test_amplitude_damping_zero_is_identity_pair(self):
        ch = channels.amplitude_damping(0.0)
        np.testing.assert_allclose(ch.operators[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(ch.operators[1], np.zeros((2, 2)), atol=1e-15)

    def test_collective_kinds_are_single_unitary(self):
        for ch in (channels.collective_dephasing(0.9), channels.collective_rotation(0.9)):
            assert len(ch.operators) == 1
            assert algebra.is_unitary(ch.operators[0])

    @pytest.mark.parametrize("constructor", [channels.amplitude_damping, channels.phase_damping])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
    def test_probability_range_enforced(self, constructor, bad):
        with pytest.raises(ValueError):
            constructor(bad)

    @pytest.mark.parametrize("constructor", [channels.collective_dephasing, channels.collective_rotation])
    def test_angle_must_be_finite(self, constructor):
        with pytest.raises(ValueError):
            constructor(np.inf)

    def test_completeness_for_random_parameters(self):
        rng = np.random.default_rng(21)
        for constructor, span in ALL_CONSTRUCTORS:
            for _ in range(200):
                ch = constructor(rng.uniform(0, span))
                assert channels.completeness_defect(ch.operators) < 1e-12

    def test_operators_are_read_only(self):
        ch = channels.amplitude_damping(0.3)
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 5.0

    def test_parameter_symbols(self):
        assert NoiseKind.AMPLITUDE_DAMPING.parameter_symbol == "eta"
        assert NoiseKind.PHASE_DAMPING.parameter_symbol == "eta"
        assert NoiseKind.COLLECTIVE_DEPHASING.parameter_symbol == "Phi"
        assert NoiseKind.COLLECTIVE_ROTATION.parameter_symbol == "Theta"

    def test_from_kind_dispatch(self):
        for kind, constructor, param in [
            (NoiseKind.AMPLITUDE_DAMPING, channels.amplitude_damping, 0.4),
            (NoiseKind.PHASE_DAMPING, channels.phase_damping, 0.4),
            (NoiseKind.COLLECTIVE_DEPHASING, channels.collective_dephasing, 0.4),
            (NoiseKind.COLLECTIVE_ROTATION, channels.collective_rotation, 0.4),
        ]:
            built = channels.from_kind(kind, param)
            direct = constructor(param)
            assert built.kind is direct.kind
            for a, b in zip(built.operators, direct.operators):
                np.testing.assert_array_equal(a, b)
        assert channels.from_kind(NoiseKind.IDENTITY, 123.0).parameter == 0.0


class TestApplication:
    def test_identity_channel_is_noop(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng)
        out = channels.apply_channel(channels.identity_channel(), rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_full_amplitude_damping_decays_everything(self):
        rng = np.random.default_rng(23)
        ch = channels.amplitude_damping(1.0)
        for _ in range(20):
            out = channels.apply_channel(ch, random_density(rng))
            np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_full_damping_on_excited_state(self):
        out = channels.apply_channel(channels.amplitude_damping(1.0), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)

    def test_amplitude_damping_plus_state_hand_value(self):
        # oracle: hand Kraus sum with sqrt(1 - 0.36) = 0.8
        ch = channels.amplitude_damping(0.36)
        expected = hand_kraus_sum(ch.operators, plus_projector())
        np.testing.assert_allclose(expected, [[0.68, 0.4], [0.4, 0.32]], atol=1e-15)
        np.testing.assert_allclose(channels.apply_channel(ch, plus_projector()), expected, atol=1e-15)

    def test_phase_damping_shrinks_coherences_only(self):
        ch = channels.phase_damping(0.75)
        out = channels.apply_channel(ch, plus_projector())
        np.testing.assert_allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    def test_full_phase_damping_diagonalizes(self):
        rng = np.random.default_rng(24)
        rho = random_density(rng)
        out = channels.apply_channel(channels.phase_damping(1.0), rho)
        assert abs(out[0, 1]) < 1e-15 and abs(out[1, 0]) < 1e-15
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-15)

    def test_collective_dephasing_two_pi_is_identity(self):
        rng = np.random.default_rng(25)
        rho = random_density(rng)
        out = channels.apply_channel(channels.collective_dephasing(2 * np.pi), rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_collective_dephasing_pi_flips_plus_to_minus(self):
        out = channels.apply_channel(channels.collective_dephasing(np.pi), plus_projector())
        np.testing.assert_allclose(out, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_collective_rotation_quarter_turn(self):
        out = channels.apply_channel(channels.collective_rotation(np.pi / 2), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_collective_rotation_commutes_with_rotations(self):
        op = channels.collective_rotation(0.5).operators[0]
        np.testing.assert_allclose(algebra.commutator(op, algebra.rotation(1.3)), 0.0, atol=1e-15)

    def test_bad_channel_rejected_at_construction(self):
        with pytest.raises(ChannelError):
            channels.QuantumChannel(
                kind=NoiseKind.AMPLITUDE_DAMPING,
                operators=(np.diag([1.0, 0.5]).astype(complex),),
                parameter=0.5,
            )

    def test_direct_construction_freezes_a_copy(self):
        op = np.eye(2, dtype=complex)
        ch = channels.QuantumChannel(kind=NoiseKind.IDENTITY, operators=(op,), parameter=0)
        op[0, 0] = 5.0
        assert ch.operators[0][0, 0] == 1.0
        assert not ch.operators[0].flags.writeable
        assert isinstance(ch.parameter, float)


class TestChannelProperties:
    def test_trace_preservation_and_positivity(self):
        rng = np.random.default_rng(26)
        for constructor, span in ALL_CONSTRUCTORS:
            for _ in range(250):
                ch = constructor(rng.uniform(0, span))
                out = channels.apply_channel(ch, random_density(rng))
                assert abs(np.trace(out).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_unitality_diagnostic(self):
        mixed = np.eye(2, dtype=complex) / 2
        for ch in (
            channels.phase_damping(0.6),
            channels.collective_dephasing(1.1),
            channels.collective_rotation(0.7),
        ):
            np.testing.assert_allclose(channels.apply_channel(ch, mixed), mixed, atol=1e-12)
        damped = channels.apply_channel(channels.amplitude_damping(0.6), mixed)
        assert np.max(np.abs(damped - mixed)) > 0.1

    def test_collective_channels_invert_with_negated_parameter(self):
        rng = np.random.default_rng(27)
        for constructor in (channels.collective_dephasing, channels.collective_rotation):
            for _ in range(50):
                value = rng.uniform(-3, 3)
                rho = random_density(rng)
                forward = channels.apply_channel(constructor(value), rho)
                back = channels.apply_channel(constructor(-value), forward)
                np.testing.assert_allclose(back, rho, atol=1e-12)
