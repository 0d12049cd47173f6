import dataclasses
import re

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


PROBABILITY_BAD = (np.nan, np.inf, -np.inf, -0.1, 1.1)
ANGLE_BAD = (np.nan, np.inf, -np.inf)
DOMAIN_VIOLATIONS = [
    (kind, bad)
    for kind, bads in [
        (NoiseKind.AMPLITUDE_DAMPING, PROBABILITY_BAD),
        (NoiseKind.PHASE_DAMPING, PROBABILITY_BAD),
        (NoiseKind.COLLECTIVE_DEPHASING, ANGLE_BAD),
        (NoiseKind.COLLECTIVE_ROTATION, ANGLE_BAD),
    ]
    for bad in bads
]

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
    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.inf, -np.inf])
    def test_probability_range_enforced(self, constructor, bad):
        with pytest.raises(ValueError):
            constructor(bad)

    @pytest.mark.parametrize("constructor", [channels.collective_dephasing, channels.collective_rotation])
    def test_angle_must_be_finite(self, constructor):
        with pytest.raises(ValueError):
            constructor(np.inf)

    @pytest.mark.parametrize("kind, bad", DOMAIN_VIOLATIONS)
    def test_check_parameter_names_the_symbol_and_the_first_bad_value(self, kind, bad):
        message = f"^{kind.parameter_symbol} must .*, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            channels.check_parameter(kind, bad)
        with pytest.raises(ValueError, match=message):
            channels.check_parameter(kind, [0.0, 0.5, bad, np.nan])
        with pytest.raises(ValueError, match=message):
            channels.from_kind(kind, bad)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_from_kind_names_an_int_beyond_the_float_range(self, kind, huge):
        domain = "lie in [0, 1]" if kind.is_probability else "be finite"
        with pytest.raises(ValueError) as info:
            channels.from_kind(kind, huge)
        assert str(info.value) == f"{kind.parameter_symbol or 'parameter'} must {domain}, got {huge!r}"

    def test_check_parameter_names_an_int_beyond_the_float_range_in_a_list(self):
        with pytest.raises(ValueError) as info:
            channels.check_parameter(NoiseKind.PHASE_DAMPING, [0.5, 10**400])
        assert str(info.value) == f"eta must lie in [0, 1], got {10**400!r}"

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_check_parameter_accepts_the_natural_range(self, kind):
        lo, hi = kind.natural_range
        channels.check_parameter(kind, np.linspace(lo, hi, 11))

    def test_natural_range_follows_the_parameter_kind(self):
        assert [kind.is_probability for kind in NoiseKind] == [True, True, False, False, False]
        assert NoiseKind.PHASE_DAMPING.natural_range == (0.0, 1.0)
        assert NoiseKind.COLLECTIVE_ROTATION.natural_range == (0.0, 2.0 * np.pi)

    def test_identity_parameter_must_be_finite(self):
        with pytest.raises(ValueError, match="parameter must be finite"):
            channels.from_kind(NoiseKind.IDENTITY, np.nan)

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

    def test_identity_channel_is_one_shared_frozen_instance(self):
        identity = channels.identity_channel()
        assert channels.identity_channel() is identity
        assert channels.from_kind(NoiseKind.IDENTITY, 0.7) is identity
        assert identity.kind is NoiseKind.IDENTITY
        assert identity.parameter == 0.0 and type(identity.parameter) is float
        (op,) = identity.operators
        assert op.tobytes() == np.eye(2, dtype=complex).tobytes() and not op.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            identity.parameter = 1.0
        with pytest.raises(ValueError):
            op[0, 1] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_identity_kind_still_checks_its_parameter(self, bad):
        with pytest.raises(ValueError, match="parameter must be finite"):
            channels.from_kind(NoiseKind.IDENTITY, bad)

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

    @pytest.mark.parametrize("kind, bad", DOMAIN_VIOLATIONS + [("ad", 0.3)])
    def test_direct_construction_checks_the_kind_and_parameter(self, kind, bad):
        # A RESAMPLE round rebuilds a config's channel from its kind and
        # parameter unchecked, so a channel built directly must hold valid ones.
        operators = (np.eye(2, dtype=complex),)
        message = check_message(kind, bad) if isinstance(kind, NoiseKind) else "unknown noise kind 'ad'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            channels.QuantumChannel(kind, operators, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(channels.identity_channel(), kind=kind, parameter=bad)

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


STACK_PARAMETERS = {
    NoiseKind.AMPLITUDE_DAMPING: np.linspace(0.0, 1.0, 9),
    NoiseKind.PHASE_DAMPING: np.linspace(0.0, 1.0, 9),
    NoiseKind.COLLECTIVE_DEPHASING: np.linspace(-7.0, 7.0, 9),
    NoiseKind.COLLECTIVE_ROTATION: np.linspace(-7.0, 7.0, 9),
}


class TestStacks:
    @pytest.mark.parametrize("kind", list(STACK_PARAMETERS))
    def test_stacked_channel_equals_its_members(self, kind):
        params = STACK_PARAMETERS[kind]
        stacked = channels.from_kind(kind, params)
        members = [channels.from_kind(kind, float(p)) for p in params]
        assert stacked.kind is kind
        np.testing.assert_array_equal(stacked.parameter, params)
        assert not stacked.parameter.flags.writeable
        for i, op in enumerate(stacked.operators):
            assert op.shape == (len(params), 2, 2) and not op.flags.writeable
            np.testing.assert_array_equal(op, [m.operators[i] for m in members])

    @pytest.mark.parametrize("kind", list(STACK_PARAMETERS))
    def test_stacked_application_equals_its_members(self, kind):
        rng = np.random.default_rng(60)
        params = STACK_PARAMETERS[kind]
        rhos = np.array([random_density(rng) for _ in params])
        stacked = channels.apply_channel(channels.from_kind(kind, params), rhos)
        members = [
            channels.apply_channel(channels.from_kind(kind, float(p)), rho)
            for p, rho in zip(params, rhos)
        ]
        np.testing.assert_array_equal(stacked, members)

    def test_one_channel_applies_to_a_stack_of_states(self):
        rng = np.random.default_rng(61)
        rhos = np.array([random_density(rng) for _ in range(10)])
        channel = channels.amplitude_damping(0.3)
        np.testing.assert_array_equal(
            channels.apply_channel(channel, rhos), [channels.apply_channel(channel, r) for r in rhos]
        )

    def test_completeness_defect_of_a_stack_is_the_worst_member(self):
        # A stack of non-Hermitian operators: transposing the whole stack
        # (rather than each member) would pair the wrong entries.
        rng = np.random.default_rng(62)
        ops = rng.normal(size=(2, 5, 2, 2)) + 1j * rng.normal(size=(2, 5, 2, 2))
        worst = max(channels.completeness_defect(ops[:, i]) for i in range(5))
        assert channels.completeness_defect(tuple(ops)) == worst

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_an_empty_stack_has_no_bad_member(self, kind):
        # The identity kind returns its one unstacked channel for any parameter.
        built = channels.from_kind(kind, np.zeros(0))
        assert channels.completeness_defect(built.operators) == 0.0
        direct = channels.QuantumChannel(kind, built.operators, built.parameter)
        for op, built_op in zip(direct.operators, built.operators, strict=True):
            assert op.shape == built_op.shape == ((2, 2) if kind is NoiseKind.IDENTITY else (0, 2, 2))
        empty = algebra.rotation(np.zeros(0))
        assert channels.apply_channel(built, empty).shape == (0, 2, 2)
        assert channels.completeness_defect(()) == 1.0

    def test_stack_with_one_incomplete_member_raises_as_alone(self):
        e0, e1 = channels.amplitude_damping(np.linspace(0.1, 0.9, 5)).operators
        e0 = e0.copy()
        e0[3, 1, 1] *= 1.01
        with pytest.raises(ChannelError) as alone:
            channels.QuantumChannel(NoiseKind.AMPLITUDE_DAMPING, (e0[3], e1[3]), 0.7)
        with pytest.raises(ChannelError) as stacked:
            channels.QuantumChannel(NoiseKind.AMPLITUDE_DAMPING, (e0, e1), np.linspace(0.1, 0.9, 5))
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("kind, bad", DOMAIN_VIOLATIONS)
    def test_stack_with_one_bad_parameter_raises_as_alone(self, kind, bad):
        params = STACK_PARAMETERS[kind].copy()
        params[5] = bad
        with pytest.raises(ValueError) as alone:
            channels.from_kind(kind, bad)
        with pytest.raises(ValueError) as stacked:
            channels.from_kind(kind, params)
        assert str(stacked.value) == str(alone.value)

    def test_identity_kind_with_a_parameter_stack_is_the_plain_identity(self):
        channel = channels.from_kind(NoiseKind.IDENTITY, np.zeros(4))
        assert channel.parameter == 0.0
        np.testing.assert_array_equal(channel.operators[0], np.eye(2))


def per_call_kraus_sum(channel, rho):
    """apply_channel as it forms each adjoint on every call."""
    rho = np.asarray(rho, dtype=complex)
    out = 0
    for op in channel.operators:
        out = out + op @ rho @ op.conj().swapaxes(-1, -2)
    return algebra.symmetrize(out)


ADJOINT_CHANNELS = [
    channels.from_kind(kind, value)
    for kind, params in STACK_PARAMETERS.items()
    for value in (float(params[3]), params)
] + [channels.identity_channel()]


class TestAdjoints:
    def test_channel_holds_only_the_fields_it_is_given(self):
        assert [f.name for f in dataclasses.fields(channels.QuantumChannel)] == [
            "kind", "operators", "parameter",
        ]

    @pytest.mark.parametrize("channel", ADJOINT_CHANNELS, ids=repr)
    def test_operators_are_read_only_and_complete(self, channel):
        for op in channel.operators:
            assert op.shape[-2:] == (2, 2) and not op.flags.writeable
            with pytest.raises(ValueError):
                op[..., 0, 1] = 5.0
        assert channels.completeness_defect(channel.operators) <= channels.COMPLETENESS_ATOL

    def test_replace_freezes_and_checks_the_new_operators(self):
        channel = channels.amplitude_damping(0.3)
        other = channels.amplitude_damping(np.array([0.1, 0.8]))
        writable = tuple(np.array(op) for op in other.operators)
        replaced = dataclasses.replace(channel, operators=writable, parameter=other.parameter)
        writable[0][...] = 0.0
        for op, original in zip(replaced.operators, other.operators):
            assert op.shape == (2, 2, 2) and not op.flags.writeable
            np.testing.assert_array_equal(op, original)
        with pytest.raises(ChannelError):
            dataclasses.replace(channel, operators=other.operators[:1])

    @pytest.mark.parametrize("channel", ADJOINT_CHANNELS, ids=repr)
    def test_apply_channel_equals_the_per_call_formula_bit_for_bit(self, channel):
        rng = np.random.default_rng(64)
        single = random_density(rng)
        stack = np.array([random_density(rng) for _ in range(9)])
        for rho in (single, stack):
            expected = per_call_kraus_sum(channel, rho)
            np.testing.assert_array_equal(channels.apply_channel(channel, rho), expected)


PROBABILITY_EDGES = (0.0, 5e-324, 1e-300, 0.5, float(np.nextafter(1.0, 0.0)), 1.0)
ANGLE_EDGES = (0.0, np.pi / 2, np.pi, 1e12, 1e300)
EDGE_CASES = [
    (constructor, value)
    for constructor, values in [
        (channels.amplitude_damping, PROBABILITY_EDGES),
        (channels.phase_damping, PROBABILITY_EDGES),
        (channels.collective_dephasing, ANGLE_EDGES),
        (channels.collective_rotation, ANGLE_EDGES),
    ]
    for value in values
]


class TestCompleteByConstruction:
    """The named constructors skip the completeness check; their operators pass it anyway."""

    @pytest.mark.parametrize("constructor, value", EDGE_CASES)
    def test_edge_parameters_give_complete_read_only_operators(self, constructor, value):
        for parameter in (value, np.full(10**4, value)):
            channel = constructor(parameter)
            for op in channel.operators:
                assert op.shape == np.shape(parameter) + (2, 2) and not op.flags.writeable
            assert channels.completeness_defect(channel.operators) <= channels.COMPLETENESS_ATOL

    @pytest.mark.parametrize("kind", list(STACK_PARAMETERS))
    def test_parameter_is_a_read_only_copy(self, kind):
        params = STACK_PARAMETERS[kind].copy()
        channel = channels.from_kind(kind, params)
        params[:] = 0.5
        np.testing.assert_array_equal(channel.parameter, STACK_PARAMETERS[kind])
        assert not channel.parameter.flags.writeable
        assert type(channels.from_kind(kind, np.float32(0.25)).parameter) is float


# A Python float takes its own path through check_parameter, _damping and
# _store; numpy scalars and 0-d arrays take the array path.
SCALAR_PARAMETERS = (0.0, -0.0, 1.0, 5e-324, 1 - 2**-53) + tuple(
    np.random.default_rng(26).uniform(0.0, 1.0, 6).tolist()
)


def check_message(kind, value):
    """The message check_parameter raises for ``value``, or None when it passes."""
    try:
        channels.check_parameter(kind, value)
    except ValueError as exc:
        return str(exc)
    return None


class TestScalarPath:
    """The float path builds the bytes, and raises the messages, of the array path."""

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("value", SCALAR_PARAMETERS, ids=float.hex)
    def test_float_numpy_scalar_and_0d_array_build_the_same_channel(self, kind, value):
        built = [channels.from_kind(kind, x) for x in (value, np.float64(value), np.array(value))]
        reference = built[-1]
        for channel in built:
            assert type(channel.parameter) is float
            assert channel.parameter.hex() == reference.parameter.hex()
            assert [op.tobytes() for op in channel.operators] == [op.tobytes() for op in reference.operators]
            assert all(op.shape == (2, 2) and not op.flags.writeable for op in channel.operators)
        if kind is not NoiseKind.IDENTITY:
            assert built[0].parameter.hex() == value.hex()

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf, -1e-300, 1 + 2**-52), ids=float.hex)
    def test_float_and_0d_array_get_the_same_message(self, kind, value):
        message = check_message(kind, value)
        assert message == check_message(kind, np.array(value))
        assert (message is not None) == (kind.is_probability or not np.isfinite(value))
        if message is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                channels.from_kind(kind, value)
