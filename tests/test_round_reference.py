"""One protocol round against the per-state reference it was optimised from.

The ``reference_*`` functions below are the earlier ``algebra`` and
``protocol`` code: a unitarity check that forms its own adjoint and identity,
``eigvalsh`` for the lowest eigenvalue, one ``encode_bit`` per basis state in
``decode_bit`` and one ``rotation`` per secret angle. The package now shares
the adjoint, takes the 2x2 eigenvalue in closed form and builds the basis
once, tries a single 2x2 unitary in scalar arithmetic before the numpy
test, multiplies a single 2x2 pair with ``ndarray.dot`` in place of ``@``,
forms the right products of one 2x2 operator against a stack in one
``dot``, and in a message block rotates the two encoded states once, builds
the stage channels without re-checking their parameters and measures p0
alone; its transcripts, outcome probabilities and error messages must
equal these bit for bit.
"""

import functools
import math
import operator

import numpy as np
import pytest

from threestage import algebra, channels, protocol
from threestage.channels import NoiseKind
from threestage.protocol import ProtocolConfig, StagePolicy

ATOL = algebra.ATOL


def reference_is_unitary(u, atol=algebra.UNITARY_ATOL):
    u = np.asarray(u, dtype=complex)
    return bool(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2))) <= atol)


def reference_as_mat2(m, name="matrix"):
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"{name} must have shape (..., 2, 2), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def reference_validate_density(rho):
    a = reference_as_mat2(rho, "density matrix")
    if np.max(np.abs(a - a.conj().swapaxes(-1, -2))) > ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    trace = a[..., 0, 0] + a[..., 1, 1]
    bad = np.abs(trace - 1.0) > ATOL
    if np.count_nonzero(bad):
        raise ValueError(f"density matrix trace is {complex(trace[bad][0])!r}, expected 1")
    lowest = np.linalg.eigvalsh(a)[..., 0]
    bad = lowest < -ATOL
    if np.count_nonzero(bad):
        raise ValueError(f"density matrix has negative eigenvalue {float(lowest[bad][0])!r}")
    return a


def reference_conjugate_by(u, rho):
    u = reference_as_mat2(u, "unitary")
    if not reference_is_unitary(u):
        raise ValueError("operator is not unitary within 1e-10")
    rho = np.asarray(rho, dtype=complex)
    return algebra.symmetrize(u @ rho @ u.conj().swapaxes(-1, -2))


def reference_encode_bit(bit, xi):
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    angles = np.asarray(xi, dtype=float)
    bad = angles[~np.isfinite(angles)]
    if bad.size:
        raise ValueError(f"xi must be finite, got {float(bad[0])!r}")
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(angles.shape + (2,), dtype=complex)
    out[..., 0], out[..., 1] = (c, s) if bit == 0 else (s, -c)
    return out


def reference_decode_bit(rho_final, xi):
    rho = reference_validate_density(rho_final)

    def probability(psi):
        value = np.real((psi.conj() @ rho)[..., None, :] @ psi[:, None])[..., 0, 0]
        return np.minimum(np.maximum(value, 0.0), 1.0)

    p0, p1 = probability(reference_encode_bit(0, xi)), probability(reference_encode_bit(1, xi))
    return (float(p0), float(p1)) if rho.ndim == 2 else (p0, p1)


def reference_apply_channel(channel, rho):
    """The Kraus sum as first written, from the int 0: ``0 + (-0.0)`` gives ``+0.0``."""
    rho = np.asarray(rho, dtype=complex)
    out = 0
    for op in channel.operators:
        out = out + op @ rho @ op.conj().swapaxes(-1, -2)
    return algebra.symmetrize(out)


def reference_completeness_defect(operators):
    total = 0
    for op in operators:
        op = np.asarray(op, dtype=complex)
        total = total + algebra.dagger(op) @ op
    return float(np.max(np.abs(total - np.eye(2))))


def reference_evolve(config, rho, stages, apply_channel=channels.apply_channel):
    r_alice = algebra.rotation(config.alice_angle)
    r_bob = algebra.rotation(config.bob_angle)
    after_1 = apply_channel(stages[0], reference_conjugate_by(r_alice, rho))
    after_2 = apply_channel(stages[1], reference_conjugate_by(r_bob, after_1))
    after_3 = apply_channel(stages[2], reference_conjugate_by(algebra.dagger(r_alice), after_2))
    return after_1, after_2, after_3, reference_conjugate_by(algebra.dagger(r_bob), after_3)


def same_bits(a, b) -> bool:
    """Equal shape and equal bytes: -0.0 and 0.0 differ, as do two NaN payloads."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def seeded_configs(seed, count, policy=StagePolicy.FIXED):
    """``count`` configs per kind with seeded angles and noise parameters."""
    rng = np.random.default_rng(seed)
    configs = []
    for kind in NoiseKind:
        for _ in range(count):
            param = float(rng.uniform(0.0, 1.0) if kind.is_probability else rng.uniform(-7.0, 7.0))
            xi, alice, bob = (float(v) for v in rng.uniform(-7.0, 7.0, 3))
            configs.append(ProtocolConfig(
                xi=xi, alice_angle=alice, bob_angle=bob,
                channel=channels.from_kind(kind, param),
                stage_policy=policy, resample_seed=int(rng.integers(0, 2**31)),
            ))
    return configs


@pytest.mark.parametrize("bit", [0, 1])
def test_single_fixed_rounds_match_the_reference_bit_for_bit(bit):
    for config in seeded_configs(bit + 71, 40):
        final, transcript = protocol.run_protocol(config, bit)
        psi = reference_encode_bit(bit, config.xi)
        assert same_bits(protocol.encode_bit(bit, config.xi), psi)
        states = reference_evolve(config, np.outer(psi, psi.conj()), (config.channel,) * 3)
        assert len(transcript.stage_states) == 4
        for got, want in zip(transcript.stage_states, states):
            assert same_bits(got, want)
        assert final is transcript.stage_states[-1]
        p = protocol.decode_bit(final, config.xi)
        want = reference_decode_bit(states[-1], config.xi)
        assert all(type(v) is float for v in p)
        assert same_bits(p, want)


@pytest.mark.parametrize("bit", [0, 1])
def test_single_resample_rounds_match_the_reference_bit_for_bit(bit):
    for index, config in enumerate(seeded_configs(bit + 81, 8, StagePolicy.RESAMPLE)):
        _, transcript = protocol.run_protocol(config, bit, message_index=index)
        psi = reference_encode_bit(bit, config.xi)
        stages = protocol._stage_channels(config, index)
        states = reference_evolve(config, np.outer(psi, psi.conj()), stages)
        for got, want in zip(transcript.stage_states, states):
            assert same_bits(got, want)


def test_stacked_resample_block_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(91)
    for config in seeded_configs(92, 3, StagePolicy.RESAMPLE):
        bits = rng.integers(0, 2, 257).astype(np.int8)
        stages = protocol._stage_channels(config, 1000, len(bits))
        psi = np.where(bits[:, None] == 0, reference_encode_bit(0, config.xi),
                       reference_encode_bit(1, config.xi))
        rho = psi[:, :, None] * psi[:, None, :].conj()
        states = protocol._evolve(config, rho, stages)
        want_states = reference_evolve(config, rho, stages)
        for got, want in zip(states, want_states):
            assert same_bits(got, want)
        p0, p1 = protocol.decode_bit(states[-1], config.xi)
        want_p0, want_p1 = reference_decode_bit(want_states[-1], config.xi)
        assert same_bits(p0, want_p0) and same_bits(p1, want_p1)
        assert same_bits(protocol._round_p0(config, bits, 1000), want_p0)


def reference_stage_channels(config, first, n):
    """The three crossings' channels over rounds ``first`` to ``first + n - 1``, each built by ``from_kind``."""
    if config.stage_policy is StagePolicy.FIXED:
        return (config.channel,) * 3
    draws = protocol._uniform_draws(config.resample_seed, first, n, 3)
    kind, parameter = config.channel.kind, config.channel.parameter
    return tuple(channels.from_kind(kind, draws[:, j] * parameter) for j in range(3))


BLOCKS = {
    "zeros": np.zeros(6, dtype=np.int8),
    "ones": np.ones(6, dtype=np.int8),
    "single": np.ones(1, dtype=np.int8),
    "mixed": np.random.default_rng(93).integers(0, 2, 257).astype(np.int8),
}


@pytest.mark.parametrize("policy", list(StagePolicy))
@pytest.mark.parametrize("block", list(BLOCKS))
def test_a_block_p0_equals_the_reference_round_bit_for_bit(policy, block):
    # The reference rotates every bit's state and decodes both outcomes;
    # _round_p0 rotates the two encoded states once and measures p0 alone.
    bits = BLOCKS[block]
    for config in seeded_configs(94, 3, policy):
        psi = np.where(bits[:, None] == 0, reference_encode_bit(0, config.xi),
                       reference_encode_bit(1, config.xi))
        rho = psi[:, :, None] * psi[:, None, :].conj()
        final = reference_evolve(config, rho, reference_stage_channels(config, 700, len(bits)))[-1]
        want_p0, _ = reference_decode_bit(final, config.xi)
        assert same_bits(protocol._round_p0(config, bits, 700), want_p0)


def assert_kraus_sums_equal_the_sums_from_zero(config, rho, stages):
    got = reference_evolve(config, rho, stages)
    want = reference_evolve(config, rho, stages, reference_apply_channel)
    for got_state, want_state in zip(got, want):
        assert same_bits(got_state, want_state)
    for stage in stages:
        assert channels.completeness_defect(stage.operators) == reference_completeness_defect(stage.operators)


@pytest.mark.parametrize("policy, seed", [
    (StagePolicy.FIXED, 71), (StagePolicy.FIXED, 72), (StagePolicy.RESAMPLE, 81), (StagePolicy.RESAMPLE, 82),
])
def test_kraus_sums_equal_the_sums_from_zero_on_seeded_rounds(policy, seed):
    for index, config in enumerate(seeded_configs(seed, 40, policy)):
        stages = protocol._stage_channels(config, index)
        for bit in (0, 1):
            psi = reference_encode_bit(bit, config.xi)
            assert_kraus_sums_equal_the_sums_from_zero(config, np.outer(psi, psi.conj()), stages)


# The four axis angles, both zeros and one generic angle.
EDGE_ANGLES = [0.0, -0.0, 0.3, np.pi / 2, np.pi, 3 * np.pi / 2]


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_kraus_sums_equal_the_sums_from_zero_on_edge_inputs(kind):
    # The kind at both ends of its range, every pair of edge secret angles,
    # and both bits at every edge encoding angle as one stack.
    xi = np.array(EDGE_ANGLES)
    psi = np.concatenate([reference_encode_bit(0, xi), reference_encode_bit(1, xi)])
    rho = psi[:, :, None] * psi[:, None, :].conj()
    for param in kind.natural_range:
        channel = channels.from_kind(kind, param)
        for alice in EDGE_ANGLES:
            for bob in EDGE_ANGLES:
                config = ProtocolConfig(xi=0.0, alice_angle=alice, bob_angle=bob, channel=channel)
                assert_kraus_sums_equal_the_sums_from_zero(config, rho, (channel,) * 3)


def random_states(rng, count):
    """Mixed states G G^dagger / tr and pure states |psi><psi|, ``count`` of each."""
    g = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    mixed = g @ g.conj().swapaxes(-1, -2)
    mixed /= (mixed[:, 0, 0] + mixed[:, 1, 1])[:, None, None]
    psi = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    pure = psi[:, :, None] * psi[:, None, :].conj()
    return np.concatenate([mixed, algebra.symmetrize(pure)])


def test_closed_form_lowest_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(94)
    for _ in range(4):
        rho = random_states(rng, 50_000)
        closed = algebra._lowest_eigenvalue(rho)
        assert closed.shape == (100_000,)
        assert np.max(np.abs(closed - np.linalg.eigvalsh(rho)[:, 0])) <= 1e-15


@pytest.mark.parametrize("rho", [
    np.eye(2) / 2, [[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5j], [-0.5j, 0.5]],
    [[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]],
])
def test_valid_states_pass_both_checks_unchanged(rho):
    assert same_bits(algebra.validate_density(rho), reference_validate_density(rho))


def error_of(function, *args) -> str:
    with pytest.raises(ValueError) as info:
        function(*args)
    return str(info.value)


GOOD = np.eye(2) / 2


@pytest.mark.parametrize("rho", [
    [[np.nan, 0.0], [0.0, 0.5]],
    [[0.5, np.inf], [0.0, 0.5]],
    [[0.5, 0.1], [0.2, 0.5]],
    [[0.5, 0.1j], [0.1j, 0.5]],
    [[0.7, 0.0], [0.0, 0.7]],
    [[0.5 + 1e-3j, 0.0], [0.0, 0.5 - 1e-3j]],
    [[1.5, 0.0], [0.0, -0.5]],
    [[0.5, 1.0], [1.0, 0.5]],
    [[0.25, 0.0], [0.0, 0.75 + 1e-11]],
    np.ones((3, 3)) / 3,
])
def test_density_check_messages_equal_the_reference(rho):
    want = error_of(reference_validate_density, rho)
    assert error_of(algebra.validate_density, rho) == want
    stack = np.stack([GOOD, GOOD, rho]) if np.shape(rho) == (2, 2) else None
    if stack is not None:
        assert error_of(algebra.validate_density, stack) == error_of(reference_validate_density, stack)


@pytest.mark.parametrize("u", [
    2.0 * np.eye(2),
    [[1.0, 1.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 1.0 + 1e-9]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [-np.inf, 1.0]],
    np.eye(3),
    [[0.6, 0.8], [0.8, 0.6]],  # unit columns that are not orthogonal
    [[1.0, 1j], [0.0, 0.0]],
])
def test_unitarity_check_messages_equal_the_reference(u):
    want = error_of(reference_conjugate_by, u, GOOD)
    assert error_of(algebra.conjugate_by, u, GOOD) == want
    if np.shape(u) == (2, 2):
        stack = np.stack([np.eye(2), algebra.rotation(0.4), u])
        assert error_of(algebra.conjugate_by, stack, GOOD) == want


def test_unitarity_verdicts_equal_the_reference():
    rng = np.random.default_rng(95)
    for scale in (0.0, 1e-11, 1e-10, 1e-9, 1e-3):
        rotations = algebra.rotation(rng.uniform(-7.0, 7.0, 200))
        noisy = rotations + scale * rng.normal(size=rotations.shape)
        for u in noisy:
            assert algebra.is_unitary(u) == reference_is_unitary(u)
            assert algebra.is_unitary(u, atol=1e-6) == reference_is_unitary(u, atol=1e-6)
        assert algebra.is_unitary(noisy) == reference_is_unitary(noisy)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
@pytest.mark.parametrize("position", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=str)
def test_a_non_finite_entry_raises_as_the_reference(position, value):
    # A test that took max() of the three defects would accept a NaN at
    # (0, 1) or (1, 1): max drops a NaN that is not its first argument.
    u = algebra.rotation(0.4)
    u[position] = value
    want = error_of(reference_conjugate_by, u, GOOD)
    assert want == "unitary has non-finite entries"
    assert error_of(algebra.conjugate_by, u, GOOD) == want
    stack = np.stack([np.eye(2), u, algebra.rotation(0.7)])
    assert error_of(algebra.conjugate_by, stack, GOOD) == want
    assert error_of(reference_conjugate_by, stack, GOOD) == want


# Each noise scale, with the label its test ids carry. Every operator takes
# the numpy test, which accepts all of them up to 1e-11, some from 4e-11 to
# 1e-10 and none from 1e-9.
NOISE_SCALES = [(0.0, "scalar"), (1e-11, "both"), (4e-11, "both"), (6e-11, "both"),
                (1e-10, "exact"), (1e-9, "exact"), (1e-3, "exact")]


@pytest.mark.parametrize("scale, paths", NOISE_SCALES)
def test_single_operator_verdicts_and_values_equal_the_reference(monkeypatch, scale, paths):
    exact = []  # one entry per call of the numpy test
    within_unitary = algebra._within_unitary
    monkeypatch.setattr(algebra, "_within_unitary", lambda *args: exact.append(args) or within_unitary(*args))
    rng = np.random.default_rng(96)
    rotations = algebra.rotation(rng.uniform(-7.0, 7.0, 300))
    noisy = rotations + scale * (rng.normal(size=rotations.shape) + 1j * rng.normal(size=rotations.shape))
    rho = random_states(rng, 1)[0]
    for u in noisy:
        try:
            want = reference_conjugate_by(u, rho)
        except ValueError as exc:
            assert error_of(algebra.conjugate_by, u, rho) == str(exc)
        else:
            assert same_bits(algebra.conjugate_by(u, rho), want)
    # Every operator from outside the package takes the numpy test.
    assert len(exact) == len(noisy)


def outcome(function, *args):
    """The message of the ValueError ``function`` raises, else its value's shape, dtype and bytes."""
    try:
        value = np.asarray(function(*args))
    except ValueError as exc:
        return str(exc)
    return value.shape, value.dtype, value.tobytes()


@pytest.mark.parametrize("bit, xi", [(2, 0.0), (-1, 0.0), (0, np.nan), (1, np.inf),
                                     (0, np.array([0.0, -np.inf])),
                                     (True, 0.3), (False, 0.3), (1.0, 0.3), (0.0, 0.3), (np.int64(1), 0.3),
                                     (True, np.array([0.3, -1.2]))])
def test_encoding_messages_equal_the_reference(bit, xi):
    assert outcome(protocol.encode_bit, bit, xi) == outcome(reference_encode_bit, bit, xi)


def matmul_conjugate_by(u, rho):
    """``conjugate_by``'s product as ``@`` forms it, for every shape."""
    return algebra.symmetrize(u @ rho @ u.conj().swapaxes(-1, -2))


def matmul_kraus_sum(channel, rho):
    """``apply_channel`` as ``@`` forms it, for every shape, summed in the same order."""
    terms = [op @ rho @ op.conj().swapaxes(-1, -2) for op in channel.operators]
    return algebra.symmetrize(functools.reduce(operator.add, terms))


def layouts(m):
    """The 2x2 ``m`` in several memory layouts, each a different matrix or the same one.

    C- and F-ordered and read-only copies, the daggered view ``@`` and
    ``dot`` form of an adjoint, views with negative strides, and a view into
    a larger buffer whose rows are not adjacent.
    """
    read_only = np.array(m)
    read_only.flags.writeable = False
    padded = np.zeros((4, 4), dtype=complex)
    padded[::2, ::2] = m
    return [np.ascontiguousarray(m), np.asfortranarray(m), read_only, algebra.dagger(m),
            m[::-1], m[:, ::-1], padded[::2, ::2]]


TINY = 5e-324  # the smallest subnormal double


def seeded_unitaries(rng, count):
    """Unitaries from QR, rotations and phase gates at edge angles, and one with subnormal entries."""
    gaussian = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    random = list(np.linalg.qr(gaussian)[0])
    edges = [algebra.rotation(a) for a in EDGE_ANGLES] + [algebra.phase_gate(a) for a in EDGE_ANGLES]
    subnormal = np.array([[1.0, complex(TINY, -0.0)], [-TINY, complex(-0.0, 1.0)]])
    return random + edges + [subnormal]


def edge_states(rng, count):
    """Seeded mixed and pure states, and matrices with signed zeros and subnormal entries."""
    signed = np.array([[1.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), complex(-0.0, -0.0)]])
    subnormal = np.array([[0.5, complex(TINY, -TINY)], [complex(TINY, TINY), 0.5]])
    return list(random_states(rng, count)) + [signed, subnormal, -subnormal]


def test_a_single_conjugation_equals_the_matmul_product_bit_for_bit():
    rng = np.random.default_rng(97)
    for unitary in seeded_unitaries(rng, 6):
        for rho in edge_states(rng, 3):
            for u in layouts(unitary):
                # Each layout of rho, and rho sharing u's buffer, plain and transposed.
                for r in layouts(rho) + [u, u.T]:
                    assert same_bits(algebra.conjugate_by(u, r), matmul_conjugate_by(u, r))


def with_f_ordered_operators(channel):
    """``channel`` with its operators stored F-ordered, as ``QuantumChannel`` keeps a given order."""
    operators = tuple(np.asfortranarray(op) for op in channel.operators)
    return channels.QuantumChannel(channel.kind, operators, channel.parameter)


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_a_single_kraus_sum_equals_the_matmul_sum_bit_for_bit(kind):
    rng = np.random.default_rng(98)
    lo, hi = kind.natural_range
    for param in (lo, TINY, 0.3, hi):
        built = channels.from_kind(kind, param)
        for channel in (built, with_f_ordered_operators(built)):
            for op in channel.operators:
                assert not op.flags.writeable
            for rho in edge_states(rng, 2):
                # Each layout of rho, and rho sharing the first operator's buffer transposed.
                for r in layouts(rho) + [channel.operators[0].T]:
                    assert same_bits(channels.apply_channel(channel, r), matmul_kraus_sum(channel, r))


@pytest.mark.parametrize("policy", list(StagePolicy))
def test_stacks_keep_the_matmul_products(policy):
    rng = np.random.default_rng(99)
    stack = np.stack(edge_states(rng, 4))
    for u in seeded_unitaries(rng, 3):
        assert same_bits(algebra.conjugate_by(u, stack), matmul_conjugate_by(u, stack))
    for config in seeded_configs(100, 2, policy):
        stages = protocol._stage_channels(config, 7, len(stack))
        for stage in stages:
            assert same_bits(channels.apply_channel(stage, stack), matmul_kraus_sum(stage, stack))


def test_a_fixed_two_member_round_equals_its_single_rounds_bit_for_bit():
    for config in seeded_configs(101, 20):
        basis = protocol._basis(config.xi)
        rho = basis[:, :, None] * basis[:, None, :].conj()
        stacked = protocol._evolve(config, rho, (config.channel,) * 3)
        p0 = protocol._round_p0(config, np.arange(2), 0)
        for bit in (0, 1):
            final, transcript = protocol.run_protocol(config, bit)
            for got, want in zip(transcript.stage_states, stacked):
                assert same_bits(got, want[bit])
            assert same_bits(protocol.decode_bit(final, config.xi)[0], p0[bit])


# Stack shapes of states: empty, one to three members, an odd size, a full
# message block and 37 more, and two leading axes.
STACK_SHAPES = [(0,), (1,), (2,), (3,), (257,), (protocol.MESSAGE_BLOCK_BITS + 37,), (3, 5)]


def seeded_stack(rng, shape):
    """States of stack shape ``shape``: the signed-zero and subnormal matrices first, then seeded states."""
    count = math.prod(shape)
    states = np.concatenate([np.stack(edge_states(rng, 0)), random_states(rng, count)])
    return states[:count].reshape(shape + (2, 2))


# A stack as given, and three views of it.
VIEWS = {
    "plain": lambda stack: stack,
    "every-other": lambda stack: stack[::2],
    "transposed": lambda stack: stack.swapaxes(-1, -2),
    "reversed": lambda stack: stack[::-1],
}


@pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS.keys())
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_one_unitary_against_a_stack_equals_the_matmul_product_bit_for_bit(shape, view):
    rng = np.random.default_rng(102)
    rho = view(seeded_stack(rng, shape))
    for unitary in seeded_unitaries(rng, 2):
        for u in layouts(unitary):
            assert same_bits(algebra.conjugate_by(u, rho), matmul_conjugate_by(u, rho))


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
def test_a_fixed_channel_on_a_stack_equals_the_matmul_sum_bit_for_bit(shape, kind):
    rng = np.random.default_rng(103)
    stack = seeded_stack(rng, shape)
    lo, hi = kind.natural_range
    for param in (lo, TINY, 0.3, hi):
        built = channels.from_kind(kind, param)
        for channel in (built, with_f_ordered_operators(built)):
            for rho in (view(stack) for view in VIEWS.values()):
                assert same_bits(channels.apply_channel(channel, rho), matmul_kraus_sum(channel, rho))


@pytest.mark.parametrize("policy", list(StagePolicy))
def test_a_full_block_round_matches_the_matmul_reference_bit_for_bit(policy):
    rng = np.random.default_rng(104)
    for config in seeded_configs(105, 1, policy):
        bits = rng.integers(0, 2, protocol.MESSAGE_BLOCK_BITS + 37).astype(np.int8)
        stages = protocol._stage_channels(config, 5000, len(bits))
        psi = protocol._basis(config.xi)[bits]
        rho = psi[:, :, None] * psi[:, None, :].conj()
        want_states = reference_evolve(config, rho, stages, matmul_kraus_sum)
        for got, want in zip(protocol._evolve(config, rho, stages), want_states):
            assert same_bits(got, want)
        want_p0, _ = reference_decode_bit(want_states[-1], config.xi)
        assert same_bits(protocol._round_p0(config, bits, 5000), want_p0)


def random_complete_channel(rng, count, members=None):
    """A channel of ``count`` Kraus operators cut from a random 2*count x 2 isometry, one per member if stacked."""
    shape = () if members is None else (members,)
    gaussian = rng.normal(size=shape + (2 * count, 2)) + 1j * rng.normal(size=shape + (2 * count, 2))
    isometry = np.linalg.qr(gaussian)[0]
    operators = tuple(isometry[..., 2 * i:2 * i + 2, :] for i in range(count))
    return channels.QuantumChannel(NoiseKind.IDENTITY, operators, 0.0)


def kraus_channels(rng, members):
    """Channels of 1, 2 and 3 Kraus operators, unstacked and stacked over ``members`` (3 if None).

    Every named kind at both ends of its range, at 5e-324 and at 0.3, and as
    a stack that starts with those values; random complete channels.
    """
    count = members or 3
    for kind in NoiseKind:
        lo, hi = kind.natural_range
        for param in (lo, TINY, 0.3, hi):
            yield channels.from_kind(kind, param)
        yield channels.from_kind(kind, np.concatenate([[lo, TINY, 0.3, hi], rng.uniform(lo, hi, count)])[:count])
    for operators in (1, 2, 3):
        yield random_complete_channel(rng, operators)
        yield random_complete_channel(rng, operators, count)


# A single 2x2 state (None), and stacks of one to three members, an odd size
# and a full message block and 37 more; small stacks hold the signed-zero
# and subnormal states of ``edge_states``.
KRAUS_STACKS = [None, 1, 2, 3, 257, protocol.MESSAGE_BLOCK_BITS + 37]


def kraus_states(rng, members):
    """The single edge and seeded states when ``members`` is None, else one seeded stack of them."""
    return edge_states(rng, 2) if members is None else [seeded_stack(rng, (members,))]


@pytest.mark.parametrize("members", KRAUS_STACKS, ids=str)
def test_a_kraus_sum_equals_the_reference_sum_bit_for_bit(members):
    # apply_channel forms every operator's left product in one product per
    # state, on the operators' rows laid end to end.
    rng = np.random.default_rng(106)
    states = kraus_states(rng, members)
    for built in kraus_channels(rng, members):
        for channel in (built, with_f_ordered_operators(built)):
            for rho in states:
                assert same_bits(channels.apply_channel(channel, rho), reference_apply_channel(channel, rho))


# Both zeros, both axis angles at pi and an angle whose cosine and sine are
# far from any multiple of pi's.
ROUND_ANGLES = [0.0, -0.0, np.pi, -np.pi, 1e300]
ROUND_ANGLE_PAIRS = list(dict.fromkeys(list(zip(ROUND_ANGLES, ROUND_ANGLES))
                                       + list(zip(ROUND_ANGLES, ROUND_ANGLES[::-1]))))


@pytest.mark.parametrize("policy", list(StagePolicy))
@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("members", KRAUS_STACKS, ids=str)
def test_rounds_at_edge_angles_equal_the_reference_round_bit_for_bit(members, kind, policy):
    # Each conjugation takes the adjoint the round already holds, and each
    # crossing one left product per state.
    rng = np.random.default_rng(107)
    states = kraus_states(rng, members)
    channel = channels.from_kind(kind, 0.3)
    for alice, bob in ROUND_ANGLE_PAIRS:
        config = ProtocolConfig(xi=0.0, alice_angle=alice, bob_angle=bob, channel=channel,
                                stage_policy=policy, resample_seed=108)
        stages = protocol._stage_channels(config, 9, members)
        for rho in states:
            got = protocol._evolve(config, rho, stages)
            for got_state, want in zip(got, reference_evolve(config, rho, stages, reference_apply_channel)):
                assert same_bits(got_state, want)


def test_a_stacked_channel_holds_only_its_fields_after_it_is_applied():
    # The rows laid end to end are built at each call, never stored.
    rng = np.random.default_rng(109)
    stack = seeded_stack(rng, (5,))
    for channel in kraus_channels(rng, 5):
        operators = channel.operators
        channels.apply_channel(channel, stack)
        channels.apply_channel(channel, stack[0])
        assert set(vars(channel)) == {"kind", "operators", "parameter"}
        assert channel.operators is operators
