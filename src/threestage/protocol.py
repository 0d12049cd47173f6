"""The three-stage commuting-rotation protocol with a noisy hop per stage.

One round transmits a single qubit Alice -> Bob -> Alice -> Bob:

1. Alice encodes her bit as one of two fixed orthogonal states,
   cos(xi)|0> + sin(xi)|1> for 0 and sin(xi)|0> - cos(xi)|1> for 1,
   applies her secret rotation R(theta), and sends the qubit.
2. Bob applies his secret rotation R(phi) and sends it back.
3. Alice removes her rotation with R(theta)^dagger and sends it a third time.
4. Bob removes R(phi)^dagger and measures in the encoding basis.

Rotations commute, so without noise Bob recovers the encoded state exactly.
Each of the three crossings applies the configured channel, so the recovered
state is in general the mixed state produced by three Kraus maps interleaved
with the four rotations. The damping channels' Kraus sum already averages
over environmental outcomes, so a single run yields the exact mixed state
and no trajectory sampling is needed.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra, channels
from .channels import QuantumChannel


class StagePolicy(Enum):
    """How the channel's noise parameter varies across the three crossings.

    FIXED is the standard model: one parameter for the whole round.
    RESAMPLE redraws the parameter independently per crossing: each stage
    scales the configured value by a uniform [0, 1) draw, and round i takes
    doubles 3i to 3i + 2 of the stream ``PCG64(resample_seed)``. It is a
    sensitivity-study extension, not part of the standard protocol model;
    transcripts record the parameters actually used. A message's decode
    draws come from ``PCG64(seed)``, so with ``seed == resample_seed`` the
    two are one stream and share draws.
    """

    FIXED = "fixed"
    RESAMPLE = "resample"


def _non_negative(name: str, value) -> int:
    """``value`` as an int, rejected unless it is a non-negative integer.

    Seeds and indices are checked where they enter: numpy's PCG64 would seed
    None from OS entropy, take a list as entropy words and wrap a negative
    ``advance``.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be a non-negative integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return value


def _is_real(value) -> bool:
    """True for a Python real, a numpy real scalar or a 0-d real array."""
    if isinstance(value, numbers.Real):
        return True
    return isinstance(value, (np.ndarray, np.generic)) and value.ndim == 0 and value.dtype.kind in "biuf"


@dataclass(frozen=True)
class ProtocolConfig:
    """Angles, channel, and stage policy for one protocol instance.

    ``xi`` fixes the public encoding basis, ``alice_angle`` and ``bob_angle``
    are the parties' secret rotations (all radians). Each angle must be a
    real number: a Python real, a numpy real scalar or a 0-d real array.
    Anything else raises TypeError, a NaN or infinite angle ValueError. A
    round takes one channel: a ``channel`` that is not a ``QuantumChannel``
    raises TypeError, a stacked one ValueError. A ``stage_policy`` that is not
    a ``StagePolicy`` raises TypeError.
    """

    xi: float
    alice_angle: float
    bob_angle: float
    channel: QuantumChannel
    stage_policy: StagePolicy = StagePolicy.FIXED
    resample_seed: int = 0

    def __post_init__(self):
        for name in ("xi", "alice_angle", "bob_angle"):
            value = getattr(self, name)
            if type(value) is not float and not _is_real(value):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.stage_policy, StagePolicy):
            raise TypeError(f"stage_policy must be a StagePolicy, got {self.stage_policy!r}")
        _non_negative("resample_seed", self.resample_seed)
        channel = self.channel
        if not isinstance(channel, QuantumChannel):
            raise TypeError(f"channel must be a QuantumChannel, got {type(channel).__name__}")
        if type(channel.parameter) is not float or any(op.shape != (2, 2) for op in channel.operators):
            raise ValueError(f"channel must not be a stack, got parameter {channel.parameter!r}")


@dataclass(frozen=True)
class Transcript:
    """Intermediate states of one round.

    ``stage_states`` holds the density matrix after each of the three channel
    crossings and the final state after Bob's inverse rotation.
    ``stage_parameters`` records the noise parameter used on each crossing
    (all equal under the FIXED policy).
    """

    stage_states: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    stage_parameters: tuple[float, float, float]
    bit_sent: int


def _basis(xi) -> np.ndarray:
    """Both encoded states as the rows of one matrix, shape ``xi.shape + (2, 2)``.

    Row 0 is cos(xi)|0> + sin(xi)|1>, row 1 is sin(xi)|0> - cos(xi)|1>.
    ``xi`` is taken as finite: a config's, or one ``algebra._finite`` checked.
    One angle builds its 2x2 in one call. The cosine and sine stay numpy's
    for every shape: ``math.cos`` can differ from them in the last ulp.
    """
    angles = np.asarray(xi, dtype=float)
    c, s = np.cos(angles), np.sin(angles)
    if not angles.ndim:
        return np.array([[c, s], [s, -c]], dtype=complex)
    out = np.empty(angles.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = s
    out[..., 1, 1] = -c
    return out


def encode_bit(bit: int, xi) -> np.ndarray:
    """State carrying ``bit`` in the basis fixed by ``xi``.

    Bit 0 maps to cos(xi)|0> + sin(xi)|1>, bit 1 to the orthogonal state
    sin(xi)|0> - cos(xi)|1>. An array of angles gives the stack of states,
    shape ``xi.shape + (2,)``.
    """
    return _basis(algebra._finite("xi", xi))[..., _bit(bit), :]


def _bit(bit) -> int:
    """``bit`` as the int it equals, 0 or 1 (True and 1.0 give 1), else ValueError."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return 0 if bit == 0 else 1


# A message is sent in blocks of this many bits, so every per-bit array is at
# most one block long whatever the message length.
MESSAGE_BLOCK_BITS = 2**14


def _uniform_draws(seed: int, first: int, n: int, k: int) -> np.ndarray:
    """Draws ``k * first`` to ``k * (first + n) - 1`` of ``PCG64(seed)``'s doubles, shape (n, k).

    Row i holds the ``k`` draws of index ``first + i``, so every index keeps
    its own draws whatever block it is drawn in. PCG64's jump-ahead
    (``advance``, O(log n) in the distance) skips the earlier draws.
    """
    generator = np.random.PCG64(seed)
    if first:
        generator.advance(k * first)
    return np.random.Generator(generator).random((n, k))


def _stage_channels(config: ProtocolConfig, first: int, n: int | None = None):
    """The three crossings' channels, stacked over rounds ``first`` to ``first + n - 1``.

    ``n`` None gives the one round ``first``, unstacked. A RESAMPLE stage's
    parameter u * p is not checked again: the channel's p was checked where
    it entered, and a draw u in [0, 1) keeps the product in p's domain. For
    a probability, rounding is monotone, so 0 <= fl(u * p) <= fl(1 * p) = p
    <= 1; an angle's product is at most |p| in magnitude, so finite.
    """
    if config.stage_policy is StagePolicy.FIXED:
        return (config.channel,) * 3
    draws = _uniform_draws(config.resample_seed, first, 1 if n is None else n, 3)
    draws = draws[0] if n is None else draws
    kind, parameter = config.channel.kind, config.channel.parameter
    return tuple(channels._build(kind, draws[..., j] * parameter) for j in range(3))


def _evolve(config: ProtocolConfig, rho: np.ndarray, stages, members=None) -> tuple:
    """States after each crossing and after Bob's inverse rotation; stacks broadcast.

    ``members`` given, the state Alice sends in round i is member
    ``members[i]`` of her rotated ``rho``: a block rotates its two encoded
    states once and gathers one per bit. ``_sandwich`` forms each member's
    products the same way at any stack size, so the bytes are those of
    rotating ``rho[members]``.
    """
    r_alice, r_bob = rotations = algebra._rotation((config.alice_angle, config.bob_angle))
    undo_alice, undo_bob = algebra.dagger(rotations)
    sent = algebra.conjugate_by(r_alice, rho, _built=undo_alice)
    after_1 = channels.apply_channel(stages[0], sent if members is None else sent[members])
    after_2 = channels.apply_channel(stages[1], algebra.conjugate_by(r_bob, after_1, _built=undo_bob))
    after_3 = channels.apply_channel(stages[2], algebra.conjugate_by(undo_alice, after_2, _built=r_alice))
    return after_1, after_2, after_3, algebra.conjugate_by(undo_bob, after_3, _built=r_bob)


def run_protocol(
    config: ProtocolConfig, bit: int, message_index: int | None = None
) -> tuple[np.ndarray, Transcript]:
    """Run one round and return (final density matrix, transcript).

    ``message_index`` is the round's position within a longer message, a
    non-negative integer (None stands for 0); under the RESAMPLE policy it
    picks the round's three stage draws, so that rounds see independent
    noise. It has no effect under FIXED.
    """
    index = 0 if message_index is None else _non_negative("message_index", message_index)
    # The config checked xi, and encoded states are normalized by
    # construction: neither is tested again.
    bit = _bit(bit)
    psi = _basis(config.xi)[bit]
    stages = _stage_channels(config, index)
    states = _evolve(config, psi[:, None] * psi.conj(), stages)
    transcript = Transcript(
        stage_states=states,
        stage_parameters=tuple(stage.parameter for stage in stages),
        bit_sent=bit,
    )
    return states[-1], transcript


def decode_bit(rho_final: np.ndarray, xi: float):
    """Outcome probabilities of the projective measurement in the encoding basis.

    Returns (p0, p1) with p_b = <state_b|rho|state_b>, each clamped to [0, 1]:
    floats for one state at one angle, else arrays of the shape that a stack
    of states and an array of angles broadcast to. The two encoded states
    form an orthonormal basis, so p0 + p1 = 1 up to rounding.
    ``rho_final`` and ``xi`` come from the caller, so they are checked here:
    a state that is not a density matrix, or a non-finite ``xi``, raises
    ValueError. The package's own rounds decode the states they evolved with
    ``_decode``, unchecked: a round starts from a pure encoded state and
    applies only unitaries and complete channels, re-symmetrizing after
    each, so its states stay valid, and its config checked ``xi``.
    """
    return _decode(algebra.validate_density(rho_final), algebra._finite("xi", xi))


def _decode(rho: np.ndarray, xi):
    """``decode_bit`` of complex (..., 2, 2) density matrices known to be valid, at finite angles."""
    p = _outcome_probabilities(rho, _basis(xi))
    return (float(p[0]), float(p[1])) if p.ndim == 1 else (p[..., 0], p[..., 1])


def _outcome_probabilities(rho: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<state|rho|state> clamped to [0, 1] per row of ``states``, shape ``rho.shape[:-2] + (rows,)``.

    Row times matrix times column for every state at once: every member
    takes the scalar inner product's arithmetic, so a stack decodes exactly
    as its members one by one, and a subset of the states as the full set.
    """
    value = (states.conj()[..., :, None, :] @ rho[..., None, :, :] @ states[..., :, :, None]).real
    return np.minimum(np.maximum(value[..., 0, 0], 0.0), 1.0)


def _message_bits(bits) -> np.ndarray:
    """The message as an int8 array, every entry checked to be 0 or 1.

    A 1-D integer array is checked as it is, and an array of another shape
    raises ValueError naming it; any other iterable is read entry by entry,
    so a bad entry is named as it was given.
    """
    if isinstance(bits, np.ndarray) and bits.ndim != 1:
        raise ValueError(f"message must be a 1-D sequence of bits, got an array of shape {bits.shape}")
    if isinstance(bits, np.ndarray) and bits.dtype.kind in "iu":
        values = bits
    else:
        values = np.fromiter(bits, dtype=object)
    if values.size == 0:
        raise ValueError("message must contain at least one bit")
    valid = (values == 0) | (values == 1)
    if not valid.all():
        index = int(np.argmin(valid))
        raise ValueError(f"message bits must be 0 or 1, got {values[index]!r} at index {index}")
    return values.astype(np.int8)


def _round_p0(config: ProtocolConfig, bits: np.ndarray | None, first: int) -> np.ndarray:
    """p0 of one stacked round per entry of ``bits``, bit i being round ``first + i``.

    Alice's rotation runs once on the two encoded states, and only p0 is
    measured; the bytes are those of a round per bit decoded in full.
    ``bits`` None measures both encoded states in the one round ``first``.
    """
    basis = _basis(config.xi)
    encoded = basis[:, :, None] * basis[:, None, :].conj()
    stages = _stage_channels(config, first, None if bits is None else len(bits))
    final = _evolve(config, encoded, stages, bits)[-1]
    return _outcome_probabilities(final, basis[:1])[:, 0]


def transmit_message(bits, config: ProtocolConfig, seed: int) -> tuple[list[int], float]:
    """Send a bit sequence and decode each outcome.

    Every bit is checked before any round runs. The message runs as arrays
    in blocks of ``MESSAGE_BLOCK_BITS`` bits, so memory stays bounded: under
    FIXED one stacked round over both encoded states, under RESAMPLE one
    stacked round per block with one set of stage channels per bit. Bit i is
    read from its (p0, p1) with double i of ``PCG64(seed)``, reached with
    PCG64's jump-ahead, so the output is independent of the block size and
    fixed by the inputs. The stage draws come from ``PCG64(resample_seed)``,
    so with ``seed == resample_seed`` the two share draws. Returns (decoded
    bits, QBER), QBER being the fraction of flipped bits.
    """
    decoded, qber = _transmit(_message_bits(bits), config, _non_negative("seed", seed))
    return decoded.tolist(), qber


def _transmit(sent: np.ndarray, config: ProtocolConfig, seed: int) -> tuple[np.ndarray, float]:
    """``transmit_message`` of a checked 1-D integer bit array and seed, decoded as an array.

    A block's bits are read with one jump to double ``start`` of
    ``PCG64(seed)``, the stream the stages share when ``seed == resample_seed``.
    """
    fixed = config.stage_policy is StagePolicy.FIXED
    if fixed:
        p0_of_bit = _round_p0(config, None, 0)
    decoded = np.empty_like(sent)
    for start in range(0, len(sent), MESSAGE_BLOCK_BITS):
        block = sent[start:start + MESSAGE_BLOCK_BITS]
        p0 = p0_of_bit[block] if fixed else _round_p0(config, block, start)
        # Bit 0 is read when the draw falls below p0.
        decoded[start:start + len(block)] = _uniform_draws(seed, start, len(block), 1)[:, 0] >= p0
    return decoded, int(np.count_nonzero(decoded != sent)) / len(sent)
