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

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra, channels
from .channels import QuantumChannel


class StagePolicy(Enum):
    """How the channel's noise parameter varies across the three crossings.

    FIXED is the standard model: one parameter for the whole round.
    RESAMPLE redraws the parameter independently per crossing (each stage
    scales the configured value by a uniform [0, 1] draw from a seeded
    stream). It is a sensitivity-study extension, not part of the standard
    protocol model; transcripts record the parameters actually used.
    """

    FIXED = "fixed"
    RESAMPLE = "resample"


@dataclass(frozen=True)
class ProtocolConfig:
    """Angles, channel, and stage policy for one protocol instance.

    ``xi`` fixes the public encoding basis, ``alice_angle`` and ``bob_angle``
    are the parties' secret rotations (all radians).
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
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


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
    """
    angles = np.asarray(xi, dtype=float)
    if not np.logical_and.reduce(np.isfinite(angles), axis=None):
        raise ValueError(f"xi must be finite, got {xi!r}")
    c, s = np.cos(angles), np.sin(angles)
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
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return _basis(xi)[..., bit, :]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h). Every constant the
# array arithmetic meets has its stage's dtype, uint32 for SeedSequence and
# uint64 for PCG64, so products wrap at the word size under the promotion
# rules of any numpy version.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL_WORDS = 4
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_ONE, _SHIFT11, _SHIFT32, _SHIFT58, _SHIFT63 = (np.uint64(v) for v in (1, 11, 32, 58, 63))
_LOW32, _WORD_BITS = np.uint64(_MASK32), np.uint64(64)
# The low multiplier word's 32-bit halves, for the high word of lo * _PCG_MULT_LO.
_MULT_LO_0, _MULT_LO_1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32

# A message is sent in blocks of this many bits, so every per-bit array is at
# most one block long whatever the message length.
MESSAGE_BLOCK_BITS = 2**14


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Xor and multiply constants of SeedSequence's first ``calls`` hashes, shape (2, calls, 1).

    Hash ``c`` xors its input with the ``c``-th value of the chain that
    starts at ``init`` and steps by ``mult`` mod 2**32, then multiplies it by
    the next value; row 0 holds the xor constants, row 1 the multipliers.
    """
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array([chain[:-1], chain[1:]], dtype=np.uint32)[..., None]


# The hashes depend on the call count alone. A: the pool's four initial hashes,
# then three per source word while the pool mixes (calls 4-15). B: the eight
# hashed state words. Each mixing column has the source's own slot a dummy 0.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
_POOL_INIT = _HASH_A[:, :_POOL_WORDS]
_POOL_MIX = [
    np.insert(_HASH_A[:, _POOL_WORDS + 3 * src:_POOL_WORDS + 3 * src + 3], src, 0, axis=1)
    for src in range(_POOL_WORDS)
]
_STATE_HASH = _HASH_B.reshape(2, 2, _POOL_WORDS, 1)


def _entropy_words(value) -> list[int]:
    """SeedSequence's split of a non-negative integer into 32-bit words, low first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` against broadcast constant columns, uint32."""
    out = values ^ xor
    out *= mult
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``, uint32."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _XSHIFT
    return out


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, state * multiplier + inc mod 2**128, on uint64 word arrays."""
    # High word of lo * _PCG_MULT_LO from 32-bit halves; no partial sum overflows.
    lo_0, lo_1 = lo & _LOW32, lo >> _SHIFT32
    t = ((lo_0 * _MULT_LO_0) >> _SHIFT32) + lo_0 * _MULT_LO_1
    u = (t & _LOW32) + lo_1 * _MULT_LO_0
    new_hi = lo_1 * _MULT_LO_1 + (t >> _SHIFT32) + (u >> _SHIFT32)
    new_hi += lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi
    new_lo = lo * _PCG_MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


def _pcg64_doubles(entropy: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` doubles of PCG64(SeedSequence(words)) per column of ``entropy``, shape (k, n).

    ``entropy`` is a (words, n) uint32 array, one column per generator, with
    at least the pool's four rows (SeedSequence mixes zeros for missing
    words, so shorter entropy is zero-padded). SeedSequence runs on uint32
    arrays, whose products wrap at 2**32 as its own do: the pool is one
    (4, n) array, and each source row's mixing step is one hash of that row
    against its (4, 1) multiplier column, one mix of the whole pool, and the
    source row put back. PCG64 runs on uint64 arrays, the 128-bit state as a
    high and a low word array, seeded, then stepped once per draw and read
    through its XSL-RR output into that draw's row of the result.
    """
    pool = _hash(entropy[:_POOL_WORDS], *_POOL_INIT)
    for src, (xor, mult) in enumerate(_POOL_MIX):
        mixed = _mix(pool, _hash(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    extra = entropy[_POOL_WORDS:]
    if len(extra):
        # Entropy past four words (a seed of 2**96 and up with its index word):
        # each further word mixes into every pool word.
        calls = _HASH_A.shape[1]
        later = _hash_constants(_INIT_A, _MULT_A, calls + _POOL_WORDS * len(extra))[:, calls:]
        for word, xor, mult in zip(extra, *later.reshape(2, len(extra), _POOL_WORDS, 1)):
            pool = _mix(pool, _hash(word, xor, mult))
    # generate_state(4, uint64): eight hashed pool words, paired little-endian.
    state = _hash(pool, *_STATE_HASH).reshape(2 * _POOL_WORDS, -1).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = state[0::2] | (state[1::2] << _SHIFT32)
    inc_hi, inc_lo = (inc_hi << _ONE) | (inc_lo >> _SHIFT63), (inc_lo << _ONE) | _ONE
    # Seeding: state = inc, plus the seed, stepped once.
    lo = seed_lo + inc_lo
    hi = seed_hi + inc_hi + (lo < inc_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    draws = np.empty((k, entropy.shape[1]))
    for row in draws:
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        folded, turn = hi ^ lo, hi >> _SHIFT58  # XSL-RR output
        folded = (folded >> turn) | (folded << ((_WORD_BITS - turn) & _SHIFT63))
        np.multiply(folded >> _SHIFT11, 1.0 / 2**53, out=row)
    return draws


def _uniform_draws(seed, index, k: int) -> np.ndarray:
    """``np.random.default_rng((seed, index)).random(k)``, for many indices at once.

    ``index`` None stands for the entropy ``(seed,)`` and an int for one
    index, each giving shape (k,) from numpy's own generator; a 1-D array of
    indices in [0, 2**32) gives one row per index, shape (len(index), k). An
    array's rows are numpy's stream computed in closed form, SeedSequence
    mixing and PCG64 seeding and stepping as integer arithmetic on arrays
    with one column per index, so no generator is built per index.
    """
    if index is None or np.ndim(index) == 0:
        return np.random.default_rng((seed,) if index is None else (seed, index)).random(k)
    words = _entropy_words(seed)
    index = np.asarray(index)
    if index.size and not 0 <= index.min() <= index.max() <= _MASK32:
        raise ValueError("message indices must lie in [0, 2**32)")
    entropy = np.zeros((max(len(words) + 1, _POOL_WORDS), index.size), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = index
    return _pcg64_doubles(entropy, k).T


def _stage_channels(config: ProtocolConfig, message_index):
    """The channels of the three crossings; an array of indices gives channel stacks."""
    if config.stage_policy is StagePolicy.FIXED:
        return (config.channel,) * 3
    draws = _uniform_draws(config.resample_seed, message_index, 3)
    kind, parameter = config.channel.kind, config.channel.parameter
    return tuple(channels.from_kind(kind, draws[..., j] * parameter) for j in range(3))


def _evolve(config: ProtocolConfig, rho: np.ndarray, stages) -> tuple:
    """States after each crossing and after Bob's inverse rotation; stacks broadcast."""
    r_alice, r_bob = rotations = algebra.rotation((config.alice_angle, config.bob_angle))
    undo_alice, undo_bob = algebra.dagger(rotations)
    after_1 = channels.apply_channel(stages[0], algebra.conjugate_by(r_alice, rho))
    after_2 = channels.apply_channel(stages[1], algebra.conjugate_by(r_bob, after_1))
    after_3 = channels.apply_channel(stages[2], algebra.conjugate_by(undo_alice, after_2))
    return after_1, after_2, after_3, algebra.conjugate_by(undo_bob, after_3)


def run_protocol(
    config: ProtocolConfig, bit: int, message_index: int | None = None
) -> tuple[np.ndarray, Transcript]:
    """Run one round and return (final density matrix, transcript).

    ``message_index`` is the round's position within a longer message; under
    the RESAMPLE policy it folds into the per-stage draw stream so that
    rounds see independent noise. It has no effect under FIXED.
    """
    psi = encode_bit(bit, config.xi)
    # encode_bit's states are normalized by construction: no re-validation.
    stages = _stage_channels(config, message_index)
    states = _evolve(config, np.outer(psi, psi.conj()), stages)
    transcript = Transcript(
        stage_states=states,
        stage_parameters=tuple(stage.parameter for stage in stages),
        bit_sent=bit,
    )
    return states[-1], transcript


def decode_bit(rho_final: np.ndarray, xi: float):
    """Outcome probabilities of the projective measurement in the encoding basis.

    Returns (p0, p1) with p_b = <state_b|rho|state_b>, each clamped to [0, 1]:
    floats for one state, arrays for a stack of states. The two encoded
    states form an orthonormal basis, so p0 + p1 = 1 up to rounding.
    ``rho_final`` is validated here, once; the basis states are normalized by
    construction.
    """
    rho = algebra.validate_density(rho_final)
    basis = _basis(xi)
    # Row times matrix times column for both states at once: every member
    # takes the scalar inner product's arithmetic, so a stack decodes exactly
    # as its members one by one.
    value = (basis.conj()[..., :, None, :] @ rho[..., None, :, :] @ basis[..., :, :, None]).real
    p = np.minimum(np.maximum(value[..., 0, 0], 0.0), 1.0)
    return (float(p[0]), float(p[1])) if rho.ndim == 2 else (p[..., 0], p[..., 1])


def _message_bits(bits) -> np.ndarray:
    """The message as an int8 array, every entry checked to be 0 or 1.

    A 1-D integer array is checked as it is; any other iterable is read
    entry by entry, so a bad entry is named as it was given.
    """
    if isinstance(bits, np.ndarray) and bits.ndim == 1 and bits.dtype.kind in "iu":
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


def _round_p0(config: ProtocolConfig, bits: np.ndarray, message_index) -> np.ndarray:
    """p0 of one stacked round per entry of ``bits``, the stages drawn for ``message_index``."""
    psi = _basis(config.xi)[bits]
    rho = psi[:, :, None] * psi[:, None, :].conj()
    final = _evolve(config, rho, _stage_channels(config, message_index))[-1]
    return decode_bit(final, config.xi)[0]


def transmit_message(
    bits, config: ProtocolConfig, seed: int
) -> tuple[list[int], float]:
    """Send a bit sequence and decode each outcome.

    Every bit is checked before any round runs. The message is processed in
    blocks of ``MESSAGE_BLOCK_BITS`` bits, so memory stays bounded at any
    length, and each block runs as arrays, with no Python step per bit.
    Under FIXED a round depends on the bit sent alone, so the whole message
    runs one stacked round over its distinct bit values; under RESAMPLE the
    stage parameters depend on the bit's index, so each block runs one
    stacked round with one state and one set of stage channels per bit.
    Each outcome is sampled from its (p0, p1) with the first draw of
    numpy's ``default_rng((seed, index))``: results are independent of the
    block size and of evaluation order, and identical inputs reproduce
    identical outputs. The draws are that stream computed in closed form for
    a whole block (``_uniform_draws``, pinned against numpy by the tests),
    not one generator per bit. On a 2-core x86-64 host (numpy 2.4) one
    250-bit block's draws take 130-220 µs, and a long message costs about
    0.1 µs per bit under FIXED, nearly all of it the draws, and 11-14 µs per
    bit under RESAMPLE; one generator per bit alone cost 15-27 µs.
    Returns (decoded bits, QBER), QBER being the fraction of flipped bits.
    """
    decoded, qber = _transmit(bits, config, seed)
    return decoded.tolist(), qber


def _transmit(bits, config: ProtocolConfig, seed: int) -> tuple[np.ndarray, float]:
    """``transmit_message`` with the decoded bits as an int8 array."""
    sent = _message_bits(bits)
    fixed = config.stage_policy is StagePolicy.FIXED
    if fixed:
        values = np.flatnonzero(np.bincount(sent, minlength=2))
        p0_of_bit = np.zeros(2)
        p0_of_bit[values] = _round_p0(config, values, None)
    decoded = np.empty_like(sent)
    for start in range(0, len(sent), MESSAGE_BLOCK_BITS):
        block = sent[start:start + MESSAGE_BLOCK_BITS]
        indices = np.arange(start, start + len(block))
        p0 = p0_of_bit[block] if fixed else _round_p0(config, block, indices)
        # Bit 0 is read when the draw falls below p0.
        decoded[start:start + len(block)] = _uniform_draws(seed, indices, 1)[:, 0] >= p0
    return decoded, int(np.count_nonzero(decoded != sent)) / len(sent)
