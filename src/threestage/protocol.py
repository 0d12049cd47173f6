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


def encode_bit(bit: int, xi) -> np.ndarray:
    """State carrying ``bit`` in the basis fixed by ``xi``.

    Bit 0 maps to cos(xi)|0> + sin(xi)|1>, bit 1 to the orthogonal state
    sin(xi)|0> - cos(xi)|1>. An array of angles gives the stack of states,
    shape ``xi.shape + (2,)``.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    angles = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError(f"xi must be finite, got {xi!r}")
    c, s = np.cos(angles), np.sin(angles)
    out = np.empty(angles.shape + (2,), dtype=complex)
    out[..., 0], out[..., 1] = (c, s) if bit == 0 else (s, -c)
    return out


def _stage_channels(config: ProtocolConfig, message_index):
    if config.stage_policy is StagePolicy.FIXED:
        return (config.channel,) * 3
    seed = (config.resample_seed,) if message_index is None else (
        config.resample_seed,
        message_index,
    )
    draws = np.random.default_rng(seed).random(3)
    return tuple(
        channels.from_kind(config.channel.kind, u * config.channel.parameter)
        for u in draws
    )


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
    rho = np.outer(psi, psi.conj())
    stages = _stage_channels(config, message_index)
    r_alice = algebra.rotation(config.alice_angle)
    r_bob = algebra.rotation(config.bob_angle)

    after_1 = channels.apply_channel(stages[0], algebra.conjugate_by(r_alice, rho))
    after_2 = channels.apply_channel(stages[1], algebra.conjugate_by(r_bob, after_1))
    after_3 = channels.apply_channel(
        stages[2], algebra.conjugate_by(algebra.dagger(r_alice), after_2)
    )
    final = algebra.conjugate_by(algebra.dagger(r_bob), after_3)

    transcript = Transcript(
        stage_states=(after_1, after_2, after_3, final),
        stage_parameters=tuple(stage.parameter for stage in stages),
        bit_sent=bit,
    )
    return final, transcript


def decode_bit(rho_final: np.ndarray, xi: float) -> tuple[float, float]:
    """Outcome probabilities of the projective measurement in the encoding basis.

    Returns (p0, p1) with p_b = <state_b|rho|state_b>, each clamped to [0, 1].
    The two encoded states form an orthonormal basis, so p0 + p1 = 1 up to
    rounding. ``rho_final`` is validated here, once; the basis states are
    normalized by construction.
    """
    rho = algebra.validate_density(rho_final)
    p0, p1 = (
        min(max(float(np.real(psi.conj() @ rho @ psi)), 0.0), 1.0)
        for psi in (encode_bit(0, xi), encode_bit(1, xi))
    )
    return p0, p1


def transmit_message(
    bits, config: ProtocolConfig, seed: int
) -> tuple[list[int], float]:
    """Send a bit sequence and decode each outcome.

    Every bit is checked before any round runs. Under FIXED a round depends
    on the bit sent alone, so the message runs one round per distinct bit
    value; under RESAMPLE the stage parameters depend on the bit's index, so
    each bit runs its own round. The per-bit randomness is the measurement:
    each outcome is sampled from its (p0, p1) using a generator seeded by
    (seed, bit index), so results are independent of evaluation order and
    identical inputs reproduce identical outputs.
    Returns (decoded bits, QBER), QBER being the fraction of flipped bits.
    """
    bit_list = list(bits)
    if not bit_list:
        raise ValueError("message must contain at least one bit")
    for index, bit in enumerate(bit_list):
        if bit not in (0, 1):
            raise ValueError(f"message bits must be 0 or 1, got {bit!r} at index {index}")

    def round_p0(bit, message_index):
        final, _ = run_protocol(config, bit, message_index=message_index)
        return decode_bit(final, config.xi)[0]

    fixed = config.stage_policy is StagePolicy.FIXED
    p0_of_bit = {bit: round_p0(bit, None) for bit in dict.fromkeys(bit_list)} if fixed else {}
    decoded = []
    for index, bit in enumerate(bit_list):
        p0 = p0_of_bit[bit] if fixed else round_p0(bit, index)
        draw = float(np.random.default_rng((seed, index)).random())
        decoded.append(0 if draw < p0 else 1)
    errors = sum(1 for sent, got in zip(bit_list, decoded) if sent != got)
    return decoded, errors / len(bit_list)
