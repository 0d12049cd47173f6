"""Three-stage single-qubit secure-communication protocol under Markovian noise.

A qubit travels Alice -> Bob -> Alice -> Bob while the parties apply and
remove commuting secret rotations; each crossing is subjected to a
configurable noise channel. The package provides the exact density-matrix
simulation of one round, the four standard noise models as Kraus maps,
closed-form fidelity laws together with an independent numeric oracle, and a
sweep/verification harness with CSV/JSON export and a CLI.
"""

from .algebra import (
    commutator,
    conjugate_by,
    dagger,
    density_from_pure,
    fidelity as state_fidelity,
    phase_gate,
    rotation,
    validate_density,
    validate_state,
)
from .channels import (
    ChannelError,
    NoiseKind,
    QuantumChannel,
    amplitude_damping,
    apply_channel,
    collective_dephasing,
    collective_rotation,
    completeness_defect,
    from_kind,
    identity_channel,
    phase_damping,
)
from .fidelity import (
    FidelityReport,
    QuadratureSpec,
    RotationAveragedOracle,
    channel_commutator,
    closed_form_average_fidelity,
    closed_form_fidelity,
    numeric_fidelity,
    rotation_averaged_fidelity,
    state_averaged_fidelity,
)
from .harness import (
    ResultRow,
    RunManifest,
    SweepMode,
    SweepSpec,
    SweepTable,
    export,
    load_rows,
    sweep,
    verify_formulas,
)
from ._version import __version__
from .protocol import (
    ProtocolConfig,
    StagePolicy,
    Transcript,
    decode_bit,
    encode_bit,
    run_protocol,
    transmit_message,
)

__all__ = [
    "ChannelError",
    "FidelityReport",
    "NoiseKind",
    "ProtocolConfig",
    "QuadratureSpec",
    "QuantumChannel",
    "ResultRow",
    "RotationAveragedOracle",
    "RunManifest",
    "StagePolicy",
    "SweepMode",
    "SweepSpec",
    "SweepTable",
    "Transcript",
    "amplitude_damping",
    "apply_channel",
    "channel_commutator",
    "closed_form_average_fidelity",
    "closed_form_fidelity",
    "collective_dephasing",
    "collective_rotation",
    "commutator",
    "completeness_defect",
    "conjugate_by",
    "dagger",
    "decode_bit",
    "density_from_pure",
    "encode_bit",
    "export",
    "from_kind",
    "identity_channel",
    "load_rows",
    "numeric_fidelity",
    "phase_damping",
    "phase_gate",
    "rotation",
    "rotation_averaged_fidelity",
    "run_protocol",
    "state_averaged_fidelity",
    "state_fidelity",
    "sweep",
    "transmit_message",
    "validate_density",
    "validate_state",
    "verify_formulas",
]
