"""Resonant-pulse dynamics of Ising spin qubits.

A small numpy library for simulating quantum logic driven by single
resonant pulses on coupled spin-1/2 systems: exact rotating-frame
evolution with lab-frame phase bookkeeping, an independent lab-frame
integrator, single-pulse CN gates on pure states and room-temperature
deviation density matrices, 2pi-k pulse design against non-resonant
excitation, and a four-qubit period-finding pipeline demonstrating how
free-evolution phases make or break the final interference.
"""

from .model import (
    ConfigurationError,
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    build_rotating_hamiltonian,
    diagonal_energies,
    fidelity,
    load_spin_config,
    pulse_from_dict,
    spin_z_values,
    system_from_dict,
    total_spin_z,
    transition_frequency,
)
from .dynamics import (
    EvolutionReport,
    TwoLevelAmplitudes,
    analytic_two_level,
    apply_sequence,
    evolve_pulse,
    integrate_lab_frame,
    lab_frame_propagator,
    lab_hamiltonian,
    pulse_propagator,
    to_interaction_picture,
)
from .design import (
    LADDER_SPACING_FACTOR,
    PROTON_GYROMAGNETIC_RATIO,
    TwoPiKDesign,
    approx_rotation_angle,
    cn_gate_matrix,
    cn_pulse,
    design_2pik,
    frequency_ladder,
    gradient_estimate,
    offresonant_excitation_probability,
    rotation_angle,
)
from .ensemble import (
    BACKGROUND_DIAGONAL,
    DeviationDensityMatrix,
    deviation_metric,
    evolve_deviation,
    init_deviation,
)
from .shor import (
    EnergyTable,
    PathTerm,
    PeriodExtractionError,
    PeriodResult,
    ShorRun,
    ShorTrace,
    extract_period,
    register_index,
    register_values,
    run_shor,
    sample_x,
)
from .sweep import run_sweep

__version__ = "0.1.0"


def __getattr__(name: str):
    # the command line (argparse, csv) loads only when one of its names is used;
    # the name is then bound here, so later uses do not come back to this hook
    if name in ("run_config", "sweep_to_csv"):
        from . import cli

        value = globals()[name] = getattr(cli, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigurationError",
    "DelaySpec",
    "PulseSpec",
    "QuantumState",
    "SpinSystem",
    "build_rotating_hamiltonian",
    "diagonal_energies",
    "fidelity",
    "load_spin_config",
    "pulse_from_dict",
    "spin_z_values",
    "system_from_dict",
    "total_spin_z",
    "transition_frequency",
    "EvolutionReport",
    "TwoLevelAmplitudes",
    "analytic_two_level",
    "apply_sequence",
    "evolve_pulse",
    "integrate_lab_frame",
    "lab_frame_propagator",
    "lab_hamiltonian",
    "pulse_propagator",
    "to_interaction_picture",
    "LADDER_SPACING_FACTOR",
    "PROTON_GYROMAGNETIC_RATIO",
    "TwoPiKDesign",
    "approx_rotation_angle",
    "cn_gate_matrix",
    "cn_pulse",
    "design_2pik",
    "frequency_ladder",
    "gradient_estimate",
    "offresonant_excitation_probability",
    "rotation_angle",
    "BACKGROUND_DIAGONAL",
    "DeviationDensityMatrix",
    "deviation_metric",
    "evolve_deviation",
    "init_deviation",
    "EnergyTable",
    "PathTerm",
    "PeriodExtractionError",
    "PeriodResult",
    "ShorRun",
    "ShorTrace",
    "extract_period",
    "register_index",
    "register_values",
    "run_shor",
    "sample_x",
    "run_config",
    "run_sweep",
    "sweep_to_csv",
    "__version__",
]
