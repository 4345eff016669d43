"""Tests for spin systems, pulses, and Hamiltonian construction.

Covers type validation, the rotating-frame Hamiltonian against an
independent Kronecker-product oracle, drive-free energies, transition
frequencies, and the JSON loaders.
"""

import dataclasses
import functools
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinpulse
from spinpulse import (
    ConfigurationError,
    DelaySpec,
    DeviationDensityMatrix,
    EnergyTable,
    PulseSpec,
    QuantumState,
    SpinSystem,
    analytic_two_level,
    apply_sequence,
    approx_rotation_angle,
    build_rotating_hamiltonian,
    cn_pulse,
    design_2pik,
    deviation_metric,
    diagonal_energies,
    dynamics,
    evolve_delay,
    evolve_deviation,
    evolve_pulse,
    extract_period,
    frequency_ladder,
    gradient_estimate,
    init_deviation,
    integrate_lab_frame,
    lab_frame_propagator,
    lab_hamiltonian,
    load_spin_config,
    model,
    offresonant_excitation_probability,
    pulse_propagator,
    register_index,
    register_values,
    rotation_angle,
    run_shor,
    sample_x,
    shor,
    spin_z_values,
    to_interaction_picture,
    total_spin_z,
    transition_frequency,
)
from spinpulse.dynamics import free_evolution_phases
from spinpulse.ensemble import to_interaction_picture as density_to_interaction_picture
from spinpulse.model import _spin_flips

from conftest import (
    kron_lab_energies,
    kron_rotating_hamiltonian,
    random_system,
    warnings_are_errors,
)


class TestSpinSystem:
    def test_valid_construction(self, gate_system):
        assert gate_system.n_spins == 2
        assert gate_system.dim == 4

    def test_larmor_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="larmor"):
            SpinSystem(3, [1.0, 2.0], np.zeros((3, 3)))

    def test_nonfinite_larmor(self):
        with pytest.raises(ConfigurationError, match="finite"):
            SpinSystem(2, [np.inf, 1.0], np.zeros((2, 2)))

    def test_asymmetric_couplings(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            SpinSystem(2, [1.0, 2.0], [[0.0, 1.0], [2.0, 0.0]])

    def test_nonzero_coupling_diagonal(self):
        with pytest.raises(ConfigurationError, match="diagonal"):
            SpinSystem(2, [1.0, 2.0], [[1.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize(
        "n_spins, couplings, message",
        [
            (0, np.zeros((0, 0)), "n_spins must be a positive integer"),
            (2, np.zeros((3, 3)), r"couplings must be 2x2, got \(3, 3\)"),
        ],
    )
    def test_misshapen_system_rejected(self, n_spins, couplings, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            SpinSystem(n_spins, [1.0] * n_spins, couplings)

    def test_dimension_bound(self):
        assert (model.MAX_DIM, model.MAX_SPINS) == (16, 4)
        assert SpinSystem.uniform([1.0, 2.0, 3.0, 4.0], 0.5).energies.shape == (16,)
        with pytest.raises(ConfigurationError, match="^n_spins must be at most 4, got 5$"):
            SpinSystem.uniform([1.0] * 5, 0.5)

    def test_uniform_builder(self):
        system = SpinSystem.uniform([1.0, 2.0, 3.0], 7.0)
        assert np.all(system.couplings[~np.eye(3, dtype=bool)] == 7.0)
        assert np.all(np.diag(system.couplings) == 0.0)

    def test_frozen_with_read_only_energies(self, gate_system):
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate_system.larmor = np.array([1.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate_system.energies = np.zeros(4)
        with pytest.raises(ValueError, match="read-only"):
            gate_system.energies[0] = 0.0


@pytest.mark.parametrize(
    "build, name, value, dtype",
    [
        (lambda a: SpinSystem(2, a, [[0, 5], [5, 0]]), "larmor", [100.0, 50.0], float),
        (lambda a: SpinSystem(2, [100.0, 50.0], a), "couplings", [[0, 5], [5, 0]], float),
        (lambda a: PulseSpec(95.0, 0.0, a, 1.0), "rabi", [0.5, 0.1], float),
        (QuantumState, "amplitudes", [0.6, 0.8j], complex),
        (EnergyTable, "values", np.arange(16.0), float),
        (DeviationDensityMatrix, "entries", np.eye(16), complex),
    ],
    ids=["larmor", "couplings", "rabi", "amplitudes", "energy-table", "deviation"],
)
def test_constructors_copy_the_callers_array(build, name, value, dtype):
    caller = np.array(value, dtype=dtype)
    built = build(caller)
    kept = getattr(built, name).copy()
    assert caller.flags.writeable
    caller += 1.0
    np.testing.assert_array_equal(getattr(built, name), kept)


def test_trusted_state_takes_the_callers_array():
    # the library's own results were copied once more on the way in
    caller = np.array([0.6, 0.8j])
    state = QuantumState(caller, check=False)
    assert np.shares_memory(state.amplitudes, caller)
    assert not caller.flags.writeable


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpinSystem.uniform([1.0, 2.0], 1.0),
        lambda: PulseSpec(95.0, 0.0, [0.5, 0.1], 1.0),
        lambda: EnergyTable(np.zeros(16)),
        lambda: DeviationDensityMatrix(np.eye(16)),
        lambda: run_shor("bare-delay", (1.0, 1.0), EnergyTable(np.zeros(16))),
    ],
    ids=["system", "pulse", "energy-table", "deviation", "shor-run"],
)
def test_array_holders_compare_and_hash_by_identity(build):
    # the generated __eq__ compared array fields as a tuple and raised
    a, b = build(), build()
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)


@pytest.mark.parametrize(
    "build, name, value",
    [
        (lambda: PulseSpec(95.0, 0.0, [0.5, 0.1], 1.0), "duration", -3.0),
        (lambda: PulseSpec(95.0, 0.0, [0.5, 0.1], 1.0), "phase", 100.0),
        (lambda: DeviationDensityMatrix(np.eye(16)), "entries", np.ones((3, 3))),
    ],
    ids=["pulse-duration", "pulse-phase", "deviation-entries"],
)
def test_checked_holders_are_frozen(build, name, value):
    # an assignment after construction skipped the checks: a negative-length
    # pulse ran, a phase stayed unwrapped, a 3x3 deviation matrix was kept
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(build(), name, value)


def _module_arrays(value):
    """The ndarrays a module global holds, directly, in a tuple or list, or as a state."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _module_arrays(item)
    elif isinstance(value, QuantumState):
        yield value.amplitudes


@pytest.mark.parametrize(
    "module",
    [spinpulse]
    + [
        importlib.import_module(f"spinpulse.{m.name}")
        for m in pkgutil.iter_modules(spinpulse.__path__)
        if m.name != "__main__"  # importing it runs the command line
    ],
    ids=lambda module: module.__name__,
)
def test_module_arrays_are_read_only(module):
    # one write to a shared table changed every later run:
    # BACKGROUND_DIAGONAL[0] = 7.0 gave init_deviation a trace of 7.5
    for name, value in vars(module).items():
        for array in _module_arrays(value):
            assert not array.flags.writeable, f"{module.__name__}.{name}"


@pytest.mark.parametrize("n_spins", [1, 2, 4])
def test_cached_index_arrays_are_read_only(n_spins):
    for array in (*_spin_flips(n_spins), spin_z_values(n_spins), total_spin_z(n_spins)):
        assert not array.flags.writeable


@pytest.mark.parametrize(
    "call",
    [
        lambda: QuantumState([np.nan, 0.0]),
        lambda: dynamics._require_normalized(QuantumState([np.nan, 0.0], check=False)),
        lambda: DeviationDensityMatrix(np.full((16, 16), np.nan)),
        lambda: init_deviation([np.nan, 0.0, 0.0, 0.0]),
        lambda: extract_period([np.nan, 0.5, 0.5, 0.0]),
    ],
    ids=["state", "require-normalized", "deviation", "init-deviation", "extract-period"],
)
def test_nan_fails_the_tolerance_checks(call):
    # a check written as `error > tol` lets NaN through
    with pytest.raises(ValueError):
        call()


#: a system and a pulse for the entries that take them
_GATE = SpinSystem(2, [100.0, 50.0], [[0.0, 5.0], [5.0, 0.0]])
_PULSE = PulseSpec(95.0, 0.0, [0.5, 0.1], 1.0)
_FOUR = SpinSystem.uniform([100.0, 200.0, 300.0, 400.0], 5.0)
#: what the JSON reader refuses where reals belong, as arrays and as scalars;
#: where complex numbers belong (amplitudes, density matrices) all but a complex entry
_NOT_REALS = {"strings": ["1", "0"], "bools": [True, False], "complex": [1.0, 1j],
              "huge-int": [1.0, 10**400]}
_NOT_REAL = {"string": "1", "bool": True, "complex": 1j, "huge-int": 10**400}
_NOT_NUMBERS = {kind: v for kind, v in _NOT_REALS.items() if kind != "complex"}
#: what the converter of a scalar argument refuses besides: no infinity or NaN, and
#: no sequence where one number belongs
_NOT_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
_REAL = {**_NOT_REAL, **_NOT_FINITE, "sequence": [1.0, 2.0]}
_NON_NEGATIVE = {**_REAL, "negative": -1.0}
_POSITIVE = {**_REAL, "zero": 0.0}
_NOT_FINITE_BLOCKS = {kind: np.full((2, 2), v) for kind, v in
                      {**_NOT_FINITE, "complex-inf": complex(0.0, np.inf)}.items()}


def _integers(low: int, high: int | None = None) -> dict:
    """What the converter of an integer argument from low (to high) refuses."""
    above = {} if high is None else {"above": high + 1}
    return {**_REAL, "fraction": 1.5, "below": low - 1, **above}


_FOUR_PULSE = PulseSpec(95.0, 0.0, [0.1] * 4, 1.0)
_TABLE = EnergyTable(np.zeros(16))
_TWO_BITS = functools.partial(model.integer, high=3)
#: (id, entry, field, converter, refused values) of every entry that takes an
#: outside array or number into library state
_NON_NUMBER_SITES = [
    ("larmor", lambda v: SpinSystem(2, v, [[0.0, 5.0], [5.0, 0.0]]), "larmor",
     model.finite_reals, _NOT_REALS),
    ("couplings", lambda v: SpinSystem(2, [100.0, 50.0], v), "couplings",
     model.finite_reals, _NOT_REALS),
    ("n-spins", lambda v: SpinSystem(v, [100.0, 50.0], [[0.0, 5.0], [5.0, 0.0]]), "n_spins",
     model.integer, {"bool": True, "fraction": 2.5, "string": "2"}),
    ("uniform-coupling", lambda v: SpinSystem.uniform([100.0, 50.0], v), "coupling",
     model.finite_real, _NOT_REAL),
    ("rabi", lambda v: PulseSpec(95.0, 0.0, v, 1.0), "rabi", model.finite_reals, _NOT_REALS),
    ("state", QuantumState, "amplitudes", model.finite_reals, _NOT_NUMBERS),
    ("deviation", DeviationDensityMatrix, "entries", model.finite_reals, _NOT_NUMBERS),
    ("init-deviation", init_deviation, "active_amplitudes", model.finite_reals, _NOT_NUMBERS),
    ("cn-pulse-rabi", lambda v: cn_pulse(_GATE, 0, 1, rabi=v), "rabi",
     model.finite_reals, _NOT_REALS),
    ("metric-obtained", lambda v: deviation_metric(v, np.eye(2)), "r_obtained",
     model.finite_reals, _NOT_NUMBERS),
    ("metric-reference", lambda v: deviation_metric(np.eye(2), v), "r_reference",
     model.finite_reals, _NOT_NUMBERS),
    ("extract-period", extract_period, "distribution", model.finite_reals, _NOT_REALS),
    ("sample-x", lambda v: sample_x(v, 10, seed=1), "distribution",
     model.finite_reals, _NOT_REALS),
    # a start time; a string raised a bare TypeError
    ("propagator-start", lambda v: pulse_propagator(_GATE, _PULSE, v), "t_start",
     model.finite_real, _REAL),
    ("evolve-start", lambda v: evolve_pulse(QuantumState.basis(2, 0), _GATE, _PULSE, v),
     "t_start", model.finite_real, _REAL),
    ("lab-start", lambda v: lab_frame_propagator(_GATE, _PULSE, t_start=v), "t_start",
     model.finite_real, _REAL),
    ("integrate-start",
     lambda v: integrate_lab_frame(QuantumState.basis(2, 0), _GATE, _PULSE, t_start=v),
     "t_start", model.finite_real, _REAL),
    ("sequence-start", lambda v: apply_sequence(QuantumState.basis(2, 0), _GATE, [], v),
     "t_start", model.finite_real, _REAL),
    ("deviation-start",
     lambda v: evolve_deviation(init_deviation([1, 0, 0, 0]), _FOUR, _FOUR_PULSE, v),
     "t_start", model.finite_real, _REAL),
    # the pulse and delay scalars; a NaN or infinite one had its own text
    ("pulse-spec-carrier", lambda v: PulseSpec(v, 0.0, [0.5], 1.0), "carrier",
     model.finite_real, _REAL),
    ("pulse-spec-phase", lambda v: PulseSpec(1.0, v, [0.5], 1.0), "phase",
     model.finite_real, _REAL),
    ("pulse-spec-duration", lambda v: PulseSpec(1.0, 0.0, [0.5], v), "duration",
     model._positive_real, _POSITIVE),
    ("delay-spec-duration", DelaySpec, "duration", model._non_negative_real, _NON_NEGATIVE),
    # a step of '1' raised a bare TypeError
    ("lab-step", lambda v: lab_frame_propagator(_GATE, _PULSE, step=v), "step",
     model._positive_real, _POSITIVE),
    # the closed forms' arguments; a string raised numpy's bare TypeError, and a
    # NaN or infinite one a plain ValueError
    ("rotation-angle", lambda v: rotation_angle(v, 1.0, 1.0), "omega_rabi",
     model.finite_real, _REAL),
    ("rotation-angle-detuning", lambda v: rotation_angle(1.0, v, 1.0), "delta_omega",
     model.finite_real, _REAL),
    ("rotation-angle-tau", lambda v: rotation_angle(1.0, 1.0, v), "tau",
     model._non_negative_real, _NON_NEGATIVE),
    ("approx-rotation-angle", lambda v: approx_rotation_angle(1.0, v), "delta_omega",
     model.finite_real, _REAL),
    ("approx-rotation-angle-rabi", lambda v: approx_rotation_angle(v, 1.0), "omega_rabi",
     model._positive_real, _POSITIVE),
    ("excitation-probability", lambda v: offresonant_excitation_probability(1.0, 1.0, v),
     "tau", model.finite_real, _REAL),
    ("excitation-probability-rabi", lambda v: offresonant_excitation_probability(v, 1.0, 1.0),
     "omega_rabi", model.finite_real, _REAL),
    ("excitation-probability-detuning",
     lambda v: offresonant_excitation_probability(1.0, v, 1.0), "delta_omega",
     model.finite_real, _REAL),
    ("frequency-ladder", lambda v: frequency_ladder(v, 1.0, 2), "omega0",
     model.finite_real, _REAL),
    ("frequency-ladder-rabi", lambda v: frequency_ladder(1.0, v, 2), "omega_rabi",
     model.finite_real, _REAL),
    # 2.5 raised a bare TypeError
    ("frequency-ladder-count", lambda v: frequency_ladder(1.0, 0.1, v), "count",
     functools.partial(model.integer, low=1, high=model.MAX_DIM), _integers(1, 16)),
    ("gradient-estimate", lambda v: gradient_estimate(1.0, v), "spacing",
     model._positive_real, _POSITIVE),
    ("gradient-estimate-rabi", lambda v: gradient_estimate(v, 1.0), "omega_rabi",
     model._positive_real, _POSITIVE),
    # '5' and True gave a design; the rest raised a bare TypeError or OverflowError
    ("design-2pik", design_2pik, "delta_omega", model.finite_real, _REAL),
    # k='1' raised a bare TypeError, k=1.5 failed as "design violates omega_e * tau =
    # 2 pi k", and k=True gave a design
    ("design-2pik-k", lambda v: design_2pik(5.0, k=v), "k", model._positive_int, _integers(1)),
    ("design-2pik-n", lambda v: design_2pik(5.0, n=v), "n", model._positive_int, _integers(1)),
    ("cn-pulse-exact-2pik", lambda v: cn_pulse(_GATE, 0, 1, exact_2pik=v), "exact_2pik",
     model._positive_int, _integers(1)),
    ("shor-delays", lambda v: run_shor("bare-delay", (v, 1.0), _TABLE), "delays",
     model._non_negative_real, _NON_NEGATIVE),
    ("shor-delays-second", lambda v: run_shor("natural-phase", (1.0, v), _TABLE), "delays",
     model._non_negative_real, _NON_NEGATIVE),
    # (1.0,) raised "not enough values to unpack"
    ("shor-delay-pair", lambda v: run_shor("bare-delay", v, _TABLE), "delays",
     shor._delay_pair, {"one": (1.0,), "three": (1.0, 1.0, 1.0), "scalar": 1.0}),
    # 2.5 drew 2 shots, and -1 raised numpy's "n < 0"
    ("sample-x-shots", lambda v: sample_x([0.5, 0.0, 0.5, 0.0], v, seed=1), "shots",
     model.integer, _integers(0)),
    # -1 returned |11>
    ("basis-index", lambda v: QuantumState.basis(2, v), "index", _TWO_BITS, _integers(0, 3)),
    # 10**400 computed 2**(10**400) first
    ("basis-n-spins", lambda v: QuantumState.basis(v, 0), "n_spins",
     functools.partial(model.integer, high=model.MAX_SPINS), _integers(0, 4)),
    # 1.5 gave 6.0
    ("register-x", lambda v: register_index(v, 0), "x", _TWO_BITS, _integers(0, 3)),
    ("register-y", lambda v: register_index(0, v), "y", _TWO_BITS, _integers(0, 3)),
    ("register-values", register_values, "index", functools.partial(model.integer, high=15),
     _integers(0, 15)),
    ("free-evolution", lambda v: free_evolution_phases(_GATE, v), "t", model.finite_real, _REAL),
    ("interaction-picture", lambda v: to_interaction_picture(QuantumState.basis(2, 0), _GATE, v),
     "t", model.finite_real, _REAL),
    ("density-interaction-picture",
     lambda v: density_to_interaction_picture(init_deviation([1, 0, 0, 0]), _FOUR, v),
     "t", model.finite_real, _REAL),
    # a time may be an array of times, so a sequence is no error
    ("lab-hamiltonian", lambda v: lab_hamiltonian(_GATE, _PULSE, v), "t",
     model.finite_reals, {**_NOT_REAL, **_NOT_FINITE}),
    ("metric-obtained-block", lambda v: deviation_metric(v, np.eye(2)), "r_obtained",
     model._finite_complexes, _NOT_FINITE_BLOCKS),
    ("metric-reference-block", lambda v: deviation_metric(np.eye(2), v), "r_reference",
     model._finite_complexes, _NOT_FINITE_BLOCKS),
    ("two-level-rabi", lambda v: analytic_two_level(1.0, 0.0, 1.0, v, 0.0, 0.0, 1.0), "rabi",
     model.finite_real, _REAL),
    ("two-level-e-k", lambda v: analytic_two_level(1.0, v, 1.0, 1.0, 0.0, 0.0, 1.0), "e_k",
     model.finite_real, _REAL),
    ("two-level-e-n", lambda v: analytic_two_level(1.0, 0.0, v, 1.0, 0.0, 0.0, 1.0), "e_n",
     model.finite_real, _REAL),
    ("two-level-phase", lambda v: analytic_two_level(1.0, 0.0, 1.0, 1.0, v, 0.0, 1.0), "phase",
     model.finite_real, _REAL),
    ("two-level-start", lambda v: analytic_two_level(1.0, 0.0, 1.0, 1.0, 0.0, v, 1.0),
     "t_start", model.finite_real, _REAL),
    ("two-level-duration", lambda v: analytic_two_level(1.0, 0.0, 1.0, 1.0, 0.0, 0.0, v),
     "duration", model._non_negative_real, _NON_NEGATIVE),
    ("two-level-carrier",
     lambda v: analytic_two_level(1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, carrier=v), "carrier",
     model.finite_real, _REAL),
    # [1.0, 2.0] raised numpy's "inhomogeneous shape" error
    ("two-level-amplitude", lambda v: analytic_two_level(v, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0),
     "c_k_initial", model._finite_complex,
     {**{k: v for k, v in _REAL.items() if k != "complex"}, "complex-inf": complex(0, np.inf)}),
]
_NON_NUMBER_CASES = [
    (make, field, convert, value)
    for _, make, field, convert, values in _NON_NUMBER_SITES
    for value in values.values()
]
_NON_NUMBER_IDS = [
    f"{site}-{kind}" for site, *_, values in _NON_NUMBER_SITES for kind in values
]


#: each count that sizes an allocation, far past the bound, and the name its refusal gives
_OVERSIZED_COUNTS = {
    "frequency-ladder-count": ("spinpulse.frequency_ladder(1.0, 0.1, 10**9)", "count: "),
    "basis-n-spins": ("spinpulse.QuantumState.basis(40, 0)", "n_spins: "),
    "system-n-spins": (
        "spinpulse.SpinSystem(40, numpy.zeros(40), numpy.zeros((40, 40))).energies",
        "n_spins must be at most 4",
    ),
}


@pytest.mark.parametrize("call, name", _OVERSIZED_COUNTS.values(), ids=_OVERSIZED_COUNTS)
def test_oversized_count_refused_before_allocating(call, name):
    # in a fresh interpreter whose address space is capped at 1.5 GiB, so that
    # an allocation sized by the count raises MemoryError there instead of
    # filling the host's memory
    script = (
        "import resource, numpy, spinpulse\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))\n"
        "try:\n"
        f"    {call}\n"
        "except spinpulse.ConfigurationError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(name)


class TestPulseSpec:
    def test_negative_rabi_rejected(self):
        with pytest.raises(ConfigurationError):
            PulseSpec(1.0, 0.0, [-0.1], 1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            PulseSpec(1.0, 0.0, [0.1], 0.0)

    def test_rabi_length_checked_against_system(self, gate_system):
        pulse = PulseSpec(95.0, 0.0, [0.1], 1.0)
        with pytest.raises(ConfigurationError, match="Rabi"):
            pulse.check_against(gate_system)

    @pytest.mark.parametrize("carrier, phase", [(np.inf, 0.0), (95.0, np.inf), (np.nan, 0.0)])
    def test_non_finite_carrier_or_phase_rejected(self, carrier, phase):
        name = "phase" if np.isfinite(carrier) else "carrier"
        with pytest.raises(ConfigurationError, match=f"^{name}: must be finite$"):
            PulseSpec(carrier, phase, [0.1, 0.1], 1.0)

    def test_two_dimensional_rabi_rejected(self):
        with pytest.raises(ConfigurationError, match="^rabi must be a 1-d sequence$"):
            PulseSpec(1.0, 0.0, [[0.1, 0.1]], 1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            DelaySpec(-1.0)

    @pytest.mark.parametrize(
        "make, field, convert, value",
        [
            (lambda v: PulseSpec(1.0, 0.0, [0.5], v), "duration", model.finite_real, 10**400),
            (lambda v: PulseSpec(v, 0.0, [0.5], 1.0), "carrier", model.finite_real, 10**400),
            (lambda v: PulseSpec(1.0, v, [0.5], 1.0), "phase", model.finite_real, 10**400),
            (lambda v: PulseSpec(v, 0.0, [0.5], 1.0), "carrier", model.finite_real, 1 + 0j),
            (lambda v: PulseSpec(1.0, 0.0, [0.5], v), "duration", model.finite_real, True),
            (lambda v: PulseSpec(1.0, v, [0.5], 1.0), "phase", model.finite_real, "0"),
            (DelaySpec, "duration", model.finite_real, 10**400),
            (DelaySpec, "duration", model.finite_real, "1"),
            (DelaySpec, "duration", model.finite_real, False),
        ]
        + _NON_NUMBER_CASES,
        ids=["pulse-duration-huge-int", "carrier-huge-int", "phase-huge-int", "carrier-complex",
             "duration-bool", "phase-string", "delay-huge-int", "delay-string", "delay-bool"]
        + _NON_NUMBER_IDS,
    )
    def test_non_number_scalars_rejected_by_name(self, make, field, convert, value):
        # the JSON reader's rule and text for the field's converter, with the
        # field's name; arrays and counts that broke it were coerced by numpy
        # (['1', '2'] read as [1.0, 2.0]) or raised a bare TypeError or OverflowError
        with pytest.raises(ConfigurationError) as read:
            model.read_fields({field: value}, {field: (convert, model.REQUIRED)})
        with pytest.raises(ConfigurationError) as refused:
            make(value)
        assert str(refused.value) == str(read.value)
        assert str(refused.value).startswith(f"{field}: ")


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            QuantumState([1.0, 1.0])

    def test_basis_state(self):
        state = QuantumState.basis(2, 3)
        assert state.probabilities[3] == 1.0
        assert abs(state.norm - 1.0) < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            QuantumState([1.0, 0.0, 0.0])


class TestBasisConventions:
    def test_leftmost_spin_is_most_significant(self):
        # index 2 = |10>: spin 0 excited, spin 1 ground
        s = spin_z_values(2)
        assert s[2, 0] == -0.5
        assert s[2, 1] == +0.5

    def test_total_spin_z(self):
        z = total_spin_z(2)
        np.testing.assert_allclose(z, [1.0, 0.0, 0.0, -1.0])


class TestRotatingHamiltonian:
    def test_single_spin_on_resonance(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        pulse = PulseSpec(carrier=100.0, phase=0.0, rabi=[0.1], duration=1.0)
        h = build_rotating_hamiltonian(system, pulse)
        np.testing.assert_allclose(h, [[0.0, -0.05], [-0.05, 0.0]], atol=1e-15)

    def test_two_spin_diagonal_entry(self, gate_system, gate_pulse):
        h = build_rotating_hamiltonian(gate_system, gate_pulse)
        assert np.real(h[3, 3]) == pytest.approx(202.5, abs=1e-12)

    def test_matches_kron_oracle(self, rng):
        for n_spins in (1, 2, 3):
            for _ in range(5):
                system = random_system(rng, n_spins)
                pulse = PulseSpec(
                    carrier=rng.uniform(0, 150),
                    phase=rng.uniform(0, 2 * np.pi),
                    rabi=rng.uniform(0, 1, size=n_spins),
                    duration=1.0,
                )
                h = build_rotating_hamiltonian(system, pulse)
                np.testing.assert_allclose(
                    h, kron_rotating_hamiltonian(system, pulse), atol=1e-12
                )

    def test_hermitian_for_random_inputs(self, rng):
        for _ in range(20):
            system = random_system(rng, 3)
            pulse = PulseSpec(
                carrier=rng.uniform(0, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0, 1, size=3),
                duration=1.0,
            )
            h = build_rotating_hamiltonian(system, pulse)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_zero_drive_gives_shifted_diagonal(self, rng):
        system = random_system(rng, 3)
        carrier = 42.0
        pulse = PulseSpec(carrier=carrier, phase=0.0, rabi=np.zeros(3), duration=1.0)
        h = build_rotating_hamiltonian(system, pulse)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        expected = diagonal_energies(system) + carrier * total_spin_z(3)
        np.testing.assert_allclose(np.real(np.diag(h)), expected, atol=1e-12)

    def test_offdiagonal_only_single_spin_flips(self, gate_system, gate_pulse):
        h = build_rotating_hamiltonian(gate_system, gate_pulse)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                flips = bin(i ^ j).count("1")
                if flips != 1:
                    assert h[i, j] == 0.0
                else:
                    expected = -0.5 * gate_pulse.rabi[0 if (i ^ j) == 2 else 1]
                    assert h[i, j] == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self, gate_system):
        pulse = PulseSpec(95.0, 0.0, [0.1, 0.1, 0.1], 1.0)
        with pytest.raises(ConfigurationError):
            build_rotating_hamiltonian(gate_system, pulse)


class TestDiagonalEnergies:
    def test_single_spin(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        np.testing.assert_allclose(diagonal_energies(system), [-50.0, 50.0])

    def test_two_spin_ground_energy(self, gate_system):
        energies = diagonal_energies(gate_system)
        assert energies[0] == pytest.approx(-302.5, abs=1e-12)

    def test_matches_kron_oracle(self, rng):
        for _ in range(10):
            system = random_system(rng, 3)
            np.testing.assert_allclose(
                diagonal_energies(system), kron_lab_energies(system), atol=1e-12
            )

    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_overflow_is_a_configuration_error(self, error_state):
        # four Larmor terms of 1e308 sum past the double-precision limit; a
        # matmul overflow warning came before the error
        system = SpinSystem(4, [1e308] * 4, np.zeros((4, 4)))
        with warnings_are_errors(error_state):
            with pytest.raises(ConfigurationError, match="double precision"):
                diagonal_energies(system)
            with pytest.raises(ConfigurationError, match="double precision"):
                cn_pulse(system, 0, 1)

    def test_computed_once_per_system(self, monkeypatch, ensemble_system):
        calls = []
        ising_diagonal = model.ising_diagonal
        monkeypatch.setattr(
            model, "ising_diagonal", lambda *args: calls.append(args) or ising_diagonal(*args)
        )
        system = ensemble_system
        pulse = cn_pulse(system, 0, 1, rabi=[0.1] * 4)
        state = evolve_pulse(QuantumState.basis(4, 0), system, pulse)
        evolve_delay(state, system, 1.0)
        to_interaction_picture(state, system, 1.0)
        density_to_interaction_picture(init_deviation([1.0, 0, 0, 0]), system, 1.0)
        lab_frame_propagator(system, PulseSpec(pulse.carrier, 0.0, pulse.rabi, 0.05))
        EnergyTable.from_spin_system(system)
        assert len(calls) == 1

    def test_differences_reproduce_transition_frequencies(self, rng):
        system = random_system(rng, 3)
        energies = diagonal_energies(system)
        for target in range(3):
            for assignment in range(4):
                spectators = {}
                others = [s for s in range(3) if s != target]
                for pos, spin in enumerate(others):
                    spectators[spin] = (assignment >> pos) & 1
                ground = sum(
                    bit << (2 - spin) for spin, bit in spectators.items()
                )
                excited = ground | (1 << (2 - target))
                expected = energies[excited] - energies[ground]
                assert transition_frequency(system, target, spectators) == expected


class TestTransitionFrequency:
    def test_control_excited(self, gate_system):
        assert transition_frequency(gate_system, 1, {0: 1}) == pytest.approx(95.0)

    def test_control_ground(self, gate_system):
        assert transition_frequency(gate_system, 1, {0: 0}) == pytest.approx(105.0)

    def test_four_spin_all_ground(self, ensemble_system):
        # three ground spectator bonds shift the rightmost spin by +3J
        value = transition_frequency(ensemble_system, 3, {0: 0, 1: 0, 2: 0})
        assert value == pytest.approx(400.0 + 3 * 10.0)

    def test_invalid_target(self, gate_system):
        with pytest.raises(ConfigurationError):
            transition_frequency(gate_system, 2, {0: 0})

    def test_incomplete_spectators(self, ensemble_system):
        with pytest.raises(ConfigurationError, match="missing"):
            transition_frequency(ensemble_system, 3, {0: 0, 1: 0})

    def test_spectator_value_not_a_bit_rejected(self, gate_system):
        with pytest.raises(ConfigurationError, match="^spectator value for spin 0 must be 0 or 1$"):
            transition_frequency(gate_system, 1, {0: 2})

    @pytest.mark.parametrize(
        "target, spectators, message",
        [
            (0.0, {1: 0, 2: 1}, "spin index 0.0 is not an integer"),
            ("0", {1: 0, 2: 1}, "spin index '0' is not an integer"),
            (0, {1.0: 0, 2: 1}, "spin index 1.0 is not an integer"),
            (0, {1: 0, 2: 1.0}, "spectator value for spin 2 must be 0 or 1"),
            (0, {1: True, 2: 1}, "spectator value for spin 1 must be 0 or 1"),
        ],
    )
    def test_index_or_value_not_an_integer_rejected(self, target, spectators, message):
        # cn_pulse's spin rule; each raised a bare TypeError, a bool value was a bit
        system = SpinSystem.uniform([100.0, 200.0, 300.0], 5.0)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            transition_frequency(system, target, spectators)


class TestConfigurationError:
    def test_problems_joined_into_the_message(self):
        exc = ConfigurationError("a", "b")
        assert exc.problems == ["a", "b"] and str(exc) == "a; b"

    def test_one_text_is_one_problem(self):
        exc = ConfigurationError("couplings must be symmetric")
        assert exc.problems == [str(exc)] == ["couplings must be symmetric"]


class TestJsonLoading:
    def test_roundtrip(self, tmp_path):
        doc = {
            "n_spins": 2,
            "larmor": [500.0, 100.0],
            "couplings": [[0.0, 5.0], [5.0, 0.0]],
            "pulses": [
                {"carrier": 95.0, "phase": 0.0, "rabi": [0.5, 0.1], "duration": 31.4}
            ],
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        system, pulses = load_spin_config(path)
        assert system.n_spins == 2
        assert len(pulses) == 1
        assert pulses[0].carrier == 95.0

    def test_missing_field_named(self):
        with pytest.raises(ConfigurationError, match="couplings"):
            load_spin_config({"n_spins": 2, "larmor": [1.0, 2.0]})

    @pytest.mark.parametrize("n_spins", [0, 5, 30, 2.5, True, "2", None, [2]])
    def test_n_spins_outside_1_to_4_rejected(self, n_spins):
        # a 30-spin document must not reach the (2^30, 30) basis table
        doc = {"n_spins": n_spins, "larmor": [1.0, 2.0], "couplings": [[0.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(ConfigurationError, match="n_spins"):
            load_spin_config(doc)

    def test_integral_float_n_spins_accepted(self):
        doc = {"n_spins": 2.0, "larmor": [1.0, 2.0], "couplings": [[0.0, 1.0], [1.0, 0.0]]}
        assert load_spin_config(doc)[0].n_spins == 2
        # as the reader does, the constructor stores an int: the dimension was the float 4.0
        system = SpinSystem(**doc)
        assert type(system.n_spins) is int and type(system.dim) is int

    @pytest.mark.parametrize(
        "system_fields, pulse_fields, field",
        [
            ({"larmor": ["1.5"]}, {}, "larmor"),
            ({"larmor": [True]}, {}, "larmor"),
            ({"couplings": [[0.0, "5"], [5.0, 0.0]]}, {}, "couplings"),
            ({"couplings": [[False, 5.0], [5.0, 0.0]]}, {}, "couplings"),
            ({}, {"carrier": "95"}, "carrier"),
            ({}, {"phase": True}, "phase"),
            ({}, {"duration": "3"}, "duration"),
            ({}, {"rabi": [0.5, "0.1"]}, "rabi"),
            ({}, {"rabi": [0.5, True]}, "rabi"),
        ],
    )
    def test_strings_and_bools_rejected(self, system_fields, pulse_fields, field):
        pulse = {"carrier": 95.0, "phase": 0.0, "rabi": [0.5, 0.1], "duration": 3.0}
        doc = {
            "n_spins": 2,
            "larmor": [500.0, 100.0],
            "couplings": [[0.0, 5.0], [5.0, 0.0]],
            "pulses": [{**pulse, **pulse_fields}],
            **system_fields,
        }
        with pytest.raises(ConfigurationError, match=f"^{field}: expected"):
            load_spin_config(doc)

    def test_integer_too_large_for_a_float_rejected(self):
        doc = {
            "n_spins": 1,
            "larmor": [1.0],
            "couplings": [[0.0]],
            "pulses": [{"carrier": 10**400, "rabi": [0.1], "duration": 1.0}],
        }
        with pytest.raises(ConfigurationError, match="^carrier: int too large"):
            load_spin_config(doc)

    def test_pulse_missing_field_named(self):
        doc = {
            "n_spins": 1,
            "larmor": [1.0],
            "couplings": [[0.0]],
            "pulses": [{"carrier": 1.0, "duration": 1.0}],
        }
        with pytest.raises(ConfigurationError, match="rabi"):
            load_spin_config(doc)

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"pulsess": []}, "^pulsess: unknown field$"),
            ({"pulses": [{"carrier": 1.0, "phaze": 1.5, "rabi": [0.1], "duration": 1.0}]},
             "^phaze: unknown field$"),
            ({"pulses": {"carrier": 1.0}}, "^pulses: expected a list"),
            ({"pulses": [[1.0]]}, "^expected a JSON object, got list$"),
        ],
    )
    def test_unknown_or_misshapen_field_rejected(self, fields, problem):
        # a misspelt phase used to build the pulse with phase 0, and a
        # misspelt pulse list gave no pulses
        doc = {"n_spins": 1, "larmor": [1.0], "couplings": [[0.0]], **fields}
        with pytest.raises(ConfigurationError, match=problem):
            load_spin_config(doc)

    def test_null_field_takes_its_default(self):
        doc = {"n_spins": 1, "larmor": [1.0], "couplings": [[0.0]], "pulses": None}
        assert load_spin_config(doc)[1] == []
        doc["pulses"] = [{"carrier": 1.0, "phase": None, "rabi": [0.1], "duration": 1.0}]
        assert load_spin_config(doc)[1][0].phase == 0.0

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100000 + b"]" * 100000, b'{"n_spins": "\xd0\x00"}', b'{"n_spins": 1,'],
        ids=["too-deep", "not-utf8", "not-json"],
    )
    def test_unreadable_file_is_a_configuration_error(self, tmp_path, content):
        path = tmp_path / "system.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match="system.json: "):
            load_spin_config(path)
        with open(path, encoding="utf-8") as fh, pytest.raises(ConfigurationError):
            load_spin_config(fh)
