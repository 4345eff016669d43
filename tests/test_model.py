"""Tests for spin systems, pulses, and Hamiltonian construction.

Covers type validation, the rotating-frame Hamiltonian against an
independent Kronecker-product oracle, drive-free energies, transition
frequencies, and the JSON loaders.
"""

import dataclasses
import json

import numpy as np
import pytest

from spinpulse import (
    ConfigurationError,
    DelaySpec,
    DeviationDensityMatrix,
    EnergyTable,
    PulseSpec,
    QuantumState,
    SpinSystem,
    build_rotating_hamiltonian,
    cn_pulse,
    diagonal_energies,
    dynamics,
    evolve_delay,
    evolve_pulse,
    extract_period,
    init_deviation,
    lab_frame_propagator,
    load_spin_config,
    model,
    run_shor,
    spin_z_values,
    to_interaction_picture,
    total_spin_z,
    transition_frequency,
)
from spinpulse.ensemble import to_interaction_picture as density_to_interaction_picture

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
        with pytest.raises(ConfigurationError, match="carrier and phase must be finite"):
            PulseSpec(carrier, phase, [0.1, 0.1], 1.0)

    def test_two_dimensional_rabi_rejected(self):
        with pytest.raises(ConfigurationError, match="^rabi must be a 1-d sequence$"):
            PulseSpec(1.0, 0.0, [[0.1, 0.1]], 1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            DelaySpec(-1.0)


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
