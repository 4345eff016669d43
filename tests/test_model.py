"""Tests for spin systems, pulses, and Hamiltonian construction.

Covers type validation, the rotating-frame Hamiltonian against an
independent Kronecker-product oracle, drive-free energies, transition
frequencies, and the JSON loaders.
"""

import json

import numpy as np
import pytest

from spinpulse import (
    ConfigurationError,
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    build_rotating_hamiltonian,
    diagonal_energies,
    load_spin_config,
    spin_z_values,
    total_spin_z,
    transition_frequency,
)

from conftest import kron_lab_energies, kron_rotating_hamiltonian, random_system


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

    def test_uniform_builder(self):
        system = SpinSystem.uniform([1.0, 2.0, 3.0], 7.0)
        assert np.all(system.couplings[~np.eye(3, dtype=bool)] == 7.0)
        assert np.all(np.diag(system.couplings) == 0.0)


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

    def test_pulse_missing_field_named(self):
        doc = {
            "n_spins": 1,
            "larmor": [1.0],
            "couplings": [[0.0]],
            "pulses": [{"carrier": 1.0, "duration": 1.0}],
        }
        with pytest.raises(ConfigurationError, match="rabi"):
            load_spin_config(doc)
