"""Tests for pulse synthesis: 2pi-k designs, rotation angles, frequency
ladders, CN pulse construction, and the field-gradient estimate.

Design identities are checked both algebraically and dynamically: a designed
pulse must return a detuned spin to its initial state when actually evolved.
"""

import re

import numpy as np
import pytest

from spinpulse import (
    ConfigurationError,
    PulseSpec,
    QuantumState,
    SpinSystem,
    TwoPiKDesign,
    cn_gate_matrix,
    cn_pulse,
    design_2pik,
    approx_rotation_angle,
    evolve_pulse,
    fidelity,
    frequency_ladder,
    gradient_estimate,
    offresonant_excitation_probability,
    rotation_angle,
    to_interaction_picture,
    transition_frequency,
)

from conftest import GATE_FINAL, GATE_INITIAL


class TestGateMatrix:
    def test_plain_cn_permutation(self):
        m = cn_gate_matrix()
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_allclose(m, expected, atol=0)

    def test_phase_variant_swap_block(self):
        m = cn_gate_matrix(with_phase=True)
        assert m[2, 3] == 1j and m[3, 2] == 1j
        np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-15)

    def test_realized_by_gate_pulse(self, gate_system, gate_pulse):
        # column-by-column propagator in the interaction picture
        realized = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            out = evolve_pulse(QuantumState.basis(2, idx), gate_system, gate_pulse)
            realized[:, idx] = to_interaction_picture(
                out, gate_system, gate_pulse.duration
            ).amplitudes
        target = cn_gate_matrix(with_phase=True)
        process_fid = abs(np.trace(target.conj().T @ realized) / 4) ** 2
        assert process_fid >= 0.99


class TestDesign2pik:
    def test_pi_pulse_for_doubled_coupling(self):
        # delta = 2J with J = 1: the shortest exact CN pulse
        design = design_2pik(2.0, k=1, n=1)
        assert design.rabi == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-15)
        assert design.duration == pytest.approx(np.sqrt(3.0) * np.pi / 2.0, rel=1e-15)

    def test_half_pulse_condition(self):
        design = design_2pik(1.0, k=1, n=2)
        assert design.rabi == pytest.approx(1.0 / np.sqrt(15.0), rel=1e-15)
        assert design.rabi * design.duration == pytest.approx(np.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_rotation_angle_is_exact_multiple(self, k, n):
        design = design_2pik(0.77, k=k, n=n)
        angle = rotation_angle(design.rabi, design.delta_omega, design.duration)
        assert angle / (2 * np.pi) == pytest.approx(k, abs=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ConfigurationError, match="detuning"):
            design_2pik(0.0)

    @pytest.mark.parametrize("delta_omega", [1e-320, np.inf, np.nan])
    def test_non_finite_design_rejected(self, delta_omega):
        # 1e-320 gives a denormal Rabi frequency and an infinite duration
        with pytest.raises(ConfigurationError, match="finite"):
            design_2pik(delta_omega)

    @pytest.mark.parametrize("k, n", [(0, 1), (1, 0), (-1, 1)])
    def test_non_positive_k_or_n_rejected(self, k, n):
        with pytest.raises(ConfigurationError, match="^k and n must be positive integers$"):
            design_2pik(1.0, k=k, n=n)

    @pytest.mark.parametrize(
        "rabi, duration, delta_omega, message",
        [
            (1.0, 1.0, np.sqrt(4 * np.pi**2 - 1.0), r"Omega \* tau = pi/n"),
            (1.0, np.pi, 1.0, r"omega_e \* tau = 2 pi k"),
        ],
    )
    def test_design_conditions_enforced(self, rabi, duration, delta_omega, message):
        with pytest.raises(ConfigurationError, match=f"^design violates {message}$"):
            TwoPiKDesign(rabi=rabi, duration=duration, k=1, n=1, delta_omega=delta_omega)

    def test_underflowing_rabi_rejected(self):
        # 1e-320 / sqrt(4e10 - 1) is below the smallest denormal, so Omega = 0
        with pytest.raises(ConfigurationError, match="underflows"):
            design_2pik(1e-320, k=100000)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_detuned_spin_returns_home(self, k, n):
        # evolve an actually detuned spin through the designed pulse
        delta = 1.9
        design = design_2pik(delta, k=k, n=n)
        system = SpinSystem(1, [50.0], [[0.0]])
        pulse = PulseSpec(
            carrier=50.0 - delta, phase=0.0, rabi=[design.rabi], duration=design.duration
        )
        out = evolve_pulse(QuantumState.basis(1, 0), system, pulse)
        assert out.probabilities[1] < 1e-10

    def test_resonant_spin_fully_flips(self):
        design = design_2pik(3.3, k=2, n=1)
        system = SpinSystem(1, [50.0], [[0.0]])
        pulse = PulseSpec(
            carrier=50.0, phase=0.0, rabi=[design.rabi], duration=design.duration
        )
        out = evolve_pulse(QuantumState.basis(1, 0), system, pulse)
        assert out.probabilities[1] > 1 - 1e-9


class TestRotationAngle:
    def test_resonant_pi_pulse(self):
        assert rotation_angle(0.5, 0.0, np.pi / 0.5) == pytest.approx(np.pi)

    def test_ladder_neighbour_angle(self):
        # nearest ladder spin: delta = 8 Omega, pi-pulse
        rabi = 0.3
        angle = rotation_angle(rabi, 8 * rabi, np.pi / rabi)
        assert angle == pytest.approx(np.pi * np.sqrt(65.0), rel=1e-15)
        assert approx_rotation_angle(rabi, 8 * rabi) == pytest.approx(8 * np.pi)

    def test_residual_excitation_scale(self):
        # plain pi-pulse on a spin detuned by 8 Omega leaves ~1.5e-4 excitation
        rabi = 0.1
        prob = offresonant_excitation_probability(rabi, 8 * rabi, np.pi / rabi)
        assert prob == pytest.approx(1.525e-4, rel=0.1)
        # and the simulated single spin agrees with the closed form
        system = SpinSystem(1, [50.0], [[0.0]])
        pulse = PulseSpec(carrier=50.0 - 8 * rabi, phase=0.0, rabi=[rabi], duration=np.pi / rabi)
        out = evolve_pulse(QuantumState.basis(1, 0), system, pulse)
        assert out.probabilities[1] == pytest.approx(prob, rel=1e-9)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            rotation_angle(0.1, 1.0, -1.0)


class TestFrequencyLadder:
    def test_three_rungs(self):
        np.testing.assert_allclose(
            frequency_ladder(10.0, 0.5, 3), [14.0, 18.0, 22.0], atol=1e-15
        )

    def test_spacing_in_rabi_units(self):
        ladder = frequency_ladder(100.0, 0.2, 6)
        np.testing.assert_allclose(np.diff(ladder) / 0.2, 8.0, atol=1e-12)

    def test_detunings_are_ladder_multiples(self):
        # pulse at one rung: every detuning is a multiple of 8 Omega
        rabi = 0.4
        omega0 = 33.0
        full = np.concatenate([[omega0], frequency_ladder(omega0, rabi, 4)])
        carrier = full[2]
        detunings = np.abs(np.delete(full, 2) - carrier)
        ratios = detunings / (8 * rabi)
        np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-12)

    def test_bad_count(self):
        with pytest.raises(ConfigurationError):
            frequency_ladder(1.0, 1.0, 0)


class TestCnPulse:
    def test_standard_variant_on_gate_system(self, gate_system):
        pulse = cn_pulse(gate_system, control=0, target=1, rabi=[0.5, 0.1])
        assert pulse.carrier == pytest.approx(95.0)
        assert pulse.duration == pytest.approx(np.pi / 0.1)
        np.testing.assert_allclose(pulse.rabi, [0.5, 0.1])

    def test_complementary_variant_four_spin(self, ensemble_system):
        pulse = cn_pulse(
            ensemble_system, control=2, target=3, variant="complementary", rabi=[0.1] * 4
        )
        assert pulse.carrier == pytest.approx(430.0)

    def test_exact_design_from_coupling(self, gate_system):
        pulse = cn_pulse(gate_system, control=0, target=1, exact_2pik=1)
        assert pulse.rabi[1] == pytest.approx(10.0 / np.sqrt(3.0))
        assert pulse.duration == pytest.approx(np.sqrt(3.0) * np.pi / 10.0)

    def test_exact_design_performs_gate(self, gate_system):
        # k = 1: the control-ground pair completes one full rotation, which
        # returns its populations exactly but imprints the spinor minus sign
        # and the detuning phases -/+ J tau (invisible for the long pi-pulse,
        # where J tau is a multiple of 2 pi)
        pulse = cn_pulse(gate_system, control=0, target=1, exact_2pik=1)
        final = evolve_pulse(QuantumState(GATE_INITIAL), gate_system, pulse)
        final_int = to_interaction_picture(final, gate_system, pulse.duration)
        j_tau = 5.0 * pulse.duration
        reference = GATE_FINAL.copy()
        reference[0] *= -np.exp(-1j * j_tau)
        reference[1] *= -np.exp(+1j * j_tau)
        assert fidelity(final_int, QuantumState(reference)) >= 0.99
        np.testing.assert_allclose(
            final_int.probabilities, [0.3, 0.2, 1 / 6, 1 / 3], atol=0.02
        )

    def test_zero_coupling_rejected_for_exact(self):
        system = SpinSystem(2, [500.0, 100.0], np.zeros((2, 2)))
        with pytest.raises(ConfigurationError, match="coupling"):
            cn_pulse(system, control=0, target=1, exact_2pik=1)

    def test_rabi_with_exact_rejected(self, gate_system):
        # the design drives every spin at its own Rabi frequency; a given
        # rabi was dropped without a word
        message = "^rabi amplitudes are not used with exact_2pik$"
        with pytest.raises(ConfigurationError, match=message):
            cn_pulse(gate_system, control=0, target=1, rabi=[0.5, 0.1], exact_2pik=1)

    def test_missing_rabi_rejected(self, gate_system):
        with pytest.raises(ConfigurationError, match="rabi"):
            cn_pulse(gate_system, control=0, target=1)

    def test_same_spin_rejected(self, gate_system):
        with pytest.raises(ConfigurationError, match="distinct"):
            cn_pulse(gate_system, control=1, target=1, rabi=[0.5, 0.1])

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"variant": "inverted"}, "unknown CN variant 'inverted'"),
            ({"target": 2}, "spin index 2 out of range"),
            ({"control": -1}, "spin index -1 out of range"),
            # a float control was taken as an index, a float target raised TypeError
            ({"control": 0.0}, "spin index 0.0 is not an integer"),
            ({"target": 1.0}, "spin index 1.0 is not an integer"),
            ({"rabi": [0.5, 0.1, 0.1]}, "rabi must list 2 per-spin amplitudes"),
            ({"rabi": [0.5, 0.0]}, "target Rabi frequency must be positive"),
            ({"rabi": [0.5, -0.1]}, "target Rabi frequency must be positive"),
            ({"rabi": [0.5, np.nan]}, "target Rabi frequency must be positive"),
        ],
    )
    def test_bad_arguments_rejected(self, gate_system, arguments, message):
        arguments = {"control": 0, "target": 1, "rabi": [0.5, 0.1], **arguments}
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            cn_pulse(gate_system, **arguments)

    def test_carrier_matches_transition_frequency(self, ensemble_system):
        pulse = cn_pulse(
            ensemble_system, control=1, target=2, variant="standard", rabi=[0.1] * 4
        )
        expected = transition_frequency(ensemble_system, 2, {0: 0, 1: 1, 3: 0})
        assert pulse.carrier == pytest.approx(expected)


class TestGradientEstimate:
    def test_proton_scale(self):
        delta_b, gradient = gradient_estimate(1e3, 1e-9)
        assert delta_b == pytest.approx(3.0e-5, rel=0.01)
        assert gradient == pytest.approx(3.0e4, rel=0.01)

    def test_linearity(self):
        db1, g1 = gradient_estimate(1e3, 1e-9)
        db2, g2 = gradient_estimate(2e3, 1e-9)
        _, g3 = gradient_estimate(1e3, 2e-9)
        assert db2 == pytest.approx(2 * db1, rel=1e-12)
        assert g2 == pytest.approx(2 * g1, rel=1e-12)
        assert g3 == pytest.approx(g1 / 2, rel=1e-12)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            gradient_estimate(-1.0, 1e-9)
