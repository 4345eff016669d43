"""Tests for pulse/delay evolution, the analytic two-level solution, and the
lab-frame integrator.

The closed-form two-level solution is checked against a bespoke RK4
integration of the driven two-level equations written here in the test (the
library integrator is not reused for that oracle).  The full-system
integrator and the exact rotating-frame route check each other, and the
library's block-batched RK4 is pinned to a step-by-step RK4 loop kept here.
"""

import cmath
import tracemalloc

import numpy as np
import pytest

from spinpulse import (
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    analytic_two_level,
    apply_sequence,
    diagonal_energies,
    evolve_delay,
    evolve_pulse,
    fidelity,
    integrate_lab_frame,
    lab_frame_propagator,
    to_interaction_picture,
)
from spinpulse.dynamics import _rk4_propagator
from spinpulse.model import drive_half

from conftest import (
    GATE_FINAL,
    GATE_INITIAL,
    kron_rotating_hamiltonian,
    random_state,
    random_system,
)


def integrate_two_level(c0, e_k, e_n, rabi, phase, t_start, duration, n_steps=20000):
    """Oracle: RK4 on the driven pair equations, vectorized over draws.

    i dC_k/dt = E_k C_k - (Omega/2) e^{+i(w t + phi)} C_n
    i dC_n/dt = E_n C_n - (Omega/2) e^{-i(w t + phi)} C_k,  w = E_n - E_k
    """
    c = np.array([np.asarray(c0, dtype=complex), np.zeros_like(np.asarray(c0, dtype=complex))])
    e_k = np.asarray(e_k, dtype=float)
    e_n = np.asarray(e_n, dtype=float)
    rabi = np.asarray(rabi, dtype=float)
    phase = np.asarray(phase, dtype=float)
    omega = e_n - e_k

    def rhs(t, y):
        drive = 0.5 * rabi * np.exp(1j * (omega * t + phase))
        return np.array(
            [
                -1j * (e_k * y[0] - drive * y[1]),
                -1j * (e_n * y[1] - np.conj(drive) * y[0]),
            ]
        )

    h = duration / n_steps
    t = np.array(t_start, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(t, c)
        k2 = rhs(t + h / 2, c + h / 2 * k1)
        k3 = rhs(t + h / 2, c + h / 2 * k2)
        k4 = rhs(t + h, c + h * k3)
        c = c + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
    return c


class TestAnalyticTwoLevel:
    def test_full_flip_with_phase_choice(self):
        # phi = pi/2 cancels the standard phase shift entirely
        e_k, e_n, rabi, t0 = -3.0, 7.0, 0.5, 1.3
        tau = np.pi / rabi
        c0 = 0.8 * np.exp(-1j * e_k * t0)
        result = analytic_two_level(c0, e_k, e_n, rabi, np.pi / 2, t0, tau)
        assert result.c_k == pytest.approx(0.0, abs=1e-12)
        expected = 0.8 * np.exp(-1j * e_n * (t0 + tau))
        assert result.c_n == pytest.approx(expected, abs=1e-12)

    def test_zero_duration_is_identity(self):
        result = analytic_two_level(0.6 + 0.2j, -1.0, 2.0, 0.7, 0.3, 5.0, 0.0)
        assert result.c_k == pytest.approx(0.6 + 0.2j, abs=1e-15)
        assert result.c_n == pytest.approx(0.0, abs=1e-15)

    def test_matches_numeric_integration(self, rng):
        n_draws = 8
        e_k = rng.uniform(-5, 5, n_draws)
        e_n = e_k + rng.uniform(1, 8, n_draws)
        phase = rng.uniform(0, 2 * np.pi, n_draws)
        t0 = rng.uniform(0, 3, n_draws)
        duration = 2.0
        rabi = np.full(n_draws, np.pi / (2 * duration))  # quarter flip, alpha = pi/4
        c0 = np.exp(-1j * e_k * t0) * rng.uniform(0.5, 1.0, n_draws)
        numeric = integrate_two_level(c0, e_k, e_n, rabi, phase, t0, duration)
        for i in range(n_draws):
            result = analytic_two_level(
                c0[i], e_k[i], e_n[i], rabi[i], phase[i], t0[i], duration
            )
            assert abs(result.c_k - numeric[0, i]) < 1e-8
            assert abs(result.c_n - numeric[1, i]) < 1e-8

    def test_generated_phase_relation(self, rng):
        # phase(C_n) = pi/2 - phi - E_n t_end (mod 2pi) for natural-phase input
        for _ in range(25):
            e_k, e_n = rng.uniform(-5, 5), rng.uniform(-5, 5)
            phase = rng.uniform(0, 2 * np.pi)
            t0, tau = rng.uniform(0, 4), rng.uniform(0.1, 2.0)
            c0 = 0.9 * np.exp(-1j * e_k * t0)
            result = analytic_two_level(c0, e_k, e_n, 0.8, phase, t0, tau)
            expected = np.pi / 2 - phase - e_n * result.t_end
            delta = (np.angle(result.c_n) - expected) % (2 * np.pi)
            assert min(delta, 2 * np.pi - delta) < 1e-10

    def test_norm_conserved(self, rng):
        for _ in range(10):
            c0 = np.exp(1j * rng.uniform(0, 2 * np.pi))
            result = analytic_two_level(c0, -1.0, 4.0, 0.9, 0.4, 0.0, rng.uniform(0, 5))
            p_k, p_n = result.populations
            assert p_k + p_n == pytest.approx(1.0, abs=1e-12)

    def test_off_resonant_carrier_rejected(self):
        with pytest.raises(ValueError, match="resonance"):
            analytic_two_level(1.0, 0.0, 5.0, 0.5, 0.0, 0.0, 1.0, carrier=4.9)


class TestEvolveDelay:
    def test_zero_delay_identity(self, gate_system):
        state = QuantumState(GATE_INITIAL)
        out = evolve_delay(state, gate_system, DelaySpec(0.0))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)

    def test_probabilities_unchanged(self, gate_system, rng):
        state = QuantumState(random_state(rng, 4))
        out = evolve_delay(state, gate_system, DelaySpec(rng.uniform(0, 10)))
        np.testing.assert_allclose(out.probabilities, state.probabilities, atol=1e-15)

    def test_single_spin_relative_phase(self):
        # omega = 100, tau = 0.01: |1> advances by -(E_1 - E_0) tau = -1 rad
        system = SpinSystem(1, [100.0], [[0.0]])
        state = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2))
        out = evolve_delay(state, system, DelaySpec(0.01))
        relative = np.angle(out.amplitudes[1] / out.amplitudes[0])
        assert relative == pytest.approx(-1.0, abs=1e-12)

    def test_matches_integrator_with_zero_drive(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        state = QuantumState(np.array([0.6, 0.8], dtype=complex))
        tau = 0.01
        pulse = PulseSpec(carrier=100.0, phase=0.0, rabi=[0.0], duration=tau)
        by_delay = evolve_delay(state, system, DelaySpec(tau))
        by_integrator = integrate_lab_frame(state, system, pulse)
        np.testing.assert_allclose(
            by_delay.amplitudes, by_integrator.amplitudes, atol=1e-9
        )

    def test_composition_exact(self, gate_system, rng):
        state = QuantumState(random_state(rng, 4))
        t1, t2 = rng.uniform(0, 5, size=2)
        split = evolve_delay(evolve_delay(state, gate_system, t1), gate_system, t2)
        joined = evolve_delay(state, gate_system, t1 + t2)
        np.testing.assert_allclose(split.amplitudes, joined.amplitudes, atol=1e-14)


class TestEvolvePulse:
    def test_cn_gate_on_superposition(self, gate_system, gate_pulse):
        state = QuantumState(GATE_INITIAL)
        final = evolve_pulse(state, gate_system, gate_pulse)
        final_int = to_interaction_picture(final, gate_system, gate_pulse.duration)
        assert fidelity(final_int, QuantumState(GATE_FINAL)) >= 0.99

    def test_resonant_pi_pulse_flips(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        pulse = PulseSpec(carrier=100.0, phase=0.0, rabi=[0.2], duration=np.pi / 0.2)
        out = evolve_pulse(QuantumState.basis(1, 0), system, pulse)
        assert out.probabilities[1] == pytest.approx(1.0, abs=1e-9)

    def test_unitarity_random(self, rng):
        for _ in range(20):
            system = random_system(rng, 2)
            pulse = PulseSpec(
                carrier=rng.uniform(10, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0, 0.5, size=2),
                duration=rng.uniform(0.1, 20),
            )
            state = QuantumState(random_state(rng, 4))
            out = evolve_pulse(state, system, pulse, t_start=rng.uniform(0, 10))
            assert abs(out.norm - 1.0) < 1e-9

    def test_zero_drive_reduces_to_delay(self, gate_system, rng):
        state = QuantumState(random_state(rng, 4))
        tau = 3.7
        pulse = PulseSpec(carrier=95.0, phase=0.0, rabi=[0.0, 0.0], duration=tau)
        np.testing.assert_allclose(
            evolve_pulse(state, gate_system, pulse, t_start=2.0).amplitudes,
            evolve_delay(state, gate_system, tau).amplitudes,
            atol=1e-12,
        )

    def test_unnormalized_input_rejected(self, gate_system, gate_pulse):
        bad = QuantumState(GATE_INITIAL * 1.1, check=False)
        with pytest.raises(ValueError, match="normalized"):
            evolve_pulse(bad, gate_system, gate_pulse)


class TestIntegrateLabFrame:
    def test_resonant_rabi_formula(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        rabi = 0.1
        state = QuantumState.basis(1, 0)
        w_max = 100.1
        step = 2 * np.pi / w_max / 800
        for tau in (3.0, 10.0, 25.0):
            pulse = PulseSpec(carrier=100.0, phase=0.0, rabi=[rabi], duration=tau)
            out = integrate_lab_frame(state, system, pulse, step=step)
            expected = np.sin(rabi * tau / 2) ** 2
            assert out.probabilities[1] == pytest.approx(expected, abs=1e-6)

    def test_detuned_rabi_formula(self):
        system = SpinSystem(1, [100.0], [[0.0]])
        rabi, delta = 0.2, 1.3
        tau = np.pi / rabi
        pulse = PulseSpec(carrier=100.0 + delta, phase=0.0, rabi=[rabi], duration=tau)
        state = QuantumState.basis(1, 0)
        omega_e = np.hypot(rabi, delta)
        expected = (rabi / omega_e) ** 2 * np.sin(omega_e * tau / 2) ** 2
        step = 2 * np.pi / 101.5 / 800
        out = integrate_lab_frame(state, system, pulse, step=step)
        assert out.probabilities[1] == pytest.approx(expected, abs=1e-6)
        exact = evolve_pulse(state, system, pulse)
        assert exact.probabilities[1] == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_exact_on_gate_pulse(self, gate_system, gate_pulse):
        state = QuantumState(GATE_INITIAL)
        step = 2 * np.pi / 303.1 / 800
        numeric = integrate_lab_frame(state, gate_system, gate_pulse, step=step)
        exact = evolve_pulse(state, gate_system, gate_pulse)
        assert np.linalg.norm(numeric.amplitudes - exact.amplitudes) < 1e-6
        assert abs(numeric.norm - 1.0) < 1e-6

    def test_oversized_step_refused(self, gate_system, gate_pulse):
        with pytest.raises(ValueError, match="step"):
            integrate_lab_frame(
                QuantumState(GATE_INITIAL), gate_system, gate_pulse, step=1.0
            )

    def test_default_step_norm_drift(self, gate_system, gate_pulse):
        out = integrate_lab_frame(QuantumState(GATE_INITIAL), gate_system, gate_pulse)
        assert abs(out.norm - 1.0) < 1e-6


def rk4_step_loop(diag, half, carrier, phase, t0, span, n_steps):
    """Reference: the RK4 propagator stepped one step at a time."""
    y = np.eye(len(diag), dtype=complex)
    h = span / n_steps
    d_col = -1j * diag[:, None]
    up = -1j * half
    down = -1j * half.conj().T

    def rhs(t, m):
        c = cmath.exp(1j * (carrier * t + phase))
        return d_col * m + c * (up @ m) + c.conjugate() * (down @ m)

    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


class TestRK4Propagator:
    @pytest.mark.parametrize("n_steps", [1, 31, 32, 33, 67])
    def test_matches_step_loop(self, gate_system, ensemble_system, rng, n_steps):
        # block edges at 32 steps, and 67 = 2 * 32 + 3 has odd tree levels
        for system in (gate_system, ensemble_system):
            energies = diagonal_energies(system)
            pulse = PulseSpec(
                carrier=rng.uniform(50, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0.05, 0.5, size=system.n_spins),
                duration=1.0,
            )
            half = drive_half(system, pulse)
            step = 2 * np.pi / np.max(np.abs(energies)) / 400
            args = (energies, half, pulse.carrier, pulse.phase, rng.uniform(0, 20))
            blocked = _rk4_propagator(*args, n_steps * step, n_steps)
            looped = rk4_step_loop(*args, n_steps * step, n_steps)
            assert np.max(np.abs(blocked - looped)) <= 1e-12

    def test_long_pulse_memory_is_bounded(self, ensemble_system):
        # a pulse shorter than one carrier period is stepped straight through:
        # 6000 steps on 16 x 16 matrices, where a stack of every step's
        # matrices would take over 20 MB per array
        tau = 0.9 * 2 * np.pi / 75.0
        pulse = PulseSpec(carrier=75.0, phase=0.2, rabi=[0.1] * 4, duration=tau)
        tracemalloc.start()
        try:
            lab_frame_propagator(ensemble_system, pulse, step=tau / 6000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFrameConsistency:
    def test_pulse_then_delay_matches_single_lab_run(self, rng):
        # pulse followed by free evolution == lab integration over both legs
        system = SpinSystem(2, [30.0, 10.0], [[0.0, 1.0], [1.0, 0.0]])
        pulse = PulseSpec(carrier=9.0, phase=0.3, rabi=[0.2, 0.2], duration=4.0)
        delay = DelaySpec(2.5)
        state = QuantumState(random_state(rng, 4))
        exact = evolve_delay(evolve_pulse(state, system, pulse), system, delay)
        idle = PulseSpec(carrier=9.0, phase=0.3, rabi=[0.0, 0.0], duration=delay.duration)
        numeric = integrate_lab_frame(state, system, pulse, step=1e-4)
        numeric = integrate_lab_frame(
            numeric, system, idle, step=1e-4, t_start=pulse.duration
        )
        assert np.linalg.norm(exact.amplitudes - numeric.amplitudes) < 1e-6


class TestApplySequence:
    def test_clock_advances_across_events(self, gate_system, gate_pulse):
        events = [DelaySpec(1.0), gate_pulse, DelaySpec(0.5)]
        report = apply_sequence(QuantumState(GATE_INITIAL), gate_system, events)
        assert report.elapsed == pytest.approx(1.5 + gate_pulse.duration)
        assert report.method == "exact-rotating"
        assert report.norm_drift < 1e-9

    def test_sequence_matches_manual_composition(self, gate_system, gate_pulse):
        state = QuantumState(GATE_INITIAL)
        manual = evolve_delay(state, gate_system, 1.0)
        manual = evolve_pulse(manual, gate_system, gate_pulse, t_start=1.0)
        report = apply_sequence(state, gate_system, [DelaySpec(1.0), gate_pulse])
        np.testing.assert_allclose(
            report.final_state.amplitudes, manual.amplitudes, atol=1e-12
        )

    def test_integrator_method_norm_tolerance(self, gate_system):
        pulse = PulseSpec(carrier=95.0, phase=0.0, rabi=[0.5, 0.1], duration=2.0)
        report = apply_sequence(
            QuantumState(GATE_INITIAL), gate_system, [pulse], method="lab-integrator"
        )
        assert report.norm_drift < 1e-6

    def test_unknown_method_rejected(self, gate_system):
        with pytest.raises(ValueError, match="method"):
            apply_sequence(QuantumState(GATE_INITIAL), gate_system, [], method="magic")


class TestLabHamiltonian:
    def test_diagonal_is_drive_free_energies(self, gate_system, gate_pulse):
        from spinpulse import lab_hamiltonian

        h = lab_hamiltonian(gate_system, gate_pulse, t=0.37)
        np.testing.assert_allclose(
            np.real(np.diag(h)), diagonal_energies(gate_system), atol=1e-15
        )

    def test_driven_pair_element_rotates_with_carrier(self, gate_system, gate_pulse):
        from spinpulse import lab_hamiltonian

        t = 1.234
        h = lab_hamiltonian(gate_system, gate_pulse, t)
        # (ground, excited) element of the target spin: -(Omega/2) e^{+i(wt+phi)}
        expected = -0.05 * np.exp(1j * (gate_pulse.carrier * t + gate_pulse.phase))
        assert h[2, 3] == pytest.approx(expected, abs=1e-12)

    def test_matches_kron_oracle(self, rng):
        from spinpulse import lab_hamiltonian

        # the lab Hamiltonian at time t is the rotating one of a zero carrier
        # with the field held at angle w t + phi
        for n_spins in (1, 2, 3):
            system = random_system(rng, n_spins)
            pulse = PulseSpec(
                carrier=rng.uniform(0, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0, 1, size=n_spins),
                duration=1.0,
            )
            t = rng.uniform(0, 10)
            held = PulseSpec(0.0, pulse.carrier * t + pulse.phase, pulse.rabi, 1.0)
            np.testing.assert_allclose(
                lab_hamiltonian(system, pulse, t),
                kron_rotating_hamiltonian(system, held),
                atol=1e-12,
            )


class TestInteractionPicture:
    def test_strips_free_evolution(self, gate_system, rng):
        state = QuantumState(random_state(rng, 4))
        t = rng.uniform(0, 20)
        delayed = evolve_delay(state, gate_system, t)
        stripped = to_interaction_picture(delayed, gate_system, t)
        np.testing.assert_allclose(stripped.amplitudes, state.amplitudes, atol=1e-12)
