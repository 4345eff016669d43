"""Tests for pulse/delay evolution, the analytic two-level solution, and the
lab-frame integrator.

The closed-form two-level solution is checked against a bespoke RK4
integration of the driven two-level equations written here in the test (the
library integrator is not reused for that oracle); its blocked, tree-multiplied
steps are pinned to a step-by-step loop kept here as well.  The full-system
integrator and the exact rotating-frame route check each other, and the
library's Magnus-4 propagator, one matrix power per pulse, is pinned to a
step-by-step Magnus-4 loop kept here, whose steps are built from
``lab_hamiltonian`` at each step's own Gauss nodes.  The covariance that
power rests on is tested too: each of those steps is the library's first
step turned by the drive's total-I^z rotation, and so is the lab
Hamiltonian.  The exact route's real eigensolve, with the drive's phase in
the frame, is pinned to the complex eigensolve of the phased Hamiltonian
kept here, and its state route to its propagator.
"""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpulse import (
    ConfigurationError,
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    analytic_two_level,
    apply_sequence,
    build_rotating_hamiltonian,
    cn_pulse,
    diagonal_energies,
    evolve_delay,
    evolve_deviation,
    evolve_pulse,
    fidelity,
    integrate_lab_frame,
    lab_frame_propagator,
    lab_hamiltonian,
    pulse_propagator,
    to_interaction_picture,
    transition_frequency,
)
from spinpulse.dynamics import (
    DEFAULT_STEP_DIVISOR,
    INTEGRATOR_NORM_TOL,
    MAX_STEP_DIVISOR,
    _lab_steps,
    _magnus_propagator,
    pulse_states,
)
from spinpulse.ensemble import init_deviation, to_interaction_picture as density_to_interaction_picture
from spinpulse.model import rotating_hamiltonian, spin_z_values, total_spin_z

from conftest import (
    GATE_FINAL,
    GATE_INITIAL,
    kron_rotating_hamiltonian,
    random_state,
    random_system,
    warnings_are_errors,
)


def integrate_two_level(c0, e_k, e_n, rabi, phase, t_start, duration, n_steps=20000, block=1000):
    """Oracle: RK4 on the driven pair equations, vectorized over draws and steps.

    i dC_k/dt = E_k C_k - (Omega/2) e^{+i(w t + phi)} C_n
    i dC_n/dt = E_n C_n - (Omega/2) e^{-i(w t + phi)} C_k,  w = E_n - E_k

    The equations are linear, i dC/dt = H(t) C, so an RK4 step is the 2 x 2
    matrix M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with A = -i H, K1 = A(t),
    K2 = A(t + h/2)(I + h/2 K1), K3 = A(t + h/2)(I + h/2 K2) and
    K4 = A(t + h)(I + h K3).  The step matrices of ``block`` steps are built
    at once for every draw and multiplied pairwise, later steps on the left.
    """
    c0, e_k, e_n, rabi, phase, t_start = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v)) for v in (c0, e_k, e_n, rabi, phase, t_start))
    )
    omega = (e_n - e_k)[:, None]
    h = duration / n_steps

    def a_at(t):
        drive = 0.5 * rabi[:, None] * np.exp(1j * (omega * t + phase[:, None]))
        a = np.empty(t.shape + (2, 2), dtype=complex)
        a[..., 0, 0] = -1j * e_k[:, None]
        a[..., 0, 1] = 1j * drive
        a[..., 1, 0] = 1j * np.conj(drive)
        a[..., 1, 1] = -1j * e_n[:, None]
        return a

    def tree_product(m):
        while m.shape[1] > 1:
            odd = m.shape[1] % 2
            paired = m[:, 1::2] @ m[:, 0 : m.shape[1] - odd : 2]
            m = np.concatenate((paired, m[:, -1:]), axis=1) if odd else paired
        return m[:, 0]

    y = np.tile(np.eye(2, dtype=complex), (len(c0), 1, 1))
    for first in range(0, n_steps, block):
        t = t_start[:, None] + h * np.arange(first, min(first + block, n_steps))
        a_mid, a_end = a_at(t + h / 2), a_at(t + h)
        k1 = a_at(t)
        k2 = a_mid + h / 2 * a_mid @ k1
        k3 = a_mid + h / 2 * a_mid @ k2
        k4 = a_end + h * a_end @ k3
        y = tree_product(np.eye(2) + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)) @ y
    return np.array([y[:, 0, 0] * c0, y[:, 1, 0] * c0])


def integrate_two_level_step_loop(c0, e_k, e_n, rabi, phase, t_start, duration, n_steps):
    """The step-by-step RK4 loop that ``integrate_two_level`` replaces."""
    c = np.array([np.asarray(c0, dtype=complex), np.zeros_like(np.asarray(c0, dtype=complex))])
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

    @pytest.mark.parametrize("n_steps, block", [(1, 1000), (7, 3), (200, 64), (333, 1000)])
    def test_blocked_oracle_matches_step_loop(self, rng, n_steps, block):
        n_draws = 5
        e_k = rng.uniform(-5, 5, n_draws)
        args = (
            np.exp(1j * rng.uniform(0, 2 * np.pi, n_draws)),
            e_k,
            e_k + rng.uniform(1, 8, n_draws),
            rng.uniform(0.2, 1.5, n_draws),
            rng.uniform(0, 2 * np.pi, n_draws),
            rng.uniform(0, 3, n_draws),
            2.0,
            n_steps,
        )
        blocked = integrate_two_level(*args, block=block)
        looped = integrate_two_level_step_loop(*args)
        assert np.max(np.abs(blocked - looped)) <= 1e-12

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

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="^duration: must be >= 0$"):
            analytic_two_level(1.0, 0.0, 5.0, 0.5, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_overflowing_resonance_is_off_resonance(self, error_state):
        # numpy energies warned "overflow encountered in scalar subtract" first
        with warnings_are_errors(error_state):
            with pytest.raises(ValueError, match="off the inf resonance"):
                analytic_two_level(
                    1.0, np.float64(-1e308), np.float64(1e308), 1.0, 0.0, 0.0, 1.0, carrier=1.0
                )

    def test_off_resonant_carrier_rejected(self):
        with pytest.raises(ValueError, match="resonance"):
            analytic_two_level(1.0, 0.0, 5.0, 0.5, 0.0, 0.0, 1.0, carrier=4.9)

    @pytest.mark.parametrize(
        "name", ["e_k", "e_n", "rabi", "phase", "t_start", "duration", "carrier"]
    )
    def test_nan_argument_rejected(self, name):
        # NaN passed both checks before and came out as all-NaN amplitudes
        args = dict(c_k_initial=1.0, e_k=0.0, e_n=1.0, rabi=1.0, phase=0.0,
                    t_start=0.0, duration=1.0, carrier=1.0)
        args[name] = np.nan
        with pytest.raises(ValueError):
            analytic_two_level(**args)


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

    @pytest.mark.parametrize(
        "evolve",
        [
            lambda state, system, t: evolve_delay(state, system, t),
            lambda state, system, t: to_interaction_picture(state, system, t),
            lambda state, system, t: density_to_interaction_picture(
                init_deviation([1.0, 0.0, 0.0, 0.0]), SpinSystem.uniform([1e300] * 4, 1.0), t
            ),
        ],
        ids=["evolve-delay", "interaction-picture", "density-interaction-picture"],
    )
    def test_overflowing_phases_are_a_configuration_error(self, evolve):
        # finite energies of ~1e300 times t = 1e10 overflow; this returned
        # all-NaN values after two RuntimeWarnings
        system = SpinSystem.uniform([1e300, 5e299], 1.0)
        with warnings_are_errors():
            with pytest.raises(ConfigurationError, match="free-evolution phases not finite"):
                evolve(QuantumState.basis(2, 0), system, 1e10)


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

    def test_overflowing_propagator_rejected(self):
        # finite inputs whose phases overflow: four NaN amplitudes before
        system = SpinSystem(2, [1e308, -1e308], [[0, 5], [5, 0]])
        pulse = cn_pulse(system, 0, 1, rabi=[0.5, 0.1])
        with pytest.raises(ConfigurationError, match="double precision"):
            evolve_pulse(QuantumState(GATE_INITIAL), system, pulse)

    def test_non_finite_energies_rejected(self):
        system = SpinSystem(2, [1.7e308] * 2, [[0, 1e308], [1e308, 0]])  # E_00 overflows
        pulse = PulseSpec(carrier=95.0, phase=0.0, rabi=[0.1, 0.1], duration=1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="double precision"):
                pulse_propagator(system, pulse)

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    def test_state_route_applies_the_propagator(self, rng, n_spins):
        # evolve_pulse applies the factors of U to the state and never forms
        # U; measured <= 4.5e-16 over 2000 draws
        for _ in range(25):
            system = random_system(rng, n_spins)
            pulse = PulseSpec(
                carrier=rng.uniform(20, 200),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0, 0.5, size=n_spins),
                duration=rng.uniform(0.1, 20),
            )
            state = QuantumState(random_state(rng, system.dim))
            t0 = rng.uniform(0, 20)
            out = evolve_pulse(state, system, pulse, t_start=t0)
            u = pulse_propagator(system, pulse, t_start=t0)
            assert np.max(np.abs(out.amplitudes - u @ state.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("index", [None, 0, 3])  # a random state and two basis states
    @pytest.mark.parametrize(
        "larmor, coupling, t_start",
        [
            ([500.0, 100.0], 5.0, 0.0),  # neither raises
            ([500.0, 100.0], 5.0, np.nan),
            ([500.0, 100.0], 5.0, np.inf),
            ([500.0, 100.0], 5.0, -np.inf),
            ([1e308, -1e308], 5.0, 0.0),  # finite energies whose phases overflow
            ([1.7e308, 1.7e308], 1e308, 0.0),  # the Ising energy E_00 overflows
        ],
    )
    def test_raises_exactly_when_the_propagator_does(
        self, rng, larmor, coupling, t_start, index
    ):
        # the state route checks U's factors, not only its own product: on a
        # basis state most of U never reaches the result
        system = SpinSystem.uniform(larmor, coupling)
        pulse = PulseSpec(carrier=95.0, phase=0.4, rabi=[0.5, 0.1], duration=np.pi / 0.1)
        if index is None:
            state = QuantumState(random_state(rng, 4))
        else:
            state = QuantumState.basis(2, index)
        with warnings_are_errors():
            try:
                pulse_propagator(system, pulse, t_start)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                    evolve_pulse(state, system, pulse, t_start)
            else:
                assert np.isfinite(evolve_pulse(state, system, pulse, t_start).amplitudes).all()

    @pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "route", ["pulse_propagator", "evolve_pulse", "evolve_deviation", "apply_sequence"]
    )
    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_non_finite_start_time_refused(self, ensemble_system, route, t_start, error_state):
        # "values too large for double precision" before, as if U had overflowed
        pulse = cn_pulse(ensemble_system, 2, 3, "complementary", rabi=[0.1] * 4)
        state = QuantumState.basis(4, 0)
        calls = {
            "pulse_propagator": lambda: pulse_propagator(ensemble_system, pulse, t_start),
            "evolve_pulse": lambda: evolve_pulse(state, ensemble_system, pulse, t_start),
            "evolve_deviation": lambda: evolve_deviation(
                init_deviation(GATE_INITIAL), ensemble_system, pulse, t_start
            ),
            "apply_sequence": lambda: apply_sequence(state, ensemble_system, [pulse], t_start),
        }
        with warnings_are_errors(error_state):
            message = "^t_start: must be finite$"
            with pytest.raises(ConfigurationError, match=message):
                calls[route]()


def complex_route_propagator(system, pulse, t_start):
    """Reference: the exact propagator from the complex Hermitian eigensolve.

    The drive's phase stays in the rotating-frame Hamiltonian of
    ``build_rotating_hamiltonian``, and the frame diagonals carry the
    carrier alone: exp(+i w t1 Z) V exp(-i Lambda tau) V^dagger exp(-i w t0 Z).
    """
    vals, vecs = np.linalg.eigh(build_rotating_hamiltonian(system, pulse))
    u = (vecs * np.exp(-1j * vals * pulse.duration)) @ vecs.conj().T
    z = total_spin_z(system.n_spins)
    left = np.exp(1j * pulse.carrier * (t_start + pulse.duration) * z)
    return left[:, None] * u * np.exp(-1j * pulse.carrier * t_start * z)


class TestRealEigensolve:
    """The exact route's phase is a turn of the frame, so its eigensolve is real."""

    @settings(max_examples=400, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        carrier=st.floats(20.0, 200.0),
        phase=st.floats(0.0, 2 * np.pi),
        duration=st.floats(0.1, 20.0),
        t_start=st.floats(0.0, 20.0),
    )
    def test_matches_the_complex_route(self, n_spins, seed, carrier, phase, duration, t_start):
        # phases up to ~1e4 rad, each rounded differently on the two routes;
        # measured <= 8.2e-12 over 3000 examples
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_spins)
        pulse = PulseSpec(carrier, phase, rng.uniform(0, 0.5, size=n_spins), duration)
        u = pulse_propagator(system, pulse, t_start)
        assert np.max(np.abs(u - complex_route_propagator(system, pulse, t_start))) <= 3e-11
        assert rotating_hamiltonian(system.energies, carrier, pulse.rabi).dtype == np.float64
        at_zero = PulseSpec(carrier, 0.0, pulse.rabi, duration)
        assert not np.imag(build_rotating_hamiltonian(system, at_zero)).any()


def separate_build_factors(system, pulse, t_start):
    """Reference: the exact route's factors, each built on its own.

    The drive half R is scattered into a zero matrix of its own, H = R + R^T
    gets E + w Z on its diagonal, and the eigenphases and the two frame
    diagonals are three separate exponentials.  No check is made.
    """
    n = system.n_spins
    ground, spin = np.nonzero(spin_z_values(n) > 0)
    excited = ground | (1 << (n - 1 - spin))
    r = np.zeros((system.dim, system.dim))
    r[ground, excited] = -0.5 * pulse.rabi[spin]
    h = r + r.conj().swapaxes(-1, -2)
    z = total_spin_z(n)
    diagonal = np.einsum("...ii->...i", h)
    diagonal += system.energies + np.multiply.outer(pulse.carrier, z)
    vals, vecs = np.linalg.eigh(h)
    w, tau, phi = pulse.carrier, pulse.duration, pulse.phase
    return (
        vecs,
        np.exp(-1j * vals * tau),
        np.exp(np.multiply.outer(1j * (w * (t_start + tau) + phi), z)),
        np.exp(np.multiply.outer(-1j * (w * t_start + phi), z)),
    )


def real_product(m, psi):
    """m psi for a real m, as one real product with psi's real and imaginary
    parts as the two columns of a (dim, 2) array."""
    out = m @ np.stack([psi.real, psi.imag], axis=-1)
    return out[..., 0] + 1j * out[..., 1]


class TestFactorsBitForBit:
    """The one Hamiltonian builder and the Python-float checks move no bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        carrier=st.just(0.0) | st.floats(-300.0, 300.0),
        phase=st.just(0.0) | st.floats(0.0, 2 * np.pi),
        duration=st.floats(0.01, 50.0),
        t_start=st.just(0.0) | st.floats(-100.0, 100.0),
        undriven=st.integers(0, 4),
    )
    def test_matches_the_separate_build(
        self, n_spins, seed, carrier, phase, duration, t_start, undriven
    ):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_spins)
        rabi = rng.uniform(0, 0.5, size=n_spins)
        rabi[undriven:] = 0.0  # undriven spins: zero entries of R
        pulse = PulseSpec(carrier, phase, rabi, duration)
        state = random_state(rng, system.dim)
        vecs, phases, left, right = separate_build_factors(system, pulse, t_start)
        np.testing.assert_array_equal(
            pulse_propagator(system, pulse, t_start),
            left[:, None] * (vecs * phases).dot(vecs.T) * right,
        )
        np.testing.assert_array_equal(
            evolve_pulse(QuantumState(state), system, pulse, t_start).amplitudes,
            left * real_product(vecs, phases * real_product(vecs.T, right * state)),
        )


def stack_states(state, systems, pulses):
    """``pulse_states`` for one state and phase-zero pulses of one duration."""
    return pulse_states(
        state,
        np.array([system.energies for system in systems]),
        np.array([pulse.carrier for pulse in pulses]),
        np.array([pulse.rabi for pulse in pulses]),
        pulses[0].duration,
    )


class TestPulseStates:
    def test_stack_matches_one_pulse_at_a_time(self, rng):
        systems = [random_system(rng, 3) for _ in range(5)]
        pulses = [
            PulseSpec(rng.uniform(10, 150), 0.0, rng.uniform(0, 0.5, 3), 2.5) for _ in systems
        ]
        state = QuantumState(random_state(rng, 8))
        psi = stack_states(state.amplitudes, systems, pulses)
        for i, (system, pulse) in enumerate(zip(systems, pulses)):
            assert np.array_equal(psi[i], evolve_pulse(state, system, pulse).amplitudes)

    @settings(max_examples=300, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        carrier=st.floats(-200.0, 200.0),
        duration=st.floats(0.01, 50.0),
    )
    def test_one_pulse_is_the_stack_of_one(self, n_spins, seed, carrier, duration):
        # both routes take their factors from one builder and apply them
        # through one helper: bit for bit the same state for a pulse at
        # t = 0 and phase 0
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_spins)
        pulse = PulseSpec(carrier, 0.0, rng.uniform(0, 0.5, size=n_spins), duration)
        state = QuantumState(random_state(rng, system.dim))
        [psi] = stack_states(state.amplitudes, [system], [pulse])
        assert np.array_equal(evolve_pulse(state, system, pulse).amplitudes, psi)

    @settings(max_examples=200, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        n_pulses=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        duration=st.floats(0.01, 50.0),
    )
    def test_random_stacks_are_evolve_pulse(self, n_spins, n_pulses, seed, duration):
        rng = np.random.default_rng(seed)
        systems = [random_system(rng, n_spins) for _ in range(n_pulses)]
        pulses = [
            PulseSpec(rng.uniform(-200.0, 200.0), 0.0, rng.uniform(0, 0.5, n_spins), duration)
            for _ in systems
        ]
        state = QuantumState(random_state(rng, 2**n_spins))
        psi = stack_states(state.amplitudes, systems, pulses)
        for row, system, pulse in zip(psi, systems, pulses):
            assert np.array_equal(row, evolve_pulse(state, system, pulse).amplitudes)

    def test_bad_pulse_fails_alone(self, gate_system, gate_pulse):
        # one pulse with an infinite energy, one with a NaN carrier (both
        # kept out of the eigensolve) and one whose phases overflow
        energies = np.tile(diagonal_energies(gate_system), (4, 1))
        energies[1, 2] = np.inf
        carrier = np.array([gate_pulse.carrier, gate_pulse.carrier, np.nan, 1e308])
        rabi = np.tile(gate_pulse.rabi, (4, 1))
        state = QuantumState(GATE_INITIAL)
        with np.errstate(over="raise", invalid="raise"):
            psi = pulse_states(state.amplitudes, energies, carrier, rabi, gate_pulse.duration)
        assert np.array_equal(psi[0], evolve_pulse(state, gate_system, gate_pulse).amplitudes)
        assert [bool(np.isfinite(row).all()) for row in psi] == [True, False, False, False]
        assert np.all(np.isnan(psi[1:3]))


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

    @pytest.mark.parametrize(
        "larmor, carrier, phase, rabi, duration",
        [
            ([1e308, -1e308], 100.0, 0.0, 0.1, 1.0),  # subnormal step: OverflowError before
            ([1e308, 1e308], 100.0, 0.0, 0.1, 1.0),  # E_00 overflows
            ([1.7e308, -1.7e308], 100.0, 0.0, 1e308, 1.0),  # the fastest frequency overflows
            ([1.0, 2.0], 1e308, 0.0, 0.1, 1e308),  # the step count overflows
            ([1.0, 2.0], np.inf, 0.0, 0.1, 1.0),
            ([1.0, 2.0], 100.0, np.inf, 0.1, 1.0),  # phase inf % 2 pi is NaN
        ],
    )
    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_non_finite_input_is_a_configuration_error(
        self, larmor, carrier, phase, rabi, duration, error_state
    ):
        system = SpinSystem(2, larmor, [[0, 5], [5, 0]])
        with warnings_are_errors(error_state):
            with pytest.raises(ConfigurationError, match="double precision|finite"):
                pulse = PulseSpec(carrier=carrier, phase=phase, rabi=[rabi, 0.1], duration=duration)
                lab_frame_propagator(system, pulse)

    def test_step_count_bounded_before_stepping(self):
        # about 3e12 RK4 steps per carrier period: this ran until killed
        system = SpinSystem(2, [1e12, 5e11], [[0, 5], [5, 0]])
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="MAX_STEPS = 1e\\+10$"):
            lab_frame_propagator(system, PulseSpec(100.0, 0.0, [0.1, 0.1], 1.0))
        assert time.perf_counter() - start < 1.0

    def test_whole_pulse_step_count_bounded(self):
        # 3.2e15 steps, a few hundred per carrier period: this returned a U
        # whose unitarity error was 1.26, with no error
        system = SpinSystem(1, [1e6], [[0.0]])
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="^3.183e\\+15 steps, more than MAX_STEPS"):
            lab_frame_propagator(system, PulseSpec(1e6, 0.0, [1.0], 1e8))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_no_frequency_is_the_identity(self, error_state):
        # the shortest period 2 pi / 0 raised a divide-by-zero warning
        system = SpinSystem(1, [0.0], [[0.0]])
        with warnings_are_errors(error_state):
            u = lab_frame_propagator(system, PulseSpec(0.0, 0.0, [0.0], 1.0))
        assert np.array_equal(u, np.eye(2))

    # 1e307 is finite, but its drive angle w t + phi overflows
    @pytest.mark.parametrize("t_start", [np.nan, np.inf, -np.inf, 1e307, -1e307])
    @pytest.mark.parametrize(
        "route",
        [
            "lab_frame_propagator",
            "integrate_lab_frame",
            "apply_sequence",
            "lab_hamiltonian",
            "lab_hamiltonian of an array",
        ],
    )
    @pytest.mark.parametrize("error_state", ["warn", "raise"])
    def test_non_finite_start_time_refused(
        self, gate_system, gate_pulse, route, t_start, error_state
    ):
        # NaN amplitudes before, after a RuntimeWarning for inf and 1e307
        state = QuantumState(GATE_INITIAL)
        calls = {
            "lab_frame_propagator": lambda: lab_frame_propagator(
                gate_system, gate_pulse, t_start=t_start
            ),
            "integrate_lab_frame": lambda: integrate_lab_frame(
                state, gate_system, gate_pulse, t_start=t_start
            ),
            "apply_sequence": lambda: apply_sequence(
                state, gate_system, [gate_pulse], t_start=t_start, method="lab-integrator"
            ),
            "lab_hamiltonian": lambda: lab_hamiltonian(gate_system, gate_pulse, t_start),
            "lab_hamiltonian of an array": lambda: lab_hamiltonian(
                gate_system, gate_pulse, np.array([0.5, t_start])
            ),
        }
        name = "t" if route.startswith("lab_hamiltonian") else "t_start"
        if np.isfinite(t_start):
            message = r"^values too large for double precision \(drive angle not finite\)$"
        else:
            message = f"^{name}: must be finite$"
        with warnings_are_errors(error_state):
            with pytest.raises(ConfigurationError, match=message):
                calls[route]()

    @pytest.mark.parametrize("step", [0.0, -1e-3, np.nan])
    def test_non_positive_step_refused(self, gate_system, gate_pulse, step):
        # a negative step used to give one RK4 step over the whole pulse
        problem = "must be finite" if np.isnan(step) else "must be > 0"
        with pytest.raises(ConfigurationError, match=f"^step: {problem}$"):
            lab_frame_propagator(gate_system, gate_pulse, step=step)


def taylor_exp(a, terms=16):
    """exp(a) as its Taylor sum to a^terms / terms!, term by term."""
    total = term = np.eye(len(a), dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        total = total + term
    return total


def magnus_step(system, pulse, t, h):
    """Reference: the Magnus-4 step over [t, t + h], from H at its Gauss nodes.

    exp(A) with A = -i h/2 (H1 + H2) - (sqrt(3)/12) h^2 [H2, H1] and H1, H2
    the lab Hamiltonian at t + (1/2 -+ sqrt(3)/6) h.
    """
    h1 = lab_hamiltonian(system, pulse, t + (0.5 - np.sqrt(3) / 6) * h)
    h2 = lab_hamiltonian(system, pulse, t + (0.5 + np.sqrt(3) / 6) * h)
    return taylor_exp(-0.5j * h * (h1 + h2) - np.sqrt(3) / 12 * h**2 * (h2 @ h1 - h1 @ h2))


def magnus_step_loop(system, pulse, t0, n_steps):
    """Reference: the Magnus-4 propagator stepped one step at a time."""
    h = pulse.duration / n_steps
    y = np.eye(system.dim, dtype=complex)
    for j in range(n_steps):
        y = magnus_step(system, pulse, t0 + j * h, h) @ y
    return y


def turn(m, z, angle):
    """D m D^dagger with D = exp(i angle Z), Z the total I^z diagonal ``z``.

    Entry (a, b) gains e^{i angle (z_a - z_b)}; the integer differences keep
    the phases as exact as the drive's own e^{i angle}.
    """
    return m * np.exp(1j * np.multiply.outer(angle, np.subtract.outer(z, z)))


class TestMagnusPropagator:
    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_steps", [1, 31, 32, 33])
    def test_node_steps_are_the_turned_first_step(self, rng, n_spins, n_steps):
        # step j is G_j M G_j^dagger, G_j = exp(i w j h Z) and M the
        # propagator's first step (a one-step pulse of length h)
        system = random_system(rng, n_spins)
        energies = diagonal_energies(system)
        h = 2 * np.pi / np.max(np.abs(energies)) / 400
        pulse = PulseSpec(
            carrier=rng.uniform(20, 200),
            phase=rng.uniform(0, 2 * np.pi),
            rabi=rng.uniform(0.05, 0.5, size=n_spins),
            duration=h,
        )
        t0 = rng.uniform(0, 1e3)
        m = _magnus_propagator(system, pulse, t0, 1)
        turned = turn(m, total_spin_z(n_spins), pulse.carrier * h * np.arange(n_steps))
        by_nodes = np.array([magnus_step(system, pulse, t0 + j * h, h) for j in range(n_steps)])
        assert np.max(np.abs(turned - by_nodes)) <= 1e-13

    # the power's binary digits: all ones (3, 31, 1023), a lone one (2, 32, 1024)
    # and both ends set (33, 1025)
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 31, 32, 33, 67, 1023, 1024, 1025])
    def test_matches_step_loop(self, gate_system, ensemble_system, rng, n_steps):
        for system in (gate_system, ensemble_system):
            step = 2 * np.pi / np.max(np.abs(diagonal_energies(system))) / 400
            pulse = PulseSpec(
                carrier=rng.uniform(50, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0.05, 0.5, size=system.n_spins),
                duration=n_steps * step,
            )
            t0 = rng.uniform(0, 20)
            powered = _magnus_propagator(system, pulse, t0, n_steps)
            looped = magnus_step_loop(system, pulse, t0, n_steps)
            assert np.max(np.abs(powered - looped)) <= 1e-12

    @pytest.mark.parametrize("n_spins", [1, 2, 3, 4])
    @pytest.mark.parametrize("divisor", [DEFAULT_STEP_DIVISOR, MAX_STEP_DIVISOR])
    def test_step_is_the_term_by_term_taylor_sum(self, rng, n_spins, divisor):
        # one step at the default and at the largest admissible length: the
        # Paterson-Stockmeyer sum is the same Taylor polynomial as the
        # term-by-term one
        system = random_system(rng, n_spins)
        carrier = rng.uniform(20, 200)
        rabi = rng.uniform(0.05, 0.5, size=n_spins)
        w_max = max(np.max(np.abs(diagonal_energies(system))), carrier) + np.max(rabi)
        h = 2 * np.pi / w_max / divisor
        pulse = PulseSpec(carrier=carrier, phase=rng.uniform(0, 2 * np.pi), rabi=rabi, duration=h)
        t0 = rng.uniform(0, 1e3)
        m = _magnus_propagator(system, pulse, t0, 1)
        assert np.max(np.abs(m - magnus_step(system, pulse, t0, h))) <= 1e-15

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 31, 32, 33, 67, 1023, 1024, 1025])
    def test_state_route_matches_the_propagator(self, gate_system, ensemble_system, rng, n_steps):
        # integrate_lab_frame applies the power to the state, in other
        # products than the propagator's; the result must not change
        for system in (gate_system, ensemble_system):
            # carriers below the largest energy and Rabi frequencies up to 0.5
            t_min = 2 * np.pi / (np.max(np.abs(diagonal_energies(system))) + 0.5)
            pulse = PulseSpec(
                carrier=rng.uniform(50, 150),
                phase=rng.uniform(0, 2 * np.pi),
                rabi=rng.uniform(0.05, 0.5, size=system.n_spins),
                duration=n_steps * t_min / 400,
            )
            step = pulse.duration / (n_steps - 0.5)
            assert _lab_steps(system, pulse, step) == n_steps
            state = QuantumState(random_state(rng, system.dim))
            t0 = rng.uniform(0, 20)
            u = lab_frame_propagator(system, pulse, step=step, t_start=t0)
            lab = integrate_lab_frame(state, system, pulse, step=step, t_start=t0)
            assert np.max(np.abs(lab.amplitudes - u @ state.amplitudes)) <= 1e-14

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

    @pytest.mark.parametrize("t_start", [0.0, 7.7])
    @pytest.mark.parametrize("rabi", [np.pi, 0.1, 0.01])
    def test_pulses_up_to_314_match_the_exact_route(self, ensemble_system, rabi, t_start):
        # tau = 1, 31.4 and 314 at the default step: the error must not grow
        # with the pulse, as a fixed-step RK4's did (4.6e-5 at tau = 314)
        pulse = cn_pulse(ensemble_system, 2, 3, "complementary", rabi=[rabi] * 4)
        u = lab_frame_propagator(ensemble_system, pulse, t_start=t_start)
        assert np.max(np.abs(u - pulse_propagator(ensemble_system, pulse, t_start))) <= 1e-8
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-8

    def test_many_period_pulse_is_accepted(self, ensemble_system):
        # tau ~ 31416 takes ~5e8 steps, below MAX_STEPS
        pulse = cn_pulse(ensemble_system, 2, 3, "complementary", rabi=[1e-4] * 4)
        u = lab_frame_propagator(ensemble_system, pulse, t_start=7.7)
        assert np.max(np.abs(u - pulse_propagator(ensemble_system, pulse, 7.7))) <= 1e-6


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


def oracle_stage() -> tuple[SpinSystem, list[PulseSpec]]:
    """The period-finding oracle |x, y> -> |x, y + 3^x mod 4> as 16 selective pi-pulses.

    Register index 4x + y is the basis index of the spins (m1, m0, n1, n0),
    whose 32 transitions are all distinct, at least 2 apart.  CN n0 -> n1 is
    4 pulses on spin 2, the flip of n0 8 pulses on spin 3 and CN m0 -> n1
    4 pulses on spin 2: one per assignment of the other spins, each at
    Omega = 0.01 (tau ~ 314) and phi = pi/2.
    """
    j = np.zeros((4, 4))
    j[np.triu_indices(4, 1)] = [3.0, 5.0, 7.0, 11.0, 13.0, 17.0]
    system = SpinSystem(4, [100.0, 200.0, 300.0, 400.0], j + j.T)

    def selective(target, spectators):
        carrier = transition_frequency(system, target, spectators)
        return PulseSpec(carrier, np.pi / 2, [0.01] * 4, np.pi / 0.01)

    bits = (0, 1)
    return system, (
        [selective(2, {0: a, 1: b, 3: 1}) for a in bits for b in bits]
        + [selective(3, {0: a, 1: b, 2: c}) for a in bits for b in bits for c in bits]
        + [selective(2, {0: a, 1: 1, 3: d}) for a in bits for d in bits]
    )


def random_sequence(rng, system, n_events) -> list:
    """Random pulses and delays over ``system``: a pulse 3 times in 5."""
    n = system.n_spins

    def pulse():
        return PulseSpec(
            rng.uniform(0, 250), rng.uniform(0, 6), rng.uniform(0, 0.5, n), rng.uniform(0.01, 20)
        )

    return [pulse() if rng.random() < 0.6 else DelaySpec(rng.uniform(0, 5)) for _ in range(n_events)]


def evolve_chain(state, system, events, t_start):
    """``apply_sequence``'s exact route as a chain of ``evolve_pulse`` and ``evolve_delay``."""
    t = t_start
    for event in events:
        if isinstance(event, PulseSpec):
            state = evolve_pulse(state, system, event, t)
        else:
            state = evolve_delay(state, system, event)
        t += event.duration
    return state


class TestApplySequence:
    @pytest.mark.parametrize("x", range(4))
    def test_lab_integrator_runs_the_oracle_stage(self, x):
        # every pulse checked the state the last one built against
        # QuantumState.NORM_TOL = 1e-9 while the integrator's drift
        # accumulated: from |0, 0> pulse 15 was refused (|norm - 1| = 1.079e-09)
        system, pulses = oracle_stage()
        start = QuantumState.basis(4, 4 * x)
        exact = apply_sequence(start, system, pulses)
        lab = apply_sequence(start, system, pulses, method="lab-integrator")
        assert lab.norm_drift <= INTEGRATOR_NORM_TOL
        # measured up to 2.9e-9: the bound is 3.4 times that
        assert np.abs(lab.final_state.amplitudes - exact.final_state.amplitudes).max() <= 1e-8
        # off-resonant leakage ~1e-8
        assert lab.final_state.probabilities[4 * x + 3**x % 4] > 1 - 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        n_events=st.integers(1, 20),
        t_start=st.floats(-100.0, 100.0),
    )
    def test_exact_sequence_is_its_chain_bit_for_bit(self, n_spins, seed, n_events, t_start):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_spins)
        events = random_sequence(rng, system, n_events)
        state = QuantumState(random_state(rng, system.dim))
        np.testing.assert_array_equal(
            apply_sequence(state, system, events, t_start).final_state.amplitudes,
            evolve_chain(state, system, events, t_start).amplitudes,
        )

    @settings(max_examples=100, deadline=None)
    @given(
        n_spins=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        n_events=st.integers(1, 20),
        t_start=st.floats(-100.0, 100.0),
        bad=st.sampled_from(["rabi-length", "overflow"]),
    )
    def test_a_bad_pulse_fails_as_in_the_chain(self, n_spins, seed, n_events, t_start, bad):
        rng = np.random.default_rng(seed)
        system = random_system(rng, n_spins)
        events = random_sequence(rng, system, n_events)
        bad_pulse = (
            PulseSpec(95.0, 0.0, [0.1] * (n_spins + 1), 1.0)
            if bad == "rabi-length"
            else PulseSpec(95.0, 0.0, [0.1] * n_spins, 1e308)  # its frame angle overflows
        )
        events.insert(rng.integers(0, n_events + 1), bad_pulse)
        state = QuantumState(random_state(rng, system.dim))
        with pytest.raises(ConfigurationError) as chained:
            evolve_chain(state, system, events, t_start)
        with pytest.raises(ConfigurationError) as sequenced:
            apply_sequence(state, system, events, t_start)
        assert type(sequenced.value) is type(chained.value)
        assert str(sequenced.value) == str(chained.value)

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

    def test_step_with_the_exact_method_rejected(self, gate_system, gate_pulse):
        # the exact route takes no step; it was dropped without a word
        with pytest.raises(ValueError, match="^step is not used with method 'exact-rotating'$"):
            apply_sequence(QuantumState(GATE_INITIAL), gate_system, [gate_pulse], step=0.01)

    def test_event_neither_pulse_nor_delay_rejected(self, gate_system):
        with pytest.raises(TypeError, match="^events must be PulseSpec or DelaySpec"):
            apply_sequence(QuantumState(GATE_INITIAL), gate_system, [1.0])


class TestLabHamiltonian:
    def test_diagonal_is_drive_free_energies(self, gate_system, gate_pulse):
        h = lab_hamiltonian(gate_system, gate_pulse, t=0.37)
        np.testing.assert_allclose(
            np.real(np.diag(h)), diagonal_energies(gate_system), atol=1e-15
        )

    def test_driven_pair_element_rotates_with_carrier(self, gate_system, gate_pulse):
        t = 1.234
        h = lab_hamiltonian(gate_system, gate_pulse, t)
        # (ground, excited) element of the target spin: -(Omega/2) e^{+i(wt+phi)}
        expected = -0.05 * np.exp(1j * (gate_pulse.carrier * t + gate_pulse.phase))
        assert h[2, 3] == pytest.approx(expected, abs=1e-12)

    def test_matches_kron_oracle(self, rng):
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


    def test_array_of_times_is_the_stack_of_scalar_calls(self, ensemble_system, rng):
        pulse = cn_pulse(ensemble_system, 2, 3, "complementary", rabi=[0.1] * 4)
        times = rng.uniform(0, 1e3, size=5)
        stacked = np.stack([lab_hamiltonian(ensemble_system, pulse, t) for t in times])
        assert np.array_equal(lab_hamiltonian(ensemble_system, pulse, times), stacked)


@st.composite
def driven_systems(draw):
    """A random 1-4 spin system and a pulse driving every spin."""
    n = draw(st.integers(1, 4))
    reals = st.floats(-500.0, 500.0)
    larmor = draw(st.lists(reals, min_size=n, max_size=n))
    j = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n * n, max_size=n * n)))
    j = j.reshape(n, n) + j.reshape(n, n).T
    np.fill_diagonal(j, 0.0)
    pulse = PulseSpec(
        carrier=draw(reals),
        phase=draw(st.floats(-10.0, 10.0)),
        rabi=draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)),
        duration=1.0,
    )
    return SpinSystem(n, larmor, j), pulse


class TestDriveCovariance:
    """The one assumption the lab-frame oracle shares with the exact route.

    H(t) = D(t) H_0 D(t)^dagger, D(t) = exp(i (w t + phi) Z): it makes the
    exact route's rotating frame exact and the oracle's steps one matrix power.
    """

    @settings(max_examples=80, deadline=None)
    @given(case=driven_systems())
    def test_drive_raises_total_spin_z_by_one(self, case):
        system, pulse = case
        z = total_spin_z(system.n_spins)
        # R sits where the total I^z rises by one, and carries e^{+ia} there
        r = rotating_hamiltonian(np.zeros(system.dim), 0.0, pulse.rabi)
        h = rotating_hamiltonian(np.zeros(system.dim), 0.0, pulse.rabi, 1.0)
        rows, cols = np.nonzero(r)
        assert np.all(np.abs(z[rows] - z[cols]) == 1)
        phase = np.where(z[rows] - z[cols] == 1, np.exp(1j), np.exp(-1j))
        assert np.array_equal(h[rows, cols], phase * r[rows, cols])

    @settings(max_examples=80, deadline=None)
    @given(case=driven_systems(), t=st.floats(-1e3, 1e3))
    def test_lab_hamiltonian_is_the_turned_phase_zero_one(self, case, t):
        system, pulse = case
        at_zero = PulseSpec(pulse.carrier, 0.0, pulse.rabi, pulse.duration)
        h0 = lab_hamiltonian(system, at_zero, 0.0)
        turned = turn(h0, total_spin_z(system.n_spins), pulse.carrier * t + pulse.phase)
        assert np.max(np.abs(lab_hamiltonian(system, pulse, t) - turned)) <= 1e-12


class TestInteractionPicture:
    def test_strips_free_evolution(self, gate_system, rng):
        state = QuantumState(random_state(rng, 4))
        t = rng.uniform(0, 20)
        delayed = evolve_delay(state, gate_system, t)
        stripped = to_interaction_picture(delayed, gate_system, t)
        np.testing.assert_allclose(stripped.amplitudes, state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("size", [2, 8])
@pytest.mark.parametrize(
    "evolve",
    [
        lambda state, system, pulse: evolve_pulse(state, system, pulse),
        lambda state, system, pulse: integrate_lab_frame(state, system, pulse),
        lambda state, system, pulse: evolve_delay(state, system, 1.0),
        lambda state, system, pulse: to_interaction_picture(state, system, 1.0),
        lambda state, system, pulse: apply_sequence(
            state, system, [pulse], method="lab-integrator"
        ),
    ],
    ids=["evolve_pulse", "integrate_lab_frame", "evolve_delay", "to_interaction_picture",
         "apply_sequence"],
)
def test_state_of_the_wrong_size_is_refused(size, evolve):
    # the integrator would refuse this pulse's step count, so the size must
    # be checked before anything else
    system = SpinSystem(2, [1e12, 5e11], [[0, 5], [5, 0]])
    pulse = PulseSpec(100.0, 0.0, [0.1, 0.1], 1.0)
    state = QuantumState(np.full(size, size**-0.5))
    with pytest.raises(ConfigurationError, match=f"state has {size} amplitudes.* dimension is 4"):
        evolve(state, system, pulse)


@pytest.mark.parametrize(
    "amplitudes",
    [GATE_INITIAL * (1 + 2e-9), GATE_INITIAL * (1 - 2e-9), np.full(4, np.nan)],
    ids=["norm 1 + 2e-9", "norm 1 - 2e-9", "NaN"],
)
@pytest.mark.parametrize(
    "evolve",
    [
        lambda state, system, pulse: evolve_pulse(state, system, pulse),
        lambda state, system, pulse: integrate_lab_frame(state, system, pulse),
        lambda state, system, pulse: evolve_delay(state, system, 1.0),
        # checked once, where the sequence starts: with no events as well
        lambda state, system, pulse: apply_sequence(state, system, []),
    ],
    ids=["evolve_pulse", "integrate_lab_frame", "evolve_delay", "apply_sequence"],
)
def test_unnormalized_state_is_refused(gate_system, gate_pulse, amplitudes, evolve):
    state = QuantumState(amplitudes, check=False)
    with warnings_are_errors():
        with pytest.raises(ValueError, match="input state is not normalized"):
            evolve(state, gate_system, gate_pulse)
    # a drift inside QuantumState.NORM_TOL passes
    evolve(QuantumState(GATE_INITIAL * (1 + 5e-10), check=False), gate_system, gate_pulse)
