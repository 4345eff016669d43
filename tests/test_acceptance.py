"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

Criteria:
  1. single-pulse CN gate reproduces the worked superposition transform
     with overlap fidelity >= 0.99;
  2. four-spin ensemble: complementary CN maps the active block onto the
     reference table within 0.5% per element (absolute, entries are order
     0.1-0.3) with the background diagonal unchanged at the same level;
  3. 2pi-k designs leave a detuned spin unexcited (< 1e-10) while a
     resonant pi-pulse design flips fully; the plain pi-pulse residual on
     the nearest ladder spin is ~1.5e-4 within 10%;
  4. the period-finding pipeline is exact in all three timing modes
     (closed-form checks over 100 randomized draws);
  5. the lab-frame integrator and the exact route agree to 1e-6 on the CN
     pulse; the analytic two-level solution matches direct integration of
     the driven-pair equations to 1e-8;
  6. threshold sweep: deviation <= 2% at frequency separations of 300 and
     1000 Rabi units (couplings 5 and 50), strictly worse at 30;
  7. unitarity, Hermiticity, trace conservation, delay composition, and
     transform-inverse identities across 1000 randomized cases.
"""

import numpy as np

from spinpulse import (
    BACKGROUND_DIAGONAL,
    DelaySpec,
    EnergyTable,
    PulseSpec,
    QuantumState,
    SpinSystem,
    analytic_two_level,
    apply_sequence,
    build_rotating_hamiltonian,
    cn_pulse,
    design_2pik,
    evolve_deviation,
    evolve_pulse,
    extract_period,
    fidelity,
    init_deviation,
    integrate_lab_frame,
    offresonant_excitation_probability,
    run_shor,
    run_sweep,
    to_interaction_picture,
)
from spinpulse.ensemble import to_interaction_picture as density_to_interaction_picture
from spinpulse.shor import _STAGES

from conftest import GATE_FINAL, GATE_INITIAL, random_state, random_system
from test_dynamics import integrate_two_level
from test_ensemble import R_AFTER


def report(number: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_cn_gate_reproduction(gate_system, gate_pulse):
    state = QuantumState(GATE_INITIAL)
    final = evolve_pulse(state, gate_system, gate_pulse)
    final_int = to_interaction_picture(final, gate_system, gate_pulse.duration)
    fid = fidelity(final_int, QuantumState(GATE_FINAL))
    ok = fid >= 0.99
    report(1, f"CN gate reproduction, fidelity {fid:.6f}", ok)
    assert ok


def test_criterion_2_ensemble_reproduction(ensemble_system):
    pulse = cn_pulse(
        ensemble_system, control=2, target=3, variant="complementary", rabi=[0.1] * 4
    )
    rho = init_deviation(GATE_INITIAL)
    evolved = evolve_deviation(rho, ensemble_system, pulse)
    evolved = density_to_interaction_picture(evolved, ensemble_system, pulse.duration)
    dev_r = float(np.max(np.abs(evolved.active_block - R_AFTER)))
    dev_b = float(np.max(np.abs(evolved.background_diagonal - BACKGROUND_DIAGONAL)))
    ok = dev_r < 0.005 and dev_b < 0.005
    report(2, f"ensemble reproduction, max|dr| {dev_r:.2e}, max|db| {dev_b:.2e}", ok)
    assert ok


def test_criterion_3_2pik_design(rng):
    checks = []
    for delta in rng.uniform(0.5, 20.0, size=3):
        for k in (1, 2, 3):
            for n in (1, 2):
                design = design_2pik(delta, k=k, n=n)
                system = SpinSystem(1, [60.0], [[0.0]])
                detuned = PulseSpec(
                    carrier=60.0 - delta,
                    phase=0.0,
                    rabi=[design.rabi],
                    duration=design.duration,
                )
                leak = evolve_pulse(QuantumState.basis(1, 0), system, detuned)
                checks.append(leak.probabilities[1] < 1e-10)
                if n == 1:
                    resonant = PulseSpec(
                        carrier=60.0,
                        phase=0.0,
                        rabi=[design.rabi],
                        duration=design.duration,
                    )
                    flip = evolve_pulse(QuantumState.basis(1, 0), system, resonant)
                    checks.append(flip.probabilities[1] > 1 - 1e-9)
    # plain pi-pulse residual on the nearest frequency-ladder spin
    rabi = 0.1
    system = SpinSystem(1, [60.0], [[0.0]])
    pulse = PulseSpec(
        carrier=60.0 - 8 * rabi, phase=0.0, rabi=[rabi], duration=np.pi / rabi
    )
    simulated = evolve_pulse(QuantumState.basis(1, 0), system, pulse).probabilities[1]
    expected = offresonant_excitation_probability(rabi, 8 * rabi, np.pi / rabi)
    checks.append(abs(simulated - 1.5e-4) / 1.5e-4 < 0.10)
    checks.append(abs(simulated - expected) / expected < 1e-9)
    ok = all(checks)
    report(3, f"2pi-k design, ladder residual {simulated:.3e}", ok)
    assert ok


def test_criterion_4_shor_pipeline(rng):
    checks = []
    # instantaneous: exact final state and period extraction
    ideal = run_shor("instantaneous")
    expected = np.zeros(16, dtype=complex)
    expected[1], expected[3], expected[9], expected[11] = 0.5, 0.5, 0.5, -0.5
    checks.append(np.max(np.abs(ideal.final_state.amplitudes - expected)) < 1e-12)
    checks.append(np.allclose(ideal.x_distribution, [0.5, 0, 0.5, 0], atol=1e-12))
    period = extract_period(ideal.x_distribution)
    checks.append(period.period == 2 and period.factor == 2)
    # bare-delay closed forms and natural-phase restoration, 100 draws
    for _ in range(100):
        values = rng.uniform(-5, 5, size=16)
        energies = EnergyTable(values)
        tau1, tau2 = rng.uniform(0, 4, size=2)
        run = run_shor("bare-delay", delays=(tau1, tau2), energies=energies)
        e = energies.values.reshape(4, 4)  # e[x, y] = E_xy
        phase_a = np.exp(-1j * (e[0, 0] * tau1 + e[0, 1] * tau2))
        phase_b = np.exp(-1j * (e[2, 0] * tau1 + e[2, 1] * tau2))
        checks.append(
            abs(run.final_state.amplitudes[1] - 0.25 * (phase_a + phase_b)) < 1e-12
        )
        checks.append(
            abs(run.final_state.amplitudes[5] - 0.25 * (phase_a - phase_b)) < 1e-12
        )
        natural = run_shor("natural-phase", delays=(tau1, tau2), energies=energies)
        checks.append(
            np.max(np.abs(natural.x_distribution - ideal.x_distribution)) < 1e-10
        )
    ok = all(checks)
    report(4, "period-finding pipeline (instantaneous/bare-delay/natural-phase)", ok)
    assert ok


def test_criterion_5_oracle_equivalence(gate_system, gate_pulse, rng):
    state = QuantumState(GATE_INITIAL)
    step = 2 * np.pi / 303.1 / 800
    numeric = integrate_lab_frame(state, gate_system, gate_pulse, step=step)
    exact = evolve_pulse(state, gate_system, gate_pulse)
    gate_error = float(np.linalg.norm(numeric.amplitudes - exact.amplitudes))
    checks = [gate_error < 1e-6]

    n_draws = 6
    e_k = rng.uniform(-5, 5, n_draws)
    e_n = e_k + rng.uniform(1, 8, n_draws)
    phase = rng.uniform(0, 2 * np.pi, n_draws)
    t0 = rng.uniform(0, 3, n_draws)
    duration = 2.0
    rabi = rng.uniform(0.2, 1.5, n_draws)
    c0 = np.exp(-1j * e_k * t0)
    numeric_pair = integrate_two_level(c0, e_k, e_n, rabi, phase, t0, duration)
    two_level_error = 0.0
    for i in range(n_draws):
        result = analytic_two_level(c0[i], e_k[i], e_n[i], rabi[i], phase[i], t0[i], duration)
        two_level_error = max(
            two_level_error,
            abs(result.c_k - numeric_pair[0, i]),
            abs(result.c_n - numeric_pair[1, i]),
        )
    checks.append(two_level_error < 1e-8)
    ok = all(checks)
    report(
        5,
        f"oracle equivalence, gate 2-norm {gate_error:.2e}, pair {two_level_error:.2e}",
        ok,
    )
    assert ok


def test_criterion_6_threshold_sweep():
    cells = run_sweep([30.0, 300.0, 1000.0], [5.0, 50.0])
    deviations = {(cell.delta_ratio, cell.j_ratio): cell.deviation for cell in cells}
    checks = []
    for dr in (300.0, 1000.0):
        for jr in (5.0, 50.0):
            checks.append(deviations[(dr, jr)] <= 0.02)
    for jr in (5.0, 50.0):
        checks.append(deviations[(30.0, jr)] > deviations[(300.0, jr)])
    ok = all(checks)
    summary = ", ".join(
        f"{int(dr)}/{int(jr)}: {dev:.2e}" for (dr, jr), dev in sorted(deviations.items())
    )
    report(6, f"threshold sweep ({summary})", ok)
    assert ok


def test_criterion_7_invariant_suite(rng):
    checks = []
    # unitarity of pulse evolution (200 cases)
    for _ in range(200):
        system = random_system(rng, 2)
        pulse = PulseSpec(
            carrier=rng.uniform(5, 150),
            phase=rng.uniform(0, 2 * np.pi),
            rabi=rng.uniform(0, 1, size=2),
            duration=rng.uniform(0.05, 10),
        )
        out = evolve_pulse(QuantumState(random_state(rng, 4)), system, pulse)
        checks.append(abs(out.norm - 1.0) < 1e-12)
    # Hermiticity of constructed Hamiltonians (200 cases)
    for _ in range(200):
        system = random_system(rng, 3)
        pulse = PulseSpec(
            carrier=rng.uniform(0, 150),
            phase=rng.uniform(0, 2 * np.pi),
            rabi=rng.uniform(0, 1, size=3),
            duration=1.0,
        )
        h = build_rotating_hamiltonian(system, pulse)
        checks.append(np.max(np.abs(h - h.conj().T)) < 1e-12)
    # trace conservation of ensemble evolution (200 cases)
    ensemble_system = SpinSystem.uniform([100.0, 200.0, 300.0, 400.0], 10.0)
    for _ in range(200):
        amps = random_state(rng, 4)
        rho = init_deviation(amps)
        pulse = PulseSpec(
            carrier=rng.uniform(100, 500),
            phase=rng.uniform(0, 2 * np.pi),
            rabi=rng.uniform(0, 0.5, size=4),
            duration=rng.uniform(0.1, 5),
        )
        evolved = evolve_deviation(rho, ensemble_system, pulse)
        checks.append(abs(evolved.trace - rho.trace) < 1e-12)
        checks.append(
            np.max(np.abs(evolved.entries - evolved.entries.conj().T)) < 1e-12
        )
    # delay composition (200 cases)
    for _ in range(200):
        system = random_system(rng, 2)
        state = QuantumState(random_state(rng, 4))
        t1, t2 = rng.uniform(0, 8, size=2)
        split = apply_sequence(state, system, [DelaySpec(t1), DelaySpec(t2)]).final_state
        joined = apply_sequence(state, system, [DelaySpec(t1 + t2)]).final_state
        checks.append(np.max(np.abs(split.amplitudes - joined.amplitudes)) < 1e-12)
    # transform-inverse identity: the adjoint of the transform undoes it (200 cases)
    dft = _STAGES[2]
    for _ in range(200):
        state = QuantumState(random_state(rng, 16))
        back = dft.conj().T @ (dft @ state.amplitudes)
        checks.append(np.max(np.abs(back - state.amplitudes)) < 1e-12)
    ok = all(checks)
    report(7, f"invariant suite, {len(checks)} checks over 1000 randomized cases", ok)
    assert ok
