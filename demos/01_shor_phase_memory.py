#!/usr/bin/env python3
"""Four-qubit period finding and the phase-memory effect.

Walks the three-stage pipeline (superpose x, compute 3^x mod 4, transform x)
in three timing modes: instantaneous textbook transformations, finite delays
between stages (which destroy the interference), and delays with the
natural-phase dressing that resonant pulses provide automatically.
"""

import numpy as np

from spinpulse import (
    EnergyTable,
    extract_period,
    register_values,
    run_shor,
    sample_x,
)


def separator(title):
    print(f"\n{'=' * 64}\n  {title}\n{'=' * 64}")


def label(index):
    x, y = register_values(index)
    return f"|{x >> 1}{x & 1},{y >> 1}{y & 1}>"


def show_distribution(run):
    for x, p in enumerate(run.x_distribution):
        bar = "#" * int(round(40 * p))
        print(f"   P(x={x}) = {p:.4f} {bar}")


separator("INSTANTANEOUS PIPELINE")
ideal = run_shor("instantaneous")
print("\nFinal amplitudes (only nonzero shown):")
for i, amp in enumerate(ideal.final_state.amplitudes):
    if abs(amp) > 1e-12:
        print(f"   {label(i)}: {amp.real:+.3f}{amp.imag:+.3f}i")
print("\nMeasurement distribution over x:")
show_distribution(ideal)
result = extract_period(ideal.x_distribution)
print(f"\nSmallest nonzero x: {result.x_measured} -> period T = {result.period}")
print(f"Factor found: gcd(3^(T/2) - 1, 4) = {result.factor}")
print(f"Sampled measurements (200 shots): {sample_x(ideal.x_distribution, 200, seed=0)}")

separator("FINITE DELAYS BETWEEN STAGES (BARE PHASES)")
rng = np.random.default_rng(42)
energies = EnergyTable(rng.uniform(-5.0, 5.0, size=16))
delays = (1.3, 2.4)
bare = run_shor("bare-delay", delays=delays, energies=energies, trace=True)
print(f"\nDelays tau1={delays[0]}, tau2={delays[1]} with random state energies.")
print("Each amplitude picks up exp(-i E tau) of the state it occupies at that")
print("moment, so amplitudes reaching one state along different routes carry")
print("different phase histories:")
show_distribution(bare)
print("\nStates that should have vanished now survive, e.g.")
p_revived = bare.final_state.probabilities[5]
print(f"   P({label(5)}) = {p_revived:.4f}  (exactly 0 when tau1 = tau2 = 0)")

print("\nPath decomposition of the (ideally constructive) state", label(1), ":")
for term in bare.trace.terms[1]:
    path = " -> ".join(label(s) for s in term.states)
    print(f"   {path}   magnitude {term.magnitude:.2f}, phase {term.phase:+.3f} rad")
print("The two terms remember their route through the register ('phase")
print("memory'); their phase difference is what spoils the interference.")

separator("NATURAL-PHASE DRESSING (WHAT RESONANT PULSES DO)")
natural = run_shor("natural-phase", delays=delays, energies=energies)
print("\nEvery transformation applied at time t imprints exp(-i (E_n - E_k) t)")
print("on its matrix elements, so each new amplitude carries the phase it")
print("would have accumulated had it existed from t = 0:")
show_distribution(natural)
drift = np.max(np.abs(natural.x_distribution - ideal.x_distribution))
print(f"\nMax distribution difference from the instantaneous run: {drift:.2e}")
result = extract_period(natural.x_distribution)
print(f"Period and factor recovered: T = {result.period}, factor = {result.factor}")
