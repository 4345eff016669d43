"""Independent Kronecker-product rebuild of the sweep-cell protocol.

Every operator here is built from 2x2 spin matrices with ``np.kron``, never
from the package's bit-mask constructors, so agreement with a sweep's CSV
output checks the Hamiltonian, carrier, frame and metric conventions
together.  Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

I_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
I_Y = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
I_Z = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)

#: relative floor of the sweep's deviation metric
METRIC_FLOOR = 1e-3


def spin_op(single: np.ndarray, spin: int, n_spins: int) -> np.ndarray:
    """Embed a single-spin operator at ``spin`` (spin 0 is the leftmost factor)."""
    out = np.eye(1, dtype=complex)
    for k in range(n_spins):
        out = np.kron(out, single if k == spin else np.eye(2))
    return out


def ising_hamiltonian(larmor, couplings, carrier: float = 0.0) -> np.ndarray:
    """-sum_k (omega_k - carrier) I^z_k - sum_{k<m} 2 J_km I^z_k I^z_m."""
    n = len(larmor)
    h = sum(-(larmor[k] - carrier) * spin_op(I_Z, k, n) for k in range(n))
    for k in range(n):
        for m in range(k + 1, n):
            h = h - 2.0 * couplings[k][m] * spin_op(I_Z, k, n) @ spin_op(I_Z, m, n)
    return h


def ising_energies(larmor, couplings) -> np.ndarray:
    """Drive-free lab-frame energies E_n."""
    return np.real(np.diag(ising_hamiltonian(larmor, couplings)))


def sweep_cell_deviation(
    delta_ratio: float, j_ratio: float, rabi: float, base_larmor: float, initial
) -> float:
    """Deviation of one sweep cell, rebuilt from tensor products.

    Two spins at base + delta and base share J; a phase-0 pi-pulse on spin 1
    at its transition with spin 0 excited runs once with spin 0 driven and
    once undriven.  The result is the worst relative entry deviation of the
    interaction-picture density matrices.
    """
    larmor = [base_larmor + delta_ratio * rabi, base_larmor]
    j = j_ratio * rabi
    couplings = [[0.0, j], [j, 0.0]]
    energies = ising_energies(larmor, couplings)
    carrier = energies[0b11] - energies[0b10]
    tau = math.pi / rabi
    z_total = np.real(np.diag(spin_op(I_Z, 0, 2) + spin_op(I_Z, 1, 2)))
    psi0 = np.asarray(initial, dtype=complex)

    def final_rho(drive_control: bool) -> np.ndarray:
        amplitudes = (rabi if drive_control else 0.0, rabi)
        h = ising_hamiltonian(larmor, couplings, carrier)
        for k in range(2):
            h = h - amplitudes[k] * spin_op(I_X, k, 2)
        vals, vecs = np.linalg.eigh(h)
        u_rot = vecs @ np.diag(np.exp(-1j * vals * tau)) @ vecs.conj().T
        psi = np.exp(1j * carrier * tau * z_total) * (u_rot @ psi0)
        psi = np.exp(1j * energies * tau) * psi
        return np.outer(psi, psi.conj())

    a, b = final_rho(True), final_rho(False)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), METRIC_FLOOR)))
