"""Shared fixtures and independent construction oracles.

The oracle helpers here rebuild Hamiltonians from explicit Kronecker
products of single-spin operators, deliberately avoiding the bit-arithmetic
route the library uses, so the two constructions check each other.
"""

import contextlib
import warnings

import numpy as np
import pytest

from spinpulse import PulseSpec, SpinSystem
from spinpulse.shor import DIM, _STAGES

SIGMA_X = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: worked two-spin superposition used across the gate tests
GATE_INITIAL = np.array(
    [np.sqrt(0.3), np.sqrt(0.2), 1 / np.sqrt(3), 1 / np.sqrt(6)], dtype=complex
)
#: its image under the single-pulse CN gate (phi = 0 standard phase)
GATE_FINAL = np.array(
    [np.sqrt(0.3), np.sqrt(0.2), 1j / np.sqrt(6), 1j / np.sqrt(3)], dtype=complex
)


def single_spin_operator(n_spins: int, spin: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-spin operator at position ``spin`` (leftmost = 0)."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n_spins):
        out = np.kron(out, op if k == spin else IDENTITY)
    return out


def kron_rotating_hamiltonian(system: SpinSystem, pulse: PulseSpec) -> np.ndarray:
    """Oracle: rotating-frame Hamiltonian from explicit tensor products."""
    n = system.n_spins
    h = np.zeros((system.dim, system.dim), dtype=complex)
    for k in range(n):
        h -= (system.larmor[k] - pulse.carrier) * single_spin_operator(n, k, SIGMA_Z)
        h -= pulse.rabi[k] * (
            np.cos(pulse.phase) * single_spin_operator(n, k, SIGMA_X)
            - np.sin(pulse.phase) * single_spin_operator(n, k, SIGMA_Y)
        )
        for m in range(k + 1, n):
            h -= (
                2.0
                * system.couplings[k, m]
                * single_spin_operator(n, k, SIGMA_Z)
                @ single_spin_operator(n, m, SIGMA_Z)
            )
    return h


def kron_lab_energies(system: SpinSystem) -> np.ndarray:
    """Oracle: drive-free lab energies via tensor products."""
    zero_pulse = PulseSpec(carrier=0.0, phase=0.0, rabi=np.zeros(system.n_spins), duration=1.0)
    return np.real(np.diag(kron_rotating_hamiltonian(system, zero_pulse)))


def dressed_stages(mode, delays, energies) -> tuple[list, list]:
    """Reference: the stage matrices of a run as dressed 16x16 copies, and its delay phases.

    Returns (stages, phases): stages = [U1, U2, U3] applied in order and
    phases = [p1, p2] applied after stages 1 and 2.  In ``natural-phase``
    each stage applied at time t is the matrix D(t) U D(t)^+, built from an
    outer product of the diagonal D(t) with its conjugate.
    """
    stages = list(_STAGES)
    if mode == "instantaneous":
        return stages, [np.ones(DIM), np.ones(DIM)]
    p1, p2 = np.exp(-1j * np.multiply.outer(tuple(delays), energies.values))
    if mode == "natural-phase":
        d2 = p1 * p2
        stages[1] = np.multiply.outer(p1, p1.conj()) * stages[1]
        stages[2] = np.multiply.outer(d2, d2.conj()) * stages[2]
    return stages, [p1, p2]


def dressed_run(mode, delays, energies) -> np.ndarray:
    """Reference: a run's final amplitudes from the dressed stage matrices."""
    stages, phases = dressed_stages(mode, delays, energies)
    psi = phases[0] * stages[0][:, 0]
    psi = stages[1] @ psi
    psi = phases[1] * psi
    return stages[2] @ psi


def loop_trace(mode, delays, energies) -> dict:
    """Reference path terms by a triple loop over the dressed stage matrices' columns.

    Maps each final state to its (states, phase, magnitude) triples, ordered
    by (s1, s2, s3).
    """
    stages, phases = dressed_stages(mode, delays, energies)
    terms = {}
    start = 0
    u1, u2, u3 = stages
    for s1 in np.flatnonzero(np.abs(u1[:, start]) > 1e-15):
        amp1 = u1[s1, start] * phases[0][s1]
        for s2 in np.flatnonzero(np.abs(u2[:, s1]) > 1e-15):
            amp2 = amp1 * u2[s2, s1] * phases[1][s2]
            for s3 in np.flatnonzero(np.abs(u3[:, s2]) > 1e-15):
                amp3 = amp2 * u3[s3, s2]
                terms.setdefault(int(s3), []).append(
                    ((start, int(s1), int(s2), int(s3)), float(np.angle(amp3)), float(np.abs(amp3)))
                )
    return terms


@contextlib.contextmanager
def warnings_are_errors(error_state: str = "warn"):
    """numpy's overflow, invalid and divide errors set to ``error_state``; any
    warning raised inside is an error."""
    with np.errstate(over=error_state, invalid=error_state, divide=error_state):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield


def random_system(rng: np.random.Generator, n_spins: int) -> SpinSystem:
    larmor = rng.uniform(20.0, 200.0, size=n_spins)
    j = rng.uniform(-5.0, 5.0, size=(n_spins, n_spins))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return SpinSystem(n_spins, larmor, j)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture
def gate_system() -> SpinSystem:
    """Two spins, well-separated frequencies, Ising constant 5."""
    return SpinSystem(2, [500.0, 100.0], [[0.0, 5.0], [5.0, 0.0]])


@pytest.fixture
def gate_pulse() -> PulseSpec:
    """Pi-pulse on the target conditioned on the control being excited."""
    return PulseSpec(carrier=95.0, phase=0.0, rabi=[0.5, 0.1], duration=np.pi / 0.1)


@pytest.fixture
def ensemble_system() -> SpinSystem:
    """Four spins on a 100-spaced frequency ladder, uniform coupling 10."""
    return SpinSystem.uniform([100.0, 200.0, 300.0, 400.0], 10.0)
