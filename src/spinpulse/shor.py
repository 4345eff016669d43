"""Four-qubit period-finding pipeline with explicit phase bookkeeping.

The pipeline factors 4 with base 3: two qubits hold the argument x, two hold
y = 3^x mod 4, basis ordering |m1 m0, n1 n0> with x = 2 m1 + m0 and
y = 2 n1 + n0 (so basis index = 4x + y).  Three unitary stages act in order:

1. equal superposition over x (Hadamard pair on the x register),
2. modular-exponentiation oracle |x, y> -> |x, y + 3^x mod 4>,
3. discrete Fourier transform over the x register.

Three timing modes expose how free-evolution phases interact with the
interference the last stage relies on:

* ``instantaneous`` — the textbook sequence, no time elapses.
* ``bare-delay`` — each stage is instantaneous but a free evolution of
  duration tau_1 (after stage 1) and tau_2 (after stage 2) multiplies every
  amplitude by exp(-i E tau) of the state it occupies *at that moment*.
  Amplitudes reaching the same final state along different paths then carry
  different phase histories ("phase memory") and the interference pattern
  is destroyed.
* ``natural-phase`` — same delays, but each stage applied at absolute time
  t is dressed in the interaction picture: the matrix element from |k> to
  |n> acquires exp(-i (E_n - E_k) t).  Every generated amplitude then
  carries the phase it would have accumulated had it existed from t = 0, so
  the measured x distribution is delay independent.  This is exactly the
  phase structure a resonant pulse imprints automatically.

The circuit is the paper's one: base 3, modulus 4, forward transform.  Its
three stage matrices and the paths through them are built once, at import,
as read-only constants; a run dresses copies of them.  ``run_shor(...,
trace=True)`` also returns every final amplitude split into its path terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, QuantumState, SpinSystem, finite_reals, require_finite

N_QUBITS = 4
DIM = 16
X_VALUES = 4

MODES = ("instantaneous", "bare-delay", "natural-phase")

#: the circuit's base and modulus: y = 3^x mod 4, and the factor is read off 4
_BASE = 3
_MODULUS = 4
#: an x carries support in a measured distribution above this probability
_SUPPORT_TOL = 1e-12


class PeriodExtractionError(RuntimeError):
    """Raised when a measured distribution carries no usable period."""


def register_index(x: int, y: int) -> int:
    """Basis index of the register state with argument x and value y."""
    if not (0 <= x < X_VALUES and 0 <= y < 4):
        raise ValueError("register values must lie in 0..3")
    return 4 * x + y


def register_values(index: int) -> tuple[int, int]:
    """(x, y) pair encoded by a basis index."""
    if not 0 <= index < DIM:
        raise ValueError(f"basis index {index} out of range")
    return divmod(index, 4)


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """Energy E_xy of each register state, indexed by basis index 4x + y."""

    values: np.ndarray
    source: str = "explicit-config"

    def __post_init__(self):
        try:
            values = finite_reals(self.values)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if values.shape != (DIM,):
            raise ConfigurationError(f"energy table must hold {DIM} values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def energy(self, x: int, y: int) -> float:
        return float(self.values[4 * x + y])

    @classmethod
    def zeros(cls) -> "EnergyTable":
        return cls(np.zeros(DIM), source="explicit-config")

    @classmethod
    def from_xy_table(cls, table) -> "EnergyTable":
        """Table given as rows over x, columns over y."""
        if np.shape(table) != (X_VALUES, X_VALUES):
            raise ConfigurationError("x/y energy table must be 4x4")
        return cls([value for row in table for value in row], source="explicit-config")

    @classmethod
    def from_spin_system(cls, system: SpinSystem) -> "EnergyTable":
        """Energies of a physical four-spin register."""
        if system.n_spins != N_QUBITS:
            raise ConfigurationError("energy table derivation needs a 4-spin system")
        return cls(system.energies, source="derived-from-spin-system")


# ---------------------------------------------------------------------------
# stage unitaries
# ---------------------------------------------------------------------------


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _build_stages() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three stages of the module docstring, in order (complex, read-only).

    The transform is |x> -> (1/2) sum_k e^{2 pi i k x / 4} |k> over the x register.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    # column 4x + y of the permutation is the basis vector of its image
    images = [4 * x + (y + _BASE**x) % _MODULUS for x in range(X_VALUES) for y in range(4)]
    k = np.arange(X_VALUES)
    f = 0.5 * np.exp(2j * np.pi * np.outer(k, k) / X_VALUES)
    stages = (np.kron(np.kron(h, h), np.eye(4)), np.eye(DIM)[:, images], np.kron(f, np.eye(4)))
    return _read_only(*(u.astype(complex) for u in stages))


_STAGES = _build_stages()


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathTerm:
    """One interfering contribution to a final amplitude.

    ``states`` lists the basis index occupied after each stage (initial,
    post-superposition, post-oracle, post-transform); ``phase`` and
    ``magnitude`` give the accumulated contribution magnitude * e^{i phase}.
    """

    states: tuple[int, int, int, int]
    phase: float
    magnitude: float

    @property
    def contribution(self) -> complex:
        return self.magnitude * np.exp(1j * self.phase)


@dataclass(frozen=True)
class ShorTrace:
    """Per-final-state decomposition of amplitudes into path terms.

    A path is the sequence of basis states occupied after each stage; its
    contribution is the product of the traversed matrix elements and the
    phase factors collected during the delays.  The coherent sum of a
    state's terms reproduces that state's final amplitude, which is how the
    delay phases record the history of each term's origination.
    """

    terms: dict[int, tuple[PathTerm, ...]]

    def amplitude(self, index: int) -> complex:
        return complex(sum(t.contribution for t in self.terms.get(index, ())))


@dataclass(frozen=True, eq=False)
class ShorRun:
    """Result of one pipeline run."""

    mode: str
    delays: tuple[float, float]
    final_state: QuantumState
    x_distribution: np.ndarray
    trace: ShorTrace | None = None


@dataclass(frozen=True)
class PeriodResult:
    period: int
    factor: int
    x_measured: int
    note: str | None = None


def _stage_matrices(
    mode: str, delays: tuple[float, float], energies: EnergyTable | None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Stage unitaries and the inter-stage phase diagonals for a mode.

    Returns (stages, phases) with stages = [U1, U2, U3] applied in order and
    phases = [p1, p2] diagonal factors applied after stages 1 and 2.  Raises
    ConfigurationError if a delay phase overflows double precision.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; choose one of {MODES}")
    tau1, tau2 = delays
    if not (0 <= tau1 < math.inf and 0 <= tau2 < math.inf):
        raise ConfigurationError(f"delays must be finite and >= 0 (got {tau1}, {tau2})")
    # the stages are read-only; dressing below builds new arrays
    stages = list(_STAGES)
    if mode == "instantaneous":
        ones = np.ones(DIM)
        return stages, [ones, ones]
    if energies is None:
        raise ConfigurationError(f"mode {mode!r} requires an energy table")
    with np.errstate(over="ignore"):
        angles = np.multiply.outer((tau1, tau2), energies.values)
    p1, p2 = np.exp(-1j * require_finite(angles, "delay phases"))
    if mode == "natural-phase":
        # dress each stage at its application time: U -> D(t) U D(t)^+
        d2 = p1 * p2
        stages[1] = np.multiply.outer(p1, p1.conj()) * stages[1]
        stages[2] = np.multiply.outer(d2, d2.conj()) * stages[2]
    return stages, [p1, p2]


def run_shor(
    mode: str = "instantaneous",
    delays: tuple[float, float] = (0.0, 0.0),
    energies: EnergyTable | None = None,
    trace: bool = False,
) -> ShorRun:
    """Run the three-stage pipeline from |00,00> in the given timing mode.

    Returns the final state, the exact measurement distribution over x
    (marginal over y), and with ``trace=True`` the path-term decomposition
    (``ShorTrace``) of the matrices the run has just applied.  Raises
    ConfigurationError if delays x energies overflow double precision.
    """
    stages, phases = _stage_matrices(mode, delays, energies)
    psi = phases[0] * stages[0][:, 0]  # stage 1 applied to |00,00>
    psi = stages[1] @ psi
    psi = phases[1] * psi
    psi = stages[2] @ psi
    final = QuantumState(psi, check=False)
    return ShorRun(
        mode=mode,
        delays=(float(delays[0]), float(delays[1])),
        final_state=final,
        x_distribution=final.probabilities.reshape(X_VALUES, 4).sum(axis=1),
        trace=_gather_paths(stages, phases) if trace else None,
    )


def _path_topology(u1, u2, u3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states (s1, s2, s3) every path from |00,00> occupies (read-only).

    Each stage keeps the paths in order and expands every one into the
    nonzero entries of its current state's column, in increasing order, so
    the paths come out ordered by (s1, s2, s3).  Every mode runs the same
    three stages, and dressing and delays only multiply their entries by
    unit-modulus phases, so the paths read off ``_STAGES`` are the paths of
    every run.
    """
    s1 = np.flatnonzero(np.abs(u1[:, 0]) > 1e-15)
    # rows of u[:, s].T are the columns of the paths' current states, in path order
    path, s2 = np.nonzero(np.abs(u2[:, s1].T) > 1e-15)
    s1 = s1[path]
    path, s3 = np.nonzero(np.abs(u3[:, s2].T) > 1e-15)
    return _read_only(s1[path], s2[path], s3)


_PATHS = _path_topology(*_STAGES)


def _gather_paths(stages: list[np.ndarray], phases: list[np.ndarray]) -> ShorTrace:
    """Path terms from |00,00> through the stage matrices, along ``_PATHS``.

    A path's amplitude is u1[s1, 0] p1[s1] u2[s2, s1] p2[s2] u3[s3, s2],
    multiplied left to right; its terms come out ordered by (s1, s2, s3).
    """
    u1, u2, u3 = stages
    s1, s2, s3 = _PATHS
    amp = u1[s1, 0] * phases[0][s1] * u2[s2, s1] * phases[1][s2] * u3[s3, s2]
    terms: dict[int, list[PathTerm]] = {}
    for states, phase, magnitude in zip(
        zip(s1.tolist(), s2.tolist(), s3.tolist()),
        np.angle(amp).tolist(),
        np.abs(amp).tolist(),
    ):
        terms.setdefault(states[2], []).append(PathTerm((0, *states), phase, magnitude))
    return ShorTrace(terms={k: tuple(v) for k, v in terms.items()})


def extract_period(distribution) -> PeriodResult:
    """Read the function period and a factor off the measured x distribution.

    Takes the smallest nonzero x with nonzero probability as x2, sets
    T = D / x2 with D the number of x values, computes z = 3^(T/2), and
    returns GCD(z - 1, 4) as the factor.  An x has nonzero probability above
    1e-12.  A distribution confined to
    x = 0 (or yielding a fractional period) carries no period information
    and raises PeriodExtractionError.
    """
    probs = np.asarray(distribution, dtype=float)
    if probs.shape != (X_VALUES,):
        raise ValueError(f"distribution must have {X_VALUES} entries")
    values = probs.tolist()
    if not abs(sum(values) - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError("distribution must be normalized")
    x2 = next((x for x in range(1, X_VALUES) if values[x] > _SUPPORT_TOL), None)
    if x2 is None:
        raise PeriodExtractionError("no support on x > 0: no period information")
    if X_VALUES % x2 != 0:
        raise PeriodExtractionError(f"x = {x2} implies a fractional period {X_VALUES}/{x2}")
    period = X_VALUES // x2  # x2 is 1 or 2, so the period is even
    z = _BASE ** (period // 2)
    factor = math.gcd(z - 1, _MODULUS)
    note = None
    if factor in (1, _MODULUS):
        note = f"gcd({z} - 1, {_MODULUS}) = {factor} is not a proper factor"
    return PeriodResult(period=period, factor=factor, x_measured=x2, note=note)


def sample_x(
    distribution, shots: int, seed: int | None = None
) -> dict[int, int]:
    """Draw x-measurement counts from an exact distribution (demo output)."""
    probs = np.asarray(distribution, dtype=float)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return {x: int(c) for x, c in enumerate(counts) if c}
