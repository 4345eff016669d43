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
as read-only constants, and no run copies them: ``natural-phase`` applies a
stage at time t to the state as D(t) U D(t)^+, two diagonal multiplies
around the stage's matrix.  ``run_shor(..., trace=True)`` also returns
every final amplitude split into its path terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ConfigurationError,
    QuantumState,
    SpinSystem,
    _checked,
    _numeric,
    _real,
    finite_reals,
    max_abs,
    require_finite,
)

N_QUBITS = 4
DIM = 16
X_VALUES = 4

MODES = ("instantaneous", "bare-delay", "natural-phase")

#: the circuit's base and modulus: y = 3^x mod 4, and the factor is read off 4
_BASE = 3
_MODULUS = 4
#: an x carries support in a measured distribution above this probability,
#: and ``sample_x`` draws from probabilities on a grid of this spacing
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
    def from_xy_table(cls, table) -> "EnergyTable":
        """Table given as rows over x, columns over y."""
        if np.shape(table) != (X_VALUES, X_VALUES):
            raise ConfigurationError("x/y energy table must be 4x4")
        return cls([value for row in table for value in row])

    @classmethod
    def from_spin_system(cls, system: SpinSystem) -> "EnergyTable":
        """Energies of a physical four-spin register.

        ``system.energies`` are 16 finite, read-only values already, so the
        table holds them without a second check.
        """
        if system.n_spins != N_QUBITS:
            raise ConfigurationError("energy table derivation needs a 4-spin system")
        table = object.__new__(cls)
        object.__setattr__(table, "values", system.energies)
        return table


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


class PathTerm(NamedTuple):
    """One interfering contribution to a final amplitude (immutable).

    ``states`` lists the basis index occupied after each stage (initial,
    post-superposition, post-oracle, post-transform); ``phase`` and
    ``magnitude`` give the accumulated contribution magnitude * e^{i phase}.
    """

    states: tuple[int, int, int, int]
    phase: float
    magnitude: float


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
        """The coherent sum of the final state's path terms, magnitude * e^{i phase}."""
        return complex(sum(t.magnitude * np.exp(1j * t.phase) for t in self.terms.get(index, ())))


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


def _delay_phases(
    mode: str, delays: tuple[float, float], energies: EnergyTable | None
) -> tuple[tuple[float, float], np.ndarray, np.ndarray]:
    """The delays as Python floats and the phase diagonals p1, p2 after stages 1 and 2.

    The diagonals are exp(-i E tau) for the delays of ``bare-delay`` and
    ``natural-phase`` and ones for ``instantaneous``.  Raises
    ConfigurationError naming ``delays`` if one is not a number, and if a
    delay phase overflows double precision, checked in Python floats first.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; choose one of {MODES}")
    tau1, tau2 = delays = tuple(_checked("delays", _real, tau) for tau in delays)
    if not (0 <= tau1 < math.inf and 0 <= tau2 < math.inf):
        raise ConfigurationError(f"delays must be finite and >= 0 (got {tau1}, {tau2})")
    if mode == "instantaneous":
        ones = np.ones(DIM)
        return delays, ones, ones
    if energies is None:
        raise ConfigurationError(f"mode {mode!r} requires an energy table")
    # max(tau) max|E| bounds every angle tau E
    require_finite(max(tau1, tau2) * max_abs(energies.values), "delay phases")
    p1, p2 = np.exp(-1j * np.multiply.outer(delays, energies.values))
    return delays, p1, p2


def run_shor(
    mode: str = "instantaneous",
    delays: tuple[float, float] = (0.0, 0.0),
    energies: EnergyTable | None = None,
    trace: bool = False,
) -> ShorRun:
    """Run the three-stage pipeline from |00,00> in the given timing mode.

    Returns the final state, the exact measurement distribution over x
    (marginal over y), and with ``trace=True`` the path-term decomposition
    (``ShorTrace``) of the stages and phases the run has just applied.
    Raises ConfigurationError if delays x energies overflow double precision.
    """
    delays, p1, p2 = _delay_phases(mode, delays, energies)
    u1, u2, u3 = _STAGES
    psi = p1 * u1[:, 0]  # stage 1 applied to |00,00>
    if mode == "natural-phase":
        # stages 2 and 3 act at tau1 and tau1 + tau2 as D U D^+, with the
        # free-evolution diagonals D = p1 and p1 p2 applied to the state
        dressing = d2, d3 = p1, p1 * p2
        psi = p2 * (d2 * (u2 @ (d2.conj() * psi)))
        psi = d3 * (u3 @ (d3.conj() * psi))
    else:
        dressing = None
        psi = u3 @ (p2 * (u2 @ psi))
    final = QuantumState(psi, check=False)
    return ShorRun(
        mode=mode,
        delays=delays,
        final_state=final,
        x_distribution=final.probabilities.reshape(X_VALUES, 4).sum(axis=1),
        trace=_gather_paths((p1, p2), dressing) if trace else None,
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


def _path_constants():
    """What every traced run reads off ``_PATHS`` (read-only).

    Returns the undressed entries u1[s1, 0], u2[s2, s1] and u3[s3, s2] of
    each path, in path order; the permutation that groups the paths by final
    state, in order of first appearance and in path order within a group;
    each path's ``states`` tuple in that grouped order; and each group as
    (final state, first, end) positions in it.
    """
    u1, u2, u3 = _STAGES
    s1, s2, s3 = _PATHS
    groups: dict[int, list[int]] = {}
    for path, final in enumerate(s3.tolist()):
        groups.setdefault(final, []).append(path)
    by_final = np.concatenate(list(groups.values()))
    states = tuple((0, *path) for path in zip(*(s[by_final].tolist() for s in _PATHS)))
    ends = np.cumsum([len(paths) for paths in groups.values()]).tolist()
    return (
        _read_only(u1[s1, 0], u2[s2, s1], u3[s3, s2]),
        *_read_only(by_final),
        states,
        tuple(zip(groups, [0, *ends], ends)),
    )


_PATH_ENTRIES, _BY_FINAL, _PATH_STATES, _PATH_GROUPS = _path_constants()


def _gather_paths(
    phases: tuple[np.ndarray, np.ndarray], dressing: tuple[np.ndarray, np.ndarray] | None
) -> ShorTrace:
    """Path terms from |00,00> through the stages, along ``_PATHS``.

    A path's amplitude is u1[s1, 0] p1[s1] u2[s2, s1] p2[s2] u3[s3, s2],
    multiplied left to right; its terms come out ordered by (s1, s2, s3).
    With ``dressing`` = (d2, d3), the diagonals D of stages 2 and 3, each
    entry u[s', s] is dressed as (d[s'] conj(d[s])) u[s', s], the entry of
    D U D^+.  The path constants are built at import, so a run only
    multiplies the phases in and makes the terms.
    """
    s1, s2, s3 = _PATHS
    e1, e2, e3 = _PATH_ENTRIES
    if dressing is not None:
        d2, d3 = dressing
        e2 = (d2[s2] * d2.conj()[s1]) * e2
        e3 = (d3[s3] * d3.conj()[s2]) * e3
    amp = (e1 * phases[0][s1] * e2 * phases[1][s2] * e3)[_BY_FINAL]
    # np.angle is arctan2(imag, real)
    angles = np.arctan2(amp.imag, amp.real).tolist()
    terms = tuple(map(PathTerm, _PATH_STATES, angles, np.abs(amp).tolist()))
    return ShorTrace(terms={final: terms[first:end] for final, first, end in _PATH_GROUPS})


def extract_period(distribution) -> PeriodResult:
    """Read the function period and a factor off the measured x distribution.

    Takes the smallest nonzero x with nonzero probability as x2, sets
    T = D / x2 with D the number of x values, computes z = 3^(T/2), and
    returns GCD(z - 1, 4) as the factor.  An x has nonzero probability above
    1e-12.  A distribution confined to
    x = 0 (or yielding a fractional period) carries no period information
    and raises PeriodExtractionError.
    """
    probs = _checked("distribution", _numeric, distribution)
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
    """Draw x-measurement counts from an exact distribution (demo output).

    The normalized probabilities are snapped to multiples of 1e-12, the
    support threshold of ``extract_period``, and normalized again before
    the draw, so a seeded sample does not turn on the last bits that
    rounding moves.
    """
    probs = _checked("distribution", _numeric, distribution)
    grid = np.rint(probs / probs.sum() / _SUPPORT_TOL)
    counts = np.random.default_rng(seed).multinomial(shots, grid / grid.sum())
    return {x: int(c) for x, c in enumerate(counts) if c}
