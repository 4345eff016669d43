"""Spin systems, pulses, and Hamiltonian constructors.

Physical model: N spin-1/2 qubits with Larmor frequencies omega_k and Ising
couplings J_kn, driven by one circularly polarized resonant pulse at a time.
Units are dimensionless angular frequencies with hbar = 1.

Conventions (fixed throughout the package):

* ``|0>`` is the ground state and corresponds to I^z = +1/2 in the
  ``-omega_k * I^z_k`` Zeeman term.  With this sign the transition frequency
  of a target spin shifts by +J per ground-state neighbour and -J per
  excited neighbour, so a carrier at ``omega_target - J`` drives the target
  exactly when a single coupled control spin is excited.
* Basis index: the leftmost qubit in ket notation is the most significant
  bit, e.g. ``|psij> -> n = j + 2i + 4s + 8p`` for four spins.
* Each Ising bond contributes ``-2 J_kn I^z_k I^z_n`` to the Hamiltonian
  once in total, which reproduces the omega +/- J doublet splitting.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import reprlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a system, pulse, or config document is inconsistent.

    ``problems`` lists what is wrong, one ``<field>: <problem>`` each for a
    JSON document; the message is ``"; ".join(problems)``.
    """

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def too_large(what: str) -> ConfigurationError:
    """The ConfigurationError for numbers that leave double precision; ``what`` names them."""
    return ConfigurationError(f"values too large for double precision ({what})")


def require_finite(values, what: str):
    """``values`` if every one is finite; raises ``too_large(f"{what} not finite")`` otherwise.

    A scalar is best computed in Python floats, where an overflow is inf with
    no numpy warning; a Python float is checked with math.isfinite, which is
    faster than numpy on one number.
    """
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise too_large(f"{what} not finite")
    return values


def max_abs(values: np.ndarray) -> float:
    """The largest |value| of a few numbers as a Python float, for bounds checked without numpy."""
    return max(map(abs, values.tolist()))


# ---------------------------------------------------------------------------
# fields of JSON documents: converters take a JSON value and return the field's
# value or raise ValueError; bools and strings are not numbers
# ---------------------------------------------------------------------------


def _real(value) -> float:
    """A number as a float; raises ValueError for a bool, a string, a complex
    number or an int too large for a double."""
    if type(value) is float:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def finite_real(value, low: float = -math.inf, above: bool = False) -> float:
    """A finite number >= low (> low if ``above``); raises ValueError otherwise."""
    value = _real(value)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    if value < low or above and value == low:
        raise ValueError(f"must be {'>' if above else '>='} {low:g}")
    return value


def integer(value, low: int = 0, high: int = 2**63 - 1) -> int:
    """An integer from low to high; a fraction, bool or string is rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {reprlib.repr(value)}")
    if not low <= value <= high:
        raise ValueError(f"must be an integer from {low} to {high}")
    return int(value)


# the named converters that config tables and library arguments share:
# an integer >= 1 (k, n), a finite real >= 0 (a delay) and a finite real > 0
_positive_int = functools.partial(integer, low=1)
_non_negative_real = functools.partial(finite_real, low=0.0)
_positive_real = functools.partial(finite_real, low=0.0, above=True)


def _holds_bool(value, depth: int) -> bool:
    """Whether the entries ``depth`` levels into nested sequences include a bool."""
    while depth > 1:
        value, depth = [x for row in value for x in row], depth - 1
    return depth > 0 and not {bool, np.bool_}.isdisjoint(map(type, value))


def _numeric(value, dtype: type = float) -> np.ndarray:
    """Numbers only (no bool), as a float or complex array: ``value`` itself if it is one."""
    arr = np.asarray(value)
    kinds = "iufc" if dtype is complex else "iuf"
    # an array holds no bool where its kind is a number's; a list may, among floats
    if arr.dtype.kind not in kinds or arr is not value and _holds_bool(value, arr.ndim):
        raise ValueError(f"expected numeric value(s), got {reprlib.repr(value)}")
    return arr.astype(dtype, copy=False)


#: ``_numeric`` where complex numbers belong: amplitudes and density matrices
_complex_numeric = functools.partial(_numeric, dtype=complex)


def finite_reals(value, dtype: type = float) -> np.ndarray:
    """A new finite ``dtype`` array of any shape, of numbers only; raises ValueError otherwise."""
    arr = np.array(_numeric(value, dtype))
    if not np.isfinite(arr).all():
        raise ValueError("must be finite")
    return arr


#: ``finite_reals`` where complex numbers belong
_finite_complexes = functools.partial(finite_reals, dtype=complex)


def _finite_complex(value) -> np.ndarray:
    """One finite number, complex allowed, as a 0-d complex array; raises ValueError otherwise."""
    if np.ndim(value):
        raise ValueError(f"expected one number, got {reprlib.repr(value)}")
    return _finite_complexes(value)


def _checked(name: str, convert: Callable, value):
    """``convert(value)``; its ValueError becomes a ConfigurationError naming the field."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None


# ---------------------------------------------------------------------------
# basis utilities
# ---------------------------------------------------------------------------

#: the desk-scale Hilbert dimension, which bounds every count that sizes an allocation
MAX_DIM = 16
MAX_SPINS = MAX_DIM.bit_length() - 1  # of a system or basis state: 2^4 = MAX_DIM


@functools.lru_cache(maxsize=8)
def spin_z_values(n_spins: int) -> np.ndarray:
    """(2^N, N) array of I^z eigenvalues: +1/2 for bit 0, -1/2 for bit 1 (read-only, cached)."""
    dim = 2**n_spins
    idx = np.arange(dim)
    bits = (idx[:, None] >> (n_spins - 1 - np.arange(n_spins))[None, :]) & 1
    s = 0.5 - bits.astype(float)
    s.setflags(write=False)
    return s


@functools.lru_cache(maxsize=8)
def total_spin_z(n_spins: int) -> np.ndarray:
    """Diagonal of the total I^z operator over the 2^N basis (read-only, cached)."""
    z = spin_z_values(n_spins).sum(axis=1)
    z.setflags(write=False)
    return z


@functools.lru_cache(maxsize=8)
def _spin_flips(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every single-spin flip of a (2^N, 2^N) matrix (read-only, cached).

    Returns the flat indices of its (ground, excited) and (excited, ground)
    entries, and the flipped spin.
    """
    dim = 2**n_spins
    ground, spin = np.nonzero(spin_z_values(n_spins) > 0)
    excited = ground | (1 << (n_spins - 1 - spin))
    flips = ground * dim + excited, excited * dim + ground, spin
    for a in flips:
        a.setflags(write=False)
    return flips


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """N spins with Larmor frequencies and symmetric Ising couplings.

    ``couplings`` is a full symmetric matrix with zero diagonal; entry
    (k, n) is the Ising constant J_kn shared by spins k and n.  A system is
    immutable: its arrays are read-only copies of the caller's.  A field that
    breaks the JSON reader's rules raises ConfigurationError naming it.
    """

    n_spins: int
    larmor: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        count = functools.partial(integer, low=-math.inf, high=math.inf)  # < 1: refused below
        n_spins = _checked("n_spins", count, self.n_spins)
        if n_spins < 1:
            raise ConfigurationError("n_spins must be a positive integer")
        if n_spins > MAX_SPINS:
            raise ConfigurationError(f"n_spins must be at most {MAX_SPINS}, got {n_spins}")
        object.__setattr__(self, "n_spins", n_spins)
        for name in ("larmor", "couplings"):
            value = np.array(_checked(name, _numeric, getattr(self, name)))
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.larmor.shape != (self.n_spins,):
            raise ConfigurationError(
                f"larmor must have length {self.n_spins}, got shape {self.larmor.shape}"
            )
        if not np.all(np.isfinite(self.larmor)):
            raise ConfigurationError("larmor frequencies must be finite")
        if self.couplings.shape != (self.n_spins, self.n_spins):
            raise ConfigurationError(
                f"couplings must be {self.n_spins}x{self.n_spins}, got {self.couplings.shape}"
            )
        if not np.all(np.isfinite(self.couplings)):
            raise ConfigurationError("couplings must be finite")
        with np.errstate(over="ignore"):  # J_kn - J_nk may overflow: not symmetric
            if not np.allclose(self.couplings, self.couplings.T, atol=1e-12):
                raise ConfigurationError("couplings must be symmetric")
        if not np.allclose(np.diag(self.couplings), 0.0, atol=1e-12):
            raise ConfigurationError("couplings must have zero diagonal")

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @functools.cached_property
    def energies(self) -> np.ndarray:
        """Lab-frame eigenenergies E_n (read-only), computed once, on first use.

        See ``ising_diagonal`` for the formula.  Raises ConfigurationError if
        they overflow double precision.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            energies = ising_diagonal(self.larmor, self.couplings)
        require_finite(energies, "Ising energies")
        energies.setflags(write=False)
        return energies

    @classmethod
    def uniform(cls, larmor: Sequence[float], coupling: float) -> "SpinSystem":
        """System with one Ising constant shared by every spin pair."""
        n = len(larmor)
        j = np.full((n, n), _checked("coupling", _real, coupling))
        np.fill_diagonal(j, 0.0)
        return cls(n, larmor, j)


@dataclass(frozen=True, eq=False)
class PulseSpec:
    """One circularly polarized resonant pulse (immutable; scalars stored as Python floats).

    carrier:  angular frequency of the rotating field
    phase:    field phase phi; phi = 0 imprints the standard +pi/2 phase
              shift on the driven transition, phi = pi/2 removes it
    rabi:     per-spin Rabi frequencies (length must match the system)
    duration: pulse length, strictly positive

    A field that breaks the JSON reader's rule (finite carrier and phase,
    duration > 0, Rabi frequencies >= 0) raises ConfigurationError naming it.
    """

    carrier: float
    phase: float
    rabi: np.ndarray
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "carrier", _checked("carrier", finite_real, self.carrier))
        phase = _checked("phase", finite_real, self.phase)
        object.__setattr__(self, "phase", phase % (2 * np.pi))
        object.__setattr__(self, "duration", _checked("duration", _positive_real, self.duration))
        object.__setattr__(self, "rabi", np.array(_checked("rabi", _numeric, self.rabi)))
        if self.rabi.ndim != 1:
            raise ConfigurationError("rabi must be a 1-d sequence")
        # a pulse drives a few spins: Python floats check them faster than numpy
        if not all(0 <= r < math.inf for r in self.rabi.tolist()):  # NaN fails too
            raise ConfigurationError("rabi frequencies must be finite and >= 0")
        self.rabi.setflags(write=False)

    def check_against(self, system: SpinSystem) -> None:
        if len(self.rabi) != system.n_spins:
            raise ConfigurationError(
                f"pulse defines {len(self.rabi)} Rabi frequencies for a "
                f"{system.n_spins}-spin system"
            )


@dataclass(frozen=True)
class DelaySpec:
    """Free-evolution interval between pulses (duration >= 0, a Python float).

    A duration that is not a finite number >= 0 raises ConfigurationError naming it.
    """

    duration: float

    def __post_init__(self):
        duration = _checked("duration", _non_negative_real, self.duration)
        object.__setattr__(self, "duration", duration)


def _norm(amplitudes: np.ndarray) -> float:
    """||psi|| as a Python float, by np.vdot: inf on overflow, NaN for NaN, no warning."""
    return math.sqrt(np.vdot(amplitudes, amplitudes).real)


def _norm_drift(amplitudes: np.ndarray) -> float:
    """| ||psi|| - 1 |, from ``_norm``."""
    return abs(_norm(amplitudes) - 1.0)


class QuantumState:
    """Normalized amplitude vector over the 2^N basis, of numbers by the JSON reader's rule
    (complex allowed); ``check=False`` trusts its caller on both, taking ownership of the array."""

    __slots__ = ("amplitudes",)

    #: tolerance on | ||psi|| - 1 | of a state that enters a public call
    NORM_TOL = 1e-9

    def __init__(self, amplitudes: Sequence[complex], check: bool = True):
        if check:
            amplitudes = np.array(_checked("amplitudes", _complex_numeric, amplitudes))
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or (amps.size & (amps.size - 1)):
            raise ValueError("amplitudes must be a 1-d vector of length 2^N")
        if check:
            drift = _norm_drift(amps)
            if not drift <= self.NORM_TOL:  # NaN fails too
                raise ValueError(f"state is not normalized (|norm - 1| = {drift:.3e})")
        amps.setflags(write=False)
        self.amplitudes = amps

    @property
    def n_spins(self) -> int:
        return int(np.log2(len(self.amplitudes)))

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __len__(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def basis(cls, n_spins: int, index: int) -> "QuantumState":
        """|index> of up to MAX_SPINS spins; ConfigurationError names an argument out of range."""
        dim = 2 ** _checked("n_spins", functools.partial(integer, high=MAX_SPINS), n_spins)
        amps = np.zeros(dim, dtype=complex)
        amps[_checked("index", functools.partial(integer, high=dim - 1), index)] = 1.0
        return cls(amps)

    def __repr__(self) -> str:
        return f"QuantumState(n_spins={self.n_spins})"


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Overlap fidelity |<a|b>|^2 between two pure states of one size (ValueError otherwise)."""
    if len(a) != len(b):
        raise ValueError(f"states of {len(a)} and {len(b)} amplitudes have no overlap")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# Hamiltonian constructors
# ---------------------------------------------------------------------------


def ising_diagonal(larmor: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """Lab-frame eigenenergies E_n of drive-free Ising Hamiltonians.

    E_n = -sum_k omega_k s_k(n) - 2 sum_{k<m} J_km s_k(n) s_m(n), with
    s = +1/2 for a ground spin and -1/2 for an excited spin.  J is symmetric
    with zero diagonal, so the pair sum is the full quadratic form s J s.
    ``larmor`` (..., N) and ``couplings`` (..., N, N) may carry leading
    batch axes, which broadcast; the result is (..., 2^N).
    """
    s = spin_z_values(np.shape(larmor)[-1])
    return -(larmor @ s.T) - np.einsum("nk,...km,nm->...n", s, couplings, s)


def _free_phases(energies: np.ndarray, t) -> np.ndarray:
    """exp(-i E_n t), unchecked; energies (..., dim) and times t broadcast over stacks."""
    return np.exp(-1j * (energies * t))


def diagonal_energies(system: SpinSystem) -> np.ndarray:
    """Lab-frame eigenenergies E_n of the system's drive-free Ising Hamiltonian.

    These are the energies that drive free-evolution phases exp(-i E_n t):
    ``system.energies``, computed once per system.  Raises
    ConfigurationError if they overflow double precision.
    """
    return system.energies


def rotating_hamiltonian(energies: np.ndarray, carrier, rabi: np.ndarray, angle=None):
    """Rotating-frame Hamiltonians diag(E + omega Z) + e^{ia} R + e^{-ia} R^T.

    Z is the total I^z and R the (ground, excited) half of the drive: it
    holds -Omega_k/2 at (ground, ground with spin k flipped) for every spin
    k.  The drive -sum_k Omega_k [cos(a) I^x_k - sin(a) I^y_k] at field
    angle a is e^{ia} R + e^{-ia} R^T; the angle is the phase phi in the
    rotating frame and w t + phi in the lab frame.  R raises the total I^z
    by one, so e^{ia} R = e^{iaZ} R e^{-iaZ}: the angle is a turn of the
    frame about Z.

    The Rabi frequencies ``rabi`` (..., N) and the field angles ``angle``
    (...) broadcast to the leading batch axes; the Ising diagonals
    ``energies`` (dim,), or a stack (..., dim), and the carrier frequencies
    omega (a number, or (..., 1) for a stack) join them, so each diagonal of
    a stack serves every drive broadcast over it.  Without ``angle`` (a = 0)
    the result is real symmetric (float64), otherwise complex Hermitian.
    Each is built in one fresh buffer, at the flip indices of
    ``_spin_flips``; nothing is checked here.
    """
    dim = energies.shape[-1]
    n_spins = dim.bit_length() - 1
    upper, lower, spin = _spin_flips(n_spins)
    # R + R^T at (ground, excited) and at (excited, ground), flip by flip:
    # -Omega/2 + 0 (the transposes index the last axis without an ellipsis)
    above = below = (-0.5 * rabi + 0.0).T[spin].T
    if angle is not None:
        above = np.exp(1j * np.asarray(angle))[..., None] * above
        below = above.conj()
    batch = above.shape[:-1]
    if energies.ndim > 1:  # a stack: only here, as it costs a single pulse microseconds
        batch = np.broadcast(above[..., 0], energies[..., 0]).shape
    h = np.zeros((*batch, dim * dim), dtype=above.dtype)
    h.T[upper] = above.T
    h.T[lower] = below.T
    h[..., :: dim + 1] += energies + carrier * total_spin_z(n_spins)
    return h.reshape(*batch, dim, dim)


def build_rotating_hamiltonian(system: SpinSystem, pulse: PulseSpec) -> np.ndarray:
    """Effective Hamiltonian in the frame rotating with the pulse carrier.

    H = -sum_k [ (omega_k - omega) I^z_k + Omega_k (cos(phi) I^x_k
        - sin(phi) I^y_k) ] - sum_{k<m} 2 J_km I^z_k I^z_m

    The drive term is time independent here because the lab-frame field is
    circularly polarized; no rotating-wave approximation is involved.  The
    diagonal is E_n + omega * I^z_total; off-diagonal elements connect
    single-spin-flip pairs with value -(Omega_k/2) e^{+i phi} on the
    (ground, excited) side (see ``rotating_hamiltonian``).  Returns a
    complex Hermitian ndarray.  Raises ConfigurationError if the diagonal
    overflows double precision.
    """
    pulse.check_against(system)
    with np.errstate(over="ignore", invalid="ignore"):
        h = rotating_hamiltonian(system.energies, pulse.carrier, pulse.rabi, pulse.phase)
    require_finite(h.diagonal(), "rotating-frame energies")
    return h


def transition_frequency(
    system: SpinSystem, target: int, spectator_state: Mapping[int, int]
) -> float:
    """Resonant frequency for flipping ``target`` with the others held fixed.

    ``spectator_state`` assigns 0 (ground) or 1 (excited) to every spin
    except the target.  Returns E(target excited) - E(target ground), i.e.
    omega_target + 2 sum_m J_tm s_m over the spectator assignment.  Raises
    ConfigurationError if the difference overflows double precision.
    """
    for spin in (target, *spectator_state):
        _require_spin_index(spin)
    if not 0 <= target < system.n_spins:
        raise ConfigurationError(f"target spin {target} out of range")
    expected = set(range(system.n_spins)) - {target}
    if set(spectator_state) != expected:
        missing = sorted(expected - set(spectator_state))
        extra = sorted(set(spectator_state) - expected)
        raise ConfigurationError(
            f"spectator assignment must cover every non-target spin exactly "
            f"(missing {missing}, unexpected {extra})"
        )
    ground = 0
    for spin, bit in spectator_state.items():
        if isinstance(bit, bool) or not isinstance(bit, numbers.Integral) or bit not in (0, 1):
            raise ConfigurationError(f"spectator value for spin {spin} must be 0 or 1")
        ground |= bit << (system.n_spins - 1 - spin)
    return _level_gap(system, ground, ground | (1 << (system.n_spins - 1 - target)))


def _require_spin_index(spin) -> None:
    """Raises ConfigurationError if ``spin`` is not an integer (a float selects no basis bit)."""
    if type(spin) is not int and not isinstance(spin, numbers.Integral):  # int: no ABC check
        raise ConfigurationError(f"spin index {spin!r} is not an integer")


def _level_gap(system: SpinSystem, ground: int, excited: int) -> float:
    """E(excited) - E(ground) for two basis indices, unchecked: the carrier of that flip.

    Raises ConfigurationError if the difference overflows double precision.
    """
    energies = system.energies
    frequency = float(energies[excited]) - float(energies[ground])
    return require_finite(frequency, "transition frequency")


# ---------------------------------------------------------------------------
# JSON documents: one file reader, one field reader, one field table per kind
# ---------------------------------------------------------------------------

#: default of a field that every document of its kind must set
REQUIRED = object()


def read_json(source):
    """The JSON document in a file (a path or an open file); a file that is not UTF-8
    JSON, or is nested too deeply to parse, raises ConfigurationError naming it."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (RecursionError, ValueError) as exc:  # too deep, not JSON, not UTF-8
        raise ConfigurationError(f"{getattr(source, 'name', source)}: {exc}") from None


def read_fields(doc, fields: Mapping[str, tuple[Callable, object]]) -> dict:
    """The fields of a JSON object, each value through its field's converter.

    ``fields`` maps each field name to (converter, default or REQUIRED); an
    absent or null field takes its default.  Raises ConfigurationError with one
    ``<field>: <problem>`` per unknown field, missing required field or
    converter error; a nested document's problems carry its field's name.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"expected a JSON object, got {type(doc).__name__}")
    problems = [f"{name}: unknown field" for name in doc if name not in fields]
    values = {}
    for name, (convert, default) in fields.items():
        value = doc.get(name)
        try:
            if value is not None:
                values[name] = convert(value)
            elif default is REQUIRED:
                problems.append(f"{name}: required field missing")
            else:
                values[name] = default
        except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
            problems += [f"{name}: {problem}" for problem in getattr(exc, "problems", [exc])]
    if problems:
        raise ConfigurationError(*problems)
    return values


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {reprlib.repr(value)}")
    return value


_SYSTEM_FIELDS = {
    "n_spins": (functools.partial(integer, low=1, high=MAX_SPINS), REQUIRED),
    "larmor": (finite_reals, REQUIRED),
    "couplings": (finite_reals, REQUIRED),
}
_PULSE_FIELDS = {
    "carrier": (finite_real, REQUIRED),
    "phase": (finite_real, 0.0),
    "rabi": (finite_reals, REQUIRED),
    "duration": (_positive_real, REQUIRED),
}


def system_from_dict(doc: Mapping) -> SpinSystem:
    """A SpinSystem from a document with n_spins (1 to 4), larmor and couplings."""
    return SpinSystem(**read_fields(doc, _SYSTEM_FIELDS))


def pulse_from_dict(doc: Mapping) -> PulseSpec:
    """A PulseSpec from a document with carrier, phase (default 0), rabi and duration."""
    return PulseSpec(**read_fields(doc, _PULSE_FIELDS))


def load_spin_config(source) -> tuple[SpinSystem, list[PulseSpec]]:
    """Load a system and its pulse list from a JSON document.

    ``source`` may be a path, an open file object, or an already-parsed
    mapping.  Schema: ``{n_spins, larmor[], couplings[][], pulses[]}`` where
    each pulse has ``{carrier, phase, rabi[], duration}``; the document and
    each pulse follow ``read_fields``' rules.
    """
    doc = source if isinstance(source, Mapping) else read_json(source)
    fields = read_fields(doc, {**_SYSTEM_FIELDS, "pulses": (_json_list, ())})
    pulse_docs = fields.pop("pulses")
    system = SpinSystem(**fields)
    pulses = [pulse_from_dict(p) for p in pulse_docs]
    for p in pulses:
        p.check_against(system)
    return system, pulses
