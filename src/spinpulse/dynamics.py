"""Pure-state evolution under resonant pulses and free-evolution delays.

Three routes are provided and cross-checked against each other:

* ``evolve_pulse`` — exact: transform to the frame rotating with the pulse
  carrier, exponentiate the time-independent rotating-frame Hamiltonian by
  Hermitian eigendecomposition, transform back to the lab frame.  Because
  the drive is circularly polarized the frame transformation is exact, not
  a rotating-wave approximation.  The drive's phase is a turn about the
  total I^z axis, so it joins the carrier's turn in the frame and the
  eigensolve is of the real symmetric phase-zero Hamiltonian.
  ``evolve_pulse`` applies the factors (the frame diagonals, the
  eigenvectors and the eigenphases) to the state and never forms the
  propagator; ``pulse_propagator`` forms it from the same checked factors.
  Their overflow checks are made in Python floats before numpy computes
  anything, so they need no numpy error state: one bound from the carrier,
  the largest |E| and the two frame angles before the eigensolve, and the
  two ends of the sorted eigenvalues times the duration after it.
  ``pulse_states`` evolves one start state through phase-zero pulses at
  t = 0 on a stack of systems, under drive settings broadcast over it, from
  the same factor builder with one stacked eigensolve and one frame
  diagonal per system; it applies the factors through the helper
  ``evolve_pulse`` uses, so a stack of one is, bit for bit, that pulse.
  Every route builds its Hamiltonians with ``model.rotating_hamiltonian``.
* ``integrate_lab_frame`` — independent oracle: fixed-step fourth-order
  Magnus integration of the explicitly time-dependent lab-frame Schrodinger
  equation.  H(t) enters only through one ``lab_hamiltonian`` call at the
  first step's two Gauss nodes.  The drive only turns H(t) about the total
  I^z axis, so every step is the first step turned by the carrier's
  rotation, and the steps of a pulse multiply out to one matrix power of
  that step, with a diagonal phase on the left.  The step's exponential is
  a Taylor sum evaluated by Paterson-Stockmeyer, and the power is applied
  by binary powering to its operand: the identity for
  ``lab_frame_propagator``, the state for ``integrate_lab_frame``.  The
  result is the same Magnus-4 as a step-by-step loop.  That covariance is
  the only assumption the oracle shares with the exact route, and it is
  tested, not assumed.  The power's rounding grows with its step count, so
  one cap, ``MAX_STEPS``, bounds the steps of the whole pulse.
* ``analytic_two_level`` — closed-form resonant solution for one driven
  pair of levels.

Absolute-time bookkeeping: lab-frame amplitudes carry the free-evolution
phases exp(-i E_n t), so every evolution function accepts the absolute
start time ``t_start`` and the sequence driver ``apply_sequence`` advances
a global clock.  A delay is a ``DelaySpec`` event of that driver, which
multiplies the amplitudes by ``free_evolution_phases``.  States themselves
stay pure value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    _checked,
    _finite_complex,
    _free_phases,
    _non_negative_real,
    _norm_drift,
    _positive_real,
    finite_real,
    finite_reals,
    max_abs,
    require_finite,
    rotating_hamiltonian,
    too_large,
    total_spin_z,
)

#: target | ||psi|| - 1 | for the integrator
INTEGRATOR_NORM_TOL = 1e-6

#: default integrator step = shortest oscillation period / this factor
DEFAULT_STEP_DIVISOR = 200
#: largest admissible step = shortest oscillation period / this factor
MAX_STEP_DIVISOR = 20
#: most integrator steps one pulse may take.  The cost is one matrix power,
#: logarithmic in the count, so the cap does not bound time: it bounds
#: rounding.  The step is unitary to rounding, so a product of n steps
#: drifts by about n x 1e-16: ~1e-6 at the cap, the oracle's own gate, and
#: a unitarity error above 1 at the ~3e15 steps a 1e8-long pulse at a
#: carrier of 1e6 asks for.
MAX_STEPS = 10**10
#: Gauss-Legendre nodes of the Magnus-4 step, as fractions of the step
_GAUSS_NODES = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])
#: highest power of the Taylor sum for the exponential of a step
_TAYLOR_TERMS = 16
#: the Taylor coefficients 1/k! of the step exponential, k = 0 .. _TAYLOR_TERMS
_TAYLOR_COEFFS = np.array([1 / math.factorial(k) for k in range(_TAYLOR_TERMS + 1)])
#: the coefficients as four blocks: row j weights I, A, A^2, A^3 and A^4 in
#: the block of A^(4j); only the last block, of A^12, has an A^4 term (1/16!)
_TAYLOR_BLOCKS = np.zeros((4, 5))
_TAYLOR_BLOCKS[:, :4] = _TAYLOR_COEFFS[:-1].reshape(4, 4)
_TAYLOR_BLOCKS[3, 4] = _TAYLOR_COEFFS[-1]
#: a complex number as its (re, im) pair of floats: viewed with it, a complex
#: (..., dim) array is a real (..., dim, 2) one
_RE_IM = np.dtype((np.float64, 2))
_GAUSS_NODES.setflags(write=False)
_TAYLOR_COEFFS.setflags(write=False)
_TAYLOR_BLOCKS.setflags(write=False)


@dataclass
class EvolutionReport:
    """Outcome of an evolution run: final state, its norm drift, method tag.  With the lab
    integrator the drift is what its pulses accumulated, targeted by ``INTEGRATOR_NORM_TOL``."""

    final_state: QuantumState
    norm_drift: float
    method: str
    elapsed: float = 0.0


@dataclass
class TwoLevelAmplitudes:
    """Amplitudes of a resonantly driven pair at the end of a pulse."""

    c_k: complex
    c_n: complex
    t_start: float
    t_end: float
    e_k: float
    e_n: float
    alpha: float

    @property
    def populations(self) -> tuple[float, float]:
        return abs(self.c_k) ** 2, abs(self.c_n) ** 2


def _require_dim(state: QuantumState, system: SpinSystem) -> None:
    if len(state) != system.dim:
        raise ConfigurationError(
            f"state has {len(state)} amplitudes, the system's dimension is {system.dim}"
        )


def _require_normalized(state: QuantumState) -> None:
    drift = _norm_drift(state.amplitudes)
    if not drift <= QuantumState.NORM_TOL:  # NaN fails too
        raise ValueError(f"input state is not normalized (|norm - 1| = {drift:.3e})")


def _eigen_factors(energies: np.ndarray, carrier, rabi: np.ndarray, *turns):
    """Lambda, V and the frame diagonals of U = L V exp(-i Lambda tau) V^T R.

    V Lambda V^T is the eigendecomposition of the real symmetric
    rotating-frame Hamiltonian of the phase-zero drive
    (``model.rotating_hamiltonian``); L = exp(+i a1 Z) and R = exp(-i a0 Z)
    are diagonals, with Z the total I^z and the frame angles
    a0 = w t0 + phi and a1 = w (t0 + tau) + phi, t0 = t_start.  One
    diagonal exp(x Z) is returned for each exponent x in ``turns``: i a1
    and -i a0 give L and R; i a1 alone gives L, for a pulse at t0 = 0,
    where R is the identity.  One pulse takes energies (dim,) and numbers;
    n systems energies (n, dim), carriers (n, 1) and exponents (n,), under
    Rabi frequencies (..., n or 1, N), one L per system.  Nothing is checked.
    """
    vals, vecs = np.linalg.eigh(rotating_hamiltonian(energies, carrier, rabi))
    z = total_spin_z(energies.shape[-1].bit_length() - 1)
    # every frame diagonal from one exponential
    return vals, vecs, np.exp(np.multiply.outer(np.array(turns), z))


def _apply_factors(
    vecs: np.ndarray, phases: np.ndarray, left: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    """L V (exp(-i Lambda tau) V^T psi): a pulse's factors applied to psi, U never formed.

    One pulse takes V (dim, dim), a stack V (..., n, dim, dim) and L (n, dim);
    psi is a contiguous complex (dim,), shared by the stack.  Both routes
    apply their factors here, so a stack of one is, bit for bit, the pulse.  Each
    product with the real V is a real product on the (re, im) columns of its
    operand, one BLAS gemm per (dim, dim) x (dim, 2) pair: ``dot`` for one
    pulse, where it costs less per call than ``matmul``, and ``matmul`` for
    a stack; on real operands they round alike.  (A complex product of the
    real V rounds differently in ``dot`` and ``matmul``.)
    """
    product = np.ndarray.dot if vecs.ndim == 2 else np.matmul
    psi = product(vecs.swapaxes(-1, -2), psi.view(_RE_IM))
    psi = (phases[..., None] * psi.view(complex)).view(float)
    return left * product(vecs, psi).view(complex)[..., 0]


def pulse_states(
    amplitudes: np.ndarray,
    energies: np.ndarray,
    carrier: np.ndarray,
    rabi: np.ndarray,
    duration: float,
) -> np.ndarray:
    """Lab-frame states of one start state after phase-zero pulses on a stack of n systems.

    The systems are Ising diagonals ``energies`` (n, dim) and carriers w (n,),
    and the Rabi frequencies ``rabi`` (..., n or 1, N) drive settings, a row
    of 1 shared by every system.  Each state, from the start amplitudes psi
    (dim,), is L V exp(-i Lambda tau) V^T psi from ``_eigen_factors`` at
    a1 = w tau (R is the identity at t = 0; L is built once per system): bit
    for bit the amplitudes of ``evolve_pulse`` at t_start = 0.  No U is formed.

    Returns the amplitudes (..., n, dim).  A system whose energies or carrier
    are not finite is left out of the eigensolve and is NaN in every row; a
    row can also come out non-finite when its phases overflow.  Overflow
    never raises here, whatever numpy's error state, so one pulse cannot stop
    the others: callers check the rows (or what they compute from them).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _pulse_states(amplitudes, energies, carrier, rabi, duration)


def _pulse_states(amplitudes, energies, carrier, rabi, duration: float) -> np.ndarray:
    """``pulse_states`` under its caller's numpy error state, which must let overflow pass."""
    n, dim = energies.shape
    ok = np.isfinite(energies).all(1) & np.isfinite(carrier)
    if not ok.all():
        energies, carrier = energies[ok], carrier[ok]
        rabi = rabi if rabi.shape[-2] == 1 else rabi[..., ok, :]
    turn = 1j * (carrier * duration)
    vals, vecs, (left,) = _eigen_factors(energies, carrier[:, None], rabi, turn)
    psi = np.ascontiguousarray(amplitudes, dtype=complex)
    psi = _apply_factors(vecs, np.exp(vals * (-1j * duration)), left, psi)
    if psi.shape[-2] < n:
        psi_ok, psi = psi, np.full((*psi.shape[:-2], n, dim), np.nan, dtype=complex)
        psi[..., ok, :] = psi_ok
    return psi


def _pulse_factors(
    system: SpinSystem, pulse: PulseSpec, t_start: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """V, exp(-i Lambda tau), L and R of ``_eigen_factors`` for one pulse, checked.

    Both single-pulse routes take their factors from here, so they raise
    together.  The checks are made in Python floats, before numpy touches
    the numbers, so they hold whatever numpy's error state:

    * max(|a1|, |a0|, |w|) max|Z| + max|E| bounds every entry of the
      diagonal E + w Z and every frame angle a Z; if it is finite, none of
      them overflows;
    * after the eigensolve, max(-lambda_0, lambda_last) tau bounds every
      eigenphase, as the eigenvalues come sorted.

    Raises ConfigurationError if ``t_start`` is not a finite number, or if the
    pulse's energies, carrier or propagator leave double precision.
    """
    t_start = _checked("t_start", finite_real, t_start)
    energies = system.energies
    pulse.check_against(system)
    carrier, tau = pulse.carrier, pulse.duration
    a0 = carrier * t_start + pulse.phase
    a1 = carrier * (t_start + tau) + pulse.phase
    z_max = 0.5 * system.n_spins
    what = "pulse energies, carrier or propagator"
    # a1 first: only a1 can be NaN (a zero carrier over an infinite t1), and
    # max keeps a NaN first argument
    require_finite(max(abs(a1), abs(a0), abs(carrier)) * z_max + max_abs(energies), what)
    vals, vecs, (left, right) = _eigen_factors(energies, carrier, pulse.rabi, 1j * a1, -1j * a0)
    low, high = float(vals[0]), float(vals[-1])
    require_finite(max(-low, high) * tau if low <= high else math.nan, what)
    return vecs, np.exp(vals * (-1j * tau)), left, right


def pulse_propagator(system: SpinSystem, pulse: PulseSpec, t_start: float = 0.0) -> np.ndarray:
    """Exact lab-frame propagator of one pulse starting at absolute time t_start.

    U = exp(+i (w t1 + phi) Z) exp(-i H_rot tau) exp(-i (w t0 + phi) Z) with
    Z the total I^z, H_rot the real symmetric rotating-frame Hamiltonian of
    the phase-zero drive and t1 = t_start + duration, formed from the
    checked factors ``evolve_pulse`` applies.  Raises ConfigurationError if
    ``t_start``, the energies, the carrier or a factor of U are not finite.
    """
    vecs, phases, left, right = _pulse_factors(system, pulse, t_start)
    return left[:, None] * (vecs * phases).dot(vecs.T) * right


def evolve_pulse(
    state: QuantumState, system: SpinSystem, pulse: PulseSpec, t_start: float = 0.0
) -> QuantumState:
    """Evolve a lab-frame state through one pulse (exact rotating-frame route).

    The returned amplitudes are lab-frame amplitudes at absolute time
    ``t_start + pulse.duration``: states untouched by the drive keep
    accumulating their free-evolution phases exp(-i E_n t), and newly driven
    states acquire the same phases automatically.  The factors of
    ``pulse_propagator``'s U are applied to the state one by one, so U is
    never formed; the factors and their check are the same, so it raises
    the same ConfigurationError.
    """
    _require_dim(state, system)
    _require_normalized(state)
    vecs, phases, left, right = _pulse_factors(system, pulse, t_start)
    return QuantumState(_apply_factors(vecs, phases, left, right * state.amplitudes), check=False)


def free_evolution_phases(system: SpinSystem, t: float) -> np.ndarray:
    """The phase factors exp(-i E_n t) of free evolution for a time t.

    Raises ConfigurationError naming ``t`` if it is not a finite number, and if
    E_n t overflows double precision, checked in Python floats as |t| max|E| first.
    """
    t = _checked("t", finite_real, t)
    energies = system.energies
    require_finite(abs(t) * max_abs(energies), "free-evolution phases")
    return _free_phases(energies, t)


def to_interaction_picture(state: QuantumState, system: SpinSystem, t: float) -> QuantumState:
    """Strip the free-evolution phases exp(-i E_n t) from lab-frame amplitudes.

    Amplitudes in this picture are constant under free evolution, which makes
    them directly comparable against ideal gate actions.  A ``t`` that is
    not a finite number is named in a ConfigurationError.
    """
    _require_dim(state, system)
    t = _checked("t", finite_real, t)
    return QuantumState(free_evolution_phases(system, -t) * state.amplitudes, check=False)


def analytic_two_level(
    c_k_initial: complex,
    e_k: float,
    e_n: float,
    rabi: float,
    phase: float,
    t_start: float,
    duration: float,
    carrier: float | None = None,
) -> TwoLevelAmplitudes:
    """Closed-form resonant evolution of one driven pair of levels.

    Assumes the carrier sits exactly on the transition (omega = E_n - E_k)
    and that the upper amplitude vanishes at the start of the pulse.  With
    alpha = Omega * tau / 2:

        C_k(t1) = exp(-i E_k tau) cos(alpha) C_k(t0)
        C_n(t1) = exp(i (pi/2 - phi)) exp(i (E_k t0 - E_n t1)) sin(alpha) C_k(t0)

    If C_k(t0) came in with its free-evolution phase exp(-i E_k t0), the new
    amplitude leaves with exp(-i E_n t1): the generated state picks up the
    phase it would have had, had it existed from t = 0.  The pi/2 - phi term
    is the standard phase shift of the driven transition; phi = pi/2 removes
    it.  Raises ValueError if the carrier is off the resonance, and
    ConfigurationError naming an argument that is not one finite number
    (complex for ``c_k_initial``, >= 0 for ``duration``), or if the amplitudes overflow.
    """
    c_k_initial = _checked("c_k_initial", _finite_complex, c_k_initial)
    reals = dict(e_k=e_k, e_n=e_n, rabi=rabi, phase=phase, t_start=t_start)
    e_k, e_n, rabi, phase, t_start = (_checked(k, finite_real, v) for k, v in reals.items())
    duration = _checked("duration", _non_negative_real, duration)
    resonance = e_n - e_k  # inf if the difference overflows: every carrier is off it
    if carrier is not None:
        if not abs(_checked("carrier", finite_real, carrier) - resonance) <= 1e-9:
            raise ValueError(
                f"carrier {carrier} is off the {resonance} resonance; "
                "use integrate_lab_frame for detuned drives"
            )
    with np.errstate(over="ignore", invalid="ignore"):
        t_end = t_start + duration
        alpha = 0.5 * rabi * duration
        c_k = np.exp(-1j * e_k * duration) * np.cos(alpha) * c_k_initial
        c_n = (
            np.exp(1j * (np.pi / 2 - phase))
            * np.exp(1j * (e_k * t_start - e_n * t_end))
            * np.sin(alpha)
            * c_k_initial
        )
    require_finite(np.array([c_k, c_n]), "two-level amplitudes")
    return TwoLevelAmplitudes(complex(c_k), complex(c_n), t_start, t_end, e_k, e_n, alpha)


# ---------------------------------------------------------------------------
# lab-frame integrator (independent oracle)
# ---------------------------------------------------------------------------


def lab_hamiltonian(system: SpinSystem, pulse: PulseSpec, t: float | np.ndarray) -> np.ndarray:
    """Instantaneous lab-frame Hamiltonian at absolute time t.

    H(t) = diag(E_n) - sum_k Omega_k [cos(w t + phi) I^x_k
           - sin(w t + phi) I^y_k]; the sign pattern is what a circularly
    polarized field rotating with the carrier produces, and is the model the
    lab-frame integrator steps through.  Returns a complex Hermitian ndarray
    (dim, dim); an array of times of shape (k,) gives the stack (k, dim, dim)
    of the same Hamiltonians.  Raises ConfigurationError naming ``t`` if a time
    is not a finite number, and if the drive angle w t + phi is not finite.
    """
    times = _checked("t", finite_reals, t)
    with np.errstate(over="ignore", invalid="ignore"):
        angle = require_finite(pulse.carrier * times + pulse.phase, "drive angle")
    pulse.check_against(system)
    # the rotating-frame Hamiltonian of a zero carrier, field at angle w t + phi
    return rotating_hamiltonian(system.energies, 0.0, pulse.rabi, angle)


def _power_onto(m: np.ndarray, n: int, y: np.ndarray | None = None) -> np.ndarray:
    """m^n y by binary powering, with y a matrix or a column (m^n if y is None).

    The squares m^(2^k) of the set bits of n multiply into y one by one;
    they are all powers of m, so their order does not matter.  With y a
    column every product but the squarings is a matrix-vector product.
    """
    while True:
        if n & 1:
            y = m if y is None else m.dot(y)
        n >>= 1
        if not n:
            return y
        m = m.dot(m)


def _magnus_propagator(
    system: SpinSystem, pulse: PulseSpec, t0: float, n_steps: int, y: np.ndarray | None = None
) -> np.ndarray:
    """Magnus-4 propagator of i dY/dt = H(t) Y over the pulse, as one matrix power.

    The step over [t0, t0 + h], h = tau / n_steps, is M = exp(A) with
    A = -i h/2 (H1 + H2) - (sqrt(3)/12) h^2 [H2, H1] and H1, H2 the lab
    Hamiltonian at the Gauss nodes t0 + (1/2 -+ sqrt(3)/6) h (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)), both from one
    ``lab_hamiltonian`` call.  The drive only turns H(t) about the total I^z
    axis Z: H(t) = G H(t0) G^dagger with G = exp(i w (t - t0) Z).  So step j
    is G_j M G_j^dagger, G_j = exp(i w j h Z), and the n steps multiply out
    to exp(i w tau Z) (exp(-i w h Z) M)^n, which takes about log2(n)
    squarings.  This is the same Magnus-4 as stepping Y one step at a time,
    up to rounding.

    Returns the propagator applied to ``y`` (dim, k), or the propagator if
    ``y`` is None: a state passed as a column turns the power's products by
    the set bits into matrix-vector products.
    """
    h = pulse.duration / n_steps
    h1, h2 = lab_hamiltonian(system, pulse, t0 + _GAUSS_NODES * h)
    dim = len(h1)
    # the stack I, A, A^2, A^3, A^4
    powers = np.zeros((5, dim, dim), dtype=complex)
    powers.reshape(5, -1)[0, :: dim + 1] = 1.0
    a, a2, a3, a4 = powers[1:]
    # [H2, H1] = K - K^dagger with K = H2 H1, as H1 and H2 are Hermitian
    k = h2.dot(h1)
    np.subtract(-0.5j * h * (h1 + h2), math.sqrt(3) / 12 * h**2 * (k - k.conj().T), out=a)
    np.dot(a, a, out=a2)
    np.dot(a2, a, out=a3)
    np.dot(a2, a2, out=a4)
    # exp(A) summed to A^16/16!.  The power multiplies the step's own rounding
    # by n, and a Taylor sum rounds less than an eigh-built exponential does.
    # ||hH|| <= 2 h w_max <= 4 pi / MAX_STEP_DIVISOR ~ 0.63 (up to four spins),
    # so ||A|| < 0.75 with the commutator, and the first dropped term
    # ||A||^17 / 17! is below 2e-17 at any admissible step.  The sum is
    # evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)): block j
    # sums the terms k = 4j .. 4j + 3 (and the last block A^16) over I, A,
    # A^2, A^3 and A^4, and the blocks run as Horner in A^4, in 6 products
    # where Horner in A takes 15.  The real coefficients times the complex
    # powers are one real product.
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(5, -1).view(float)).view(complex)
    blocks = blocks.reshape(4, dim, dim)
    m = blocks[3]
    for block in blocks[2::-1]:
        m = block + a4.dot(m)
    z = total_spin_z(system.n_spins)
    y = _power_onto(np.exp(-1j * pulse.carrier * h * z)[:, None] * m, n_steps, y)
    return np.exp(1j * pulse.carrier * pulse.duration * z)[:, None] * y


def _lab_steps(
    system: SpinSystem, pulse: PulseSpec, step: float | None, t_start: float = 0.0
) -> int:
    """The oracle's step count for a pulse, after every check on the step and t_start.

    See ``lab_frame_propagator`` for the step rule and the checks.
    """
    pulse.check_against(system)
    t_start = _checked("t_start", finite_real, t_start)
    carrier, tau = abs(pulse.carrier), pulse.duration
    # |w| (|t0| + tau) bounds the drive angle w t + phi and the frame's turn w tau
    require_finite(carrier * (abs(t_start) + tau), "drive angle")
    w_max = max(max_abs(system.energies), carrier) + float(pulse.rabi.max(initial=0))
    # no frequency at all (nothing to resolve) gives an infinite period
    t_min = 2 * math.pi / w_max if w_max else math.inf
    step = t_min / DEFAULT_STEP_DIVISOR if step is None else _checked("step", _positive_real, step)
    max_step = t_min / MAX_STEP_DIVISOR
    if step > max_step:
        raise ValueError(
            f"step {step:.3e} too large: must be <= {max_step:.3e} "
            f"(shortest oscillation period {t_min:.3e} / {MAX_STEP_DIVISOR})"
        )
    # a zero step (the shortest period of an infinite frequency) takes
    # infinitely many; past 2^53 a double no longer counts steps, as when an
    # energy near the double-precision limit makes the step subnormal
    count = tau / step if step else math.inf
    if not count <= 2**53:
        raise too_large(f"{tau:.3e} / {step:.3e} steps")
    n_steps = max(1, math.ceil(count))
    if n_steps > MAX_STEPS:
        raise ConfigurationError(f"{n_steps:.3e} steps, more than MAX_STEPS = {MAX_STEPS:.0e}")
    # the Magnus step forms H2 H1 - (H2 H1)^dagger (entries < 4 dim w_max^2) and h**2
    h = tau / n_steps
    require_finite(4 * system.dim * w_max * w_max + h * h, "Magnus step")
    return n_steps


def lab_frame_propagator(
    system: SpinSystem, pulse: PulseSpec, step: float | None = None, t_start: float = 0.0
) -> np.ndarray:
    """Time-stepped lab-frame propagator of one pulse.

    Fourth-order Magnus steps of length h = tau / ceil(tau / step), each
    built from the lab Hamiltonian of ``lab_hamiltonian`` at its two Gauss
    nodes.  Every step is the first one turned by the carrier's total-I^z
    rotation, so the whole pulse is one matrix power of that step (see
    ``_magnus_propagator``): the same Magnus-4 as stepping one step at a
    time, up to rounding, at a cost logarithmic in the step count.  That
    covariance, H(t) = G H(t0) G^dagger, is the only assumption this route
    shares with the exact rotating-frame one, and it is tested.

    ``step`` must resolve the fastest oscillation: at most (shortest period)
    / 20 (ValueError otherwise), default (shortest period) / 200.  Raises
    ConfigurationError naming a ``step`` or ``t_start`` that is not a finite
    number (the step > 0), if the energies or the Magnus step overflow double
    precision or the step count passes 2^53, if the pulse needs more than
    ``MAX_STEPS`` steps (checked before any step is taken), and if the drive
    angle w t + phi over the pulse is not finite.
    """
    return _magnus_propagator(system, pulse, t_start, _lab_steps(system, pulse, step, t_start))


def integrate_lab_frame(
    state: QuantumState,
    system: SpinSystem,
    pulse: PulseSpec,
    step: float | None = None,
    t_start: float = 0.0,
) -> QuantumState:
    """Evolve a state by direct time-stepping of the lab-frame equation.

    Independent oracle for ``evolve_pulse``: the circularly polarized drive
    makes the rotating-frame treatment exact, so any disagreement is pure
    discretization error of the integrator.  It takes the steps and checks
    of ``lab_frame_propagator``, but applies the pulse's matrix power to the
    state instead of forming it.
    """
    _require_dim(state, system)
    _require_normalized(state)
    n_steps = _lab_steps(system, pulse, step, t_start)
    column = _magnus_propagator(system, pulse, t_start, n_steps, state.amplitudes[:, None])
    return QuantumState(column[:, 0], check=False)


# ---------------------------------------------------------------------------
# sequence driver
# ---------------------------------------------------------------------------


def apply_sequence(
    state: QuantumState,
    system: SpinSystem,
    events: list[PulseSpec | DelaySpec],
    t_start: float = 0.0,
    method: str = "exact-rotating",
    step: float | None = None,
) -> EvolutionReport:
    """Apply pulses and delays in order, advancing the absolute-time clock.

    ``method`` selects the pulse route: "exact-rotating" (default) or
    "lab-integrator", whose integrator takes ``step``.  Delays are always
    applied as exact phase factors.  The start state is checked once, so a
    lab-integrator sequence carries the integrator's drift; each event keeps
    its own checks.  Raises ValueError for an unknown method, a ``step`` with
    "exact-rotating" or an unnormalized start state, and ConfigurationError if
    ``t_start`` is not a finite number or the clock overflows double precision.
    """
    if method not in ("exact-rotating", "lab-integrator"):
        raise ValueError(f"unknown evolution method {method!r}")
    if step is not None and method == "exact-rotating":
        raise ValueError("step is not used with method 'exact-rotating'")
    t = t_start = _checked("t_start", finite_real, t_start)
    _require_dim(state, system)
    _require_normalized(state)
    psi = state.amplitudes
    for event in events:
        if isinstance(event, PulseSpec) and method == "exact-rotating":
            vecs, phases, left, right = _pulse_factors(system, event, t)
            psi = _apply_factors(vecs, phases, left, right * psi)
        elif isinstance(event, PulseSpec):
            n_steps = _lab_steps(system, event, step, t)
            psi = _magnus_propagator(system, event, t, n_steps, psi[:, None])[:, 0]
        elif isinstance(event, DelaySpec):
            psi = free_evolution_phases(system, event.duration) * psi
        else:
            raise TypeError(f"events must be PulseSpec or DelaySpec, got {type(event)!r}")
        t += event.duration
    return EvolutionReport(
        final_state=QuantumState(psi, check=False),
        norm_drift=_norm_drift(psi),
        method=method,
        elapsed=require_finite(t - t_start, "sequence clock"),
    )
