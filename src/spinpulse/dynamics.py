"""Pure-state evolution under resonant pulses and free-evolution delays.

Three routes are provided and cross-checked against each other:

* ``evolve_pulse`` — exact: transform to the frame rotating with the pulse
  carrier, exponentiate the time-independent rotating-frame Hamiltonian by
  Hermitian eigendecomposition, transform back to the lab frame.  Because
  the drive is circularly polarized the frame transformation is exact, not
  a rotating-wave approximation.  ``pulse_propagators`` does this for a
  stack of pulses with one stacked eigensolve; one pulse is a stack of one.
* ``integrate_lab_frame`` — independent oracle: fixed-step RK4 on the
  explicitly time-dependent lab-frame Schrodinger equation.  The RK4 step
  matrices are evaluated in blocks from H(t) at the RK4 nodes and
  tree-multiplied; the result is the same RK4 as a step-by-step loop.
* ``analytic_two_level`` — closed-form resonant solution for one driven
  pair of levels.

Absolute-time bookkeeping: lab-frame amplitudes carry the free-evolution
phases exp(-i E_n t), so every evolution function accepts the absolute
start time ``t_start`` and the sequence driver ``apply_sequence`` advances
a global clock.  States themselves stay pure value objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConfigurationError,
    DelaySpec,
    PulseSpec,
    QuantumState,
    SpinSystem,
    diagonal_energies,
    drive_half,
    rotating_hamiltonian,
    total_spin_z,
)

#: target | ||psi|| - 1 | for the integrator
INTEGRATOR_NORM_TOL = 1e-6

#: default integrator step = shortest oscillation period / this factor
DEFAULT_STEP_DIVISOR = 400
#: largest admissible step = shortest oscillation period / this factor
MAX_STEP_DIVISOR = 20
#: RK4 steps built and multiplied together; bounds the step stacks at a few
#: dozen dim x dim matrices, however long the interval
_RK4_BLOCK = 32


@dataclass
class EvolutionReport:
    """Outcome of an evolution run: final state, norm drift, method tag."""

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


def _require_normalized(state: QuantumState) -> None:
    drift = abs(state.norm - 1.0)
    if drift > QuantumState.NORM_TOL:
        raise ValueError(f"input state is not normalized (|norm - 1| = {drift:.3e})")


def pulse_propagators(
    energies: np.ndarray,
    carrier: np.ndarray,
    drive: np.ndarray,
    duration: float,
    t_start: float = 0.0,
) -> np.ndarray:
    """Exact lab-frame propagators of a stack of n pulses.

    Each is U = exp(+i w t1 Z) exp(-i H_rot tau) exp(-i w t0 Z) with Z the
    total I^z, t0 = t_start, t1 = t_start + duration and H_rot the
    rotating-frame Hamiltonian that ``model.rotating_hamiltonian`` builds
    from the Ising diagonal ``energies`` (n, dim), the carrier w (n,) and
    the drive half ``drive`` (n, dim, dim).  All Hamiltonians go through one
    stacked eigensolve.

    Returns U (n, dim, dim).  A pulse whose energies or carrier are not
    finite is left out of the eigensolve and its U is NaN; a U can also
    come out non-finite when its phases overflow.  Overflow never raises
    here, whatever numpy's error state, so one pulse cannot stop the others:
    callers check the U (or what they compute from it) for finiteness.
    """
    n, dim = energies.shape
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(energies).all(1) & np.isfinite(carrier)
        if not ok.all():
            energies, carrier, drive = energies[ok], carrier[ok], drive[ok]
        vals, vecs = np.linalg.eigh(rotating_hamiltonian(energies, carrier, drive))
        u = (vecs * np.exp(-1j * vals * duration)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
        z = total_spin_z(int(np.log2(dim)))
        u = (
            np.exp(np.multiply.outer(1j * carrier * (t_start + duration), z))[:, :, None]
            * u
            * np.exp(np.multiply.outer(-1j * carrier * t_start, z))[:, None, :]
        )
    if len(u) < n:
        u_ok, u = u, np.full((n, dim, dim), np.nan, dtype=complex)
        u[ok] = u_ok
    return u


def pulse_propagator(system: SpinSystem, pulse: PulseSpec, t_start: float = 0.0) -> np.ndarray:
    """Exact lab-frame propagator of one pulse starting at absolute time t_start.

    U = exp(+i w t1 Z) exp(-i H_rot tau) exp(-i w t0 Z) with Z the total I^z
    and H_rot the rotating-frame Hamiltonian; t1 = t_start + duration.  It is
    ``pulse_propagators`` on a stack of one.  Raises ConfigurationError if
    the energies, the carrier or U are not finite.
    """
    drive = np.exp(1j * pulse.phase) * drive_half(system, pulse)
    [u] = pulse_propagators(
        diagonal_energies(system)[None], np.array([pulse.carrier]), drive[None], pulse.duration,
        t_start,
    )
    if not np.isfinite(u).all():
        raise ConfigurationError(
            "values too large for double precision (pulse energies, carrier or propagator"
            " not finite)"
        )
    return u


def evolve_pulse(
    state: QuantumState, system: SpinSystem, pulse: PulseSpec, t_start: float = 0.0
) -> QuantumState:
    """Evolve a lab-frame state through one pulse (exact rotating-frame route).

    The returned amplitudes are lab-frame amplitudes at absolute time
    ``t_start + pulse.duration``: states untouched by the drive keep
    accumulating their free-evolution phases exp(-i E_n t), and newly driven
    states acquire the same phases automatically.
    """
    _require_normalized(state)
    u = pulse_propagator(system, pulse, t_start)
    return QuantumState(u @ state.amplitudes, check=False)


def evolve_delay(
    state: QuantumState, system: SpinSystem, delay: DelaySpec | float
) -> QuantumState:
    """Free evolution: multiply each amplitude by exp(-i E_n tau).

    Probabilities are untouched; only relative phases advance.  Composes
    exactly: tau_1 then tau_2 equals tau_1 + tau_2.
    """
    _require_normalized(state)
    tau = delay.duration if isinstance(delay, DelaySpec) else float(DelaySpec(delay).duration)
    phases = np.exp(-1j * diagonal_energies(system) * tau)
    return QuantumState(phases * state.amplitudes, check=False)


def to_interaction_picture(state: QuantumState, system: SpinSystem, t: float) -> QuantumState:
    """Strip the free-evolution phases exp(-i E_n t) from lab-frame amplitudes.

    Amplitudes in this picture are constant under free evolution, which makes
    them directly comparable against ideal gate actions.
    """
    phases = np.exp(1j * diagonal_energies(system) * t)
    return QuantumState(phases * state.amplitudes, check=False)


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
    it.
    """
    if carrier is not None and abs(carrier - (e_n - e_k)) > 1e-9:
        raise ValueError(
            f"carrier {carrier} is off the {e_n - e_k} resonance; "
            "use integrate_lab_frame for detuned drives"
        )
    if duration < 0:
        raise ValueError("duration must be >= 0")
    t_end = t_start + duration
    alpha = 0.5 * rabi * duration
    c_k = np.exp(-1j * e_k * duration) * np.cos(alpha) * c_k_initial
    c_n = (
        np.exp(1j * (np.pi / 2 - phase))
        * np.exp(1j * (e_k * t_start - e_n * t_end))
        * np.sin(alpha)
        * c_k_initial
    )
    return TwoLevelAmplitudes(
        c_k=complex(c_k),
        c_n=complex(c_n),
        t_start=t_start,
        t_end=t_end,
        e_k=e_k,
        e_n=e_n,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# lab-frame integrator (independent oracle)
# ---------------------------------------------------------------------------


def lab_hamiltonian(system: SpinSystem, pulse: PulseSpec, t: float) -> np.ndarray:
    """Instantaneous lab-frame Hamiltonian at absolute time t.

    H(t) = diag(E_n) - sum_k Omega_k [cos(w t + phi) I^x_k
           - sin(w t + phi) I^y_k]; the sign pattern is what a circularly
    polarized field rotating with the carrier produces, and is the model the
    lab-frame integrator steps through.  Returns a complex Hermitian ndarray.
    """
    drive = np.exp(1j * (pulse.carrier * t + pulse.phase)) * drive_half(system, pulse)
    return np.diag(diagonal_energies(system)) + drive + drive.conj().T


def _tree_product(m: np.ndarray) -> np.ndarray:
    """Product m[-1] @ ... @ m[1] @ m[0] of a stack, multiplied pairwise."""
    while len(m) > 1:
        odd = len(m) % 2
        # later steps on the left; an odd last matrix waits for the next level
        paired = m[1::2] @ m[0 : len(m) - odd : 2]
        m = np.concatenate((paired, m[-1:])) if odd else paired
    return m[0]


def _rk4_step_matrices(
    basis: np.ndarray, carrier: float, phase: float, t0: float, h: float, first: int, count: int
) -> np.ndarray:
    """Stack of the RK4 step matrices of steps first .. first + count - 1.

    An RK4 step is linear in Y, so it is the matrix
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with A = -i H, K1 = A(t),
    K2 = A(t + h/2)(I + h/2 K1), K3 = A(t + h/2)(I + h/2 K2) and
    K4 = A(t + h)(I + h K3).  ``basis`` stacks the three matrices that A(t)
    combines with the coefficients (1, c, conj c).
    """
    dim = basis.shape[-1]
    # the steps' edges t0 + j h, then their midpoints
    j = np.arange(first, first + count + 1)
    times = np.concatenate((t0 + h * j, t0 + h * (j[:-1] + 0.5)))
    c = np.exp(1j * (carrier * times + phase))
    coefficients = np.stack((np.ones_like(c), c, c.conj()), axis=1)
    a = (coefficients @ basis.reshape(3, -1)).reshape(-1, dim, dim)
    a_edge, a_mid = a[: count + 1], a[count + 1 :]
    # K' = A (I + s K) = A + s A K, in place; m gathers K1 + 2 K2 + 2 K3 + K4
    k = a_edge[:-1]
    m = k.copy()
    for a_node, s, weight in ((a_mid, h / 2, 2.0), (a_mid, h / 2, 2.0), (a_edge[1:], h, 1.0)):
        k = a_node @ k
        k *= s
        k += a_node
        m += weight * k
    m *= h / 6.0
    m += np.eye(dim)
    return m


def _rk4_propagator(
    diag: np.ndarray,
    half: np.ndarray,
    carrier: float,
    phase: float,
    t0: float,
    span: float,
    n_steps: int,
) -> np.ndarray:
    """RK4 propagator for i dY/dt = H(t) Y over [t0, t0 + span].

    H(t) = diag(E) + c R + conj(c) R^dagger with c = e^{i(w t + phi)} and R
    the drive half from ``drive_half``.  The steps are taken in blocks of
    ``_RK4_BLOCK``: a block's step matrices are built in one pass from H at
    the RK4 nodes and multiplied as a pairwise tree.  This is the same RK4
    as stepping Y one step at a time, up to rounding.
    """
    dim = len(diag)
    # A(t) = -i H(t) is (1, c, conj c) times these three matrices
    basis = -1j * np.stack((np.diag(diag), half, half.conj().T))
    h = span / n_steps
    y = np.eye(dim, dtype=complex)
    for first in range(0, n_steps, _RK4_BLOCK):
        count = min(_RK4_BLOCK, n_steps - first)
        y = _tree_product(_rk4_step_matrices(basis, carrier, phase, t0, h, first, count)) @ y
    return y


def lab_frame_propagator(
    system: SpinSystem, pulse: PulseSpec, step: float | None = None, t_start: float = 0.0
) -> np.ndarray:
    """Time-stepped lab-frame propagator of one pulse.

    The lab Hamiltonian is periodic in the carrier period, so the RK4
    propagator is built over a single period and composed by matrix powers;
    the remainder interval is stepped directly.  This keeps the fixed-step
    error budget while making long pulses cheap.  Within an interval the RK4
    step matrices are evaluated in blocks and tree-multiplied, which gives
    the same RK4 as stepping one step at a time, up to rounding.

    ``step`` must resolve the fastest oscillation: at most
    (shortest period) / 20, default (shortest period) / 400.
    """
    half = drive_half(system, pulse)
    energies = diagonal_energies(system)
    w_max = max(np.max(np.abs(energies)), abs(pulse.carrier)) + np.max(pulse.rabi, initial=0.0)
    t_min = 2 * np.pi / w_max
    if step is None:
        step = t_min / DEFAULT_STEP_DIVISOR
    max_step = t_min / MAX_STEP_DIVISOR
    if step > max_step:
        raise ValueError(
            f"step {step:.3e} too large: must be <= {max_step:.3e} "
            f"(shortest oscillation period {t_min:.3e} / {MAX_STEP_DIVISOR})"
        )

    tau = pulse.duration
    carrier = pulse.carrier

    period = 2 * np.pi / abs(carrier) if carrier != 0.0 else np.inf
    if period < tau:
        n_periods = int(np.floor(tau / period))
        remainder = tau - n_periods * period
        n1 = max(1, int(np.ceil(period / step)))
        u_period = _rk4_propagator(energies, half, carrier, pulse.phase, t_start, period, n1)
        u = np.linalg.matrix_power(u_period, n_periods)
        if remainder > 0:
            n2 = max(1, int(np.ceil(remainder / step)))
            # H(t_start + n_periods*period + s) = H(t_start + s): periodic drive
            u = _rk4_propagator(energies, half, carrier, pulse.phase, t_start, remainder, n2) @ u
        return u
    n_steps = max(1, int(np.ceil(tau / step)))
    return _rk4_propagator(energies, half, carrier, pulse.phase, t_start, tau, n_steps)


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
    discretization error of the integrator.
    """
    _require_normalized(state)
    u = lab_frame_propagator(system, pulse, step=step, t_start=t_start)
    return QuantumState(u @ state.amplitudes, check=False)


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
    "lab-integrator".  Delays are always applied as exact phase factors.
    """
    if method not in ("exact-rotating", "lab-integrator"):
        raise ValueError(f"unknown evolution method {method!r}")
    t = t_start
    for event in events:
        if isinstance(event, PulseSpec):
            if method == "exact-rotating":
                state = evolve_pulse(state, system, event, t_start=t)
            else:
                state = integrate_lab_frame(state, system, event, step=step, t_start=t)
            t += event.duration
        elif isinstance(event, DelaySpec):
            state = evolve_delay(state, system, event)
            t += event.duration
        else:
            raise TypeError(f"events must be PulseSpec or DelaySpec, got {type(event)!r}")
    return EvolutionReport(
        final_state=state,
        norm_drift=abs(state.norm - 1.0),
        method=method,
        elapsed=t - t_start,
    )
