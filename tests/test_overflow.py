"""Extreme finite inputs through every public entry: finite numbers or one clear error.

Phases exp(-i E t) and carriers E_n - E_k can leave double precision on
finite inputs.  Every public entry must then refuse with a
ConfigurationError (``values too large for double precision (...)`` or a
validation error), never a numpy warning, a FloatingPointError or a NaN,
and it must do the same whatever numpy's error state.  A validation check
whose own arithmetic overflows fails as that check.  An argument that is
already NaN or infinite is refused by name, not as an overflow.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from spinpulse import (
    ConfigurationError,
    DelaySpec,
    DeviationDensityMatrix,
    EnergyTable,
    PulseSpec,
    QuantumState,
    SpinSystem,
    analytic_two_level,
    apply_sequence,
    approx_rotation_angle,
    build_rotating_hamiltonian,
    cn_pulse,
    design_2pik,
    deviation_metric,
    evolve_deviation,
    evolve_pulse,
    frequency_ladder,
    gradient_estimate,
    init_deviation,
    integrate_lab_frame,
    lab_frame_propagator,
    lab_hamiltonian,
    offresonant_excitation_probability,
    pulse_propagator,
    rotation_angle,
    run_shor,
    run_sweep,
    to_interaction_picture,
    transition_frequency,
)
from spinpulse.ensemble import to_interaction_picture as density_to_interaction_picture

from conftest import GATE_INITIAL, warnings_are_errors

#: a Larmor frequency of 1.79e308 and a coupling of 1e307 are finite, but the
#: gap between the target's levels is not
EDGE = SpinSystem(2, [1.79e308, 0.0], [[0.0, 1e307], [1e307, 0.0]])
GATE = SpinSystem(2, [500.0, 100.0], [[0.0, 5.0], [5.0, 0.0]])
#: a deviation matrix with 1e308 at (0, 1) and -1e308 at (1, 0): finite
#: entries, but rho - rho^dagger is not
SKEW = np.zeros((16, 16))
SKEW[0, 1], SKEW[1, 0] = 1e308, -1e308
#: a Hermitian deviation matrix with finite entries whose phases or
#: conjugation by a unitary overflow
HUGE = np.zeros((16, 16), dtype=complex)
HUGE[0, 1], HUGE[1, 0] = 1.5e308 + 1.5e308j, 1.5e308 - 1.5e308j
REGISTER = SpinSystem.uniform([100.0, 200.0, 300.0, 400.0], 10.0)


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: cn_pulse(GATE, 0, 1, rabi=[0.5, 1e-320]), "pulse duration not finite"),
        (
            lambda: cn_pulse(SpinSystem(2, [500.0, 100.0], [[0, 1e308], [1e308, 0]]), 0, 1,
                             exact_2pik=1),
            "detuning 2 J not finite",
        ),
        (
            lambda: cn_pulse(EDGE, 1, 0, "complementary", rabi=[1.0, 1.0]),
            "transition frequency not finite",
        ),
        (
            lambda: build_rotating_hamiltonian(
                SpinSystem(2, [1e308, 0.0], np.zeros((2, 2))),
                PulseSpec(-1.7e308, 0.0, [0.1, 0.1], 1.0),
            ),
            "rotating-frame energies not finite",
        ),
        (
            lambda: analytic_two_level(1.0, 0.0, 1.0, 1e308, 0.0, 0.0, 10.0),
            "two-level amplitudes not finite",
        ),
        (
            lambda: analytic_two_level(1.0, -1e308, 1e308, 1.0, 0.0, 1.0, 1.0),
            "two-level amplitudes not finite",
        ),
        (
            # w t0 and w t1 are finite, the frame's turn w tau is not
            lambda: lab_frame_propagator(GATE, PulseSpec(1e308, 0.0, [0.1, 0.1], 3.0),
                                         t_start=-1.5),
            "drive angle not finite",
        ),
        (
            # h H is small, H H overflows
            lambda: lab_frame_propagator(
                SpinSystem(1, [1e300], [[0.0]]), PulseSpec(0.0, 0.0, [1.0], 1e-300)
            ),
            "Magnus step not finite",
        ),
        (
            # a subnormal step: about 1.5e308 steps, past 2^53
            lambda: lab_frame_propagator(
                SpinSystem(2, [1e308, 1e308], np.zeros((2, 2))),
                PulseSpec(1e308, 0.0, [0.0, 5e307], 0.03125),
            ),
            "3.125e-02 / ",
        ),
        (
            # no frequency to resolve: one step of 1e308, whose h^2 overflows
            lambda: lab_frame_propagator(
                SpinSystem(1, [0.0], [[0.0]]), PulseSpec(1e-320, 0.0, [0.0], 1e308)
            ),
            "Magnus step not finite",
        ),
        (
            # zero energies keep the phases finite; the clock passes 1.8e308
            lambda: apply_sequence(
                QuantumState.basis(1, 0), SpinSystem(1, [0.0], [[0.0]]),
                [DelaySpec(1e308), DelaySpec(1e308)],
            ),
            "sequence clock not finite",
        ),
        # the closed forms: a math domain error, [inf inf inf] and (inf, inf) before
        (lambda: offresonant_excitation_probability(1e308, 1e308, 1e308), "rotation angle not finite"),
        (lambda: frequency_ladder(1e308, 1e308, 3), "frequency ladder not finite"),
        (lambda: gradient_estimate(1e308, 1e-320), "field step and gradient not finite"),
        # "overflow encountered in subtract" before
        (
            lambda: deviation_metric(np.full((2, 2), 1e308), np.full((2, 2), -1e308)),
            "deviation metric not finite",
        ),
        # "overflow encountered in multiply" and "in matmul" before
        (
            lambda: density_to_interaction_picture(DeviationDensityMatrix(HUGE), REGISTER, 1.0),
            "deviation matrix not finite",
        ),
        (
            lambda: evolve_deviation(
                DeviationDensityMatrix(HUGE), REGISTER,
                cn_pulse(REGISTER, 2, 3, "complementary", rabi=[0.1] * 4), 3.0,
            ),
            "deviation matrix not finite",
        ),
    ],
)
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_overflow_refused_with_one_message(call, what, error_state):
    message = f"^values too large for double precision \\({re.escape(what)}"
    with warnings_are_errors(error_state):
        with pytest.raises(ConfigurationError, match=message):
            call()


#: a register whose control level sits at 1e8: a target Rabi frequency of
#: 1e-300 makes a pi-pulse of 3.1e300, whose frame angles stay finite while
#: tau times an eigenvalue of ~1e8 does not
SLOW = SpinSystem(2, [1.0, 2e8], np.zeros((2, 2)))
#: one spin with no energy at all
ZERO = SpinSystem(1, [0.0], [[0.0]])
#: the exact route's one overflow message
PULSE_TOO_LARGE = (
    "values too large for double precision (pulse energies, carrier or propagator not finite)"
)


@pytest.mark.parametrize(
    "pulse, t_start",
    [
        # w Z on the diagonal: 2e308 for four spins
        (PulseSpec(1e308, 0.0, [0.1] * 4, 1.0), 0.0),
        # the eigenphases: tau lambda ~ 3e308
        (cn_pulse(SLOW, 1, 0, rabi=[1e-300, 0.0]), 0.0),
        # a frame angle: w t0 = 1e309
        (PulseSpec(10.0, 0.0, [0.1] * 4, 1.0), 1e308),
        # a NaN frame angle, w t1 = 0 x inf, on a Hamiltonian of zeros whose
        # eigenphases are all 0
        (PulseSpec(0.0, 0.0, [0.0], 1e308), 1e308),
    ],
    ids=["diagonal", "eigenphases", "frame-angle", "nan-frame-angle"],
)
@pytest.mark.parametrize("route", ["pulse_propagator", "evolve_pulse"])
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_exact_route_refuses_in_python_floats(pulse, t_start, route, error_state):
    # the checks run on Python floats before numpy computes, so numpy's error
    # state cannot change what is refused or how
    system = {1: ZERO, 2: SLOW, 4: REGISTER}[len(pulse.rabi)]
    calls = {
        "pulse_propagator": lambda: pulse_propagator(system, pulse, t_start),
        "evolve_pulse": lambda: evolve_pulse(
            QuantumState.basis(system.n_spins, 0), system, pulse, t_start
        ),
    }
    with warnings_are_errors(error_state):
        with pytest.raises(ConfigurationError) as refused:
            calls[route]()
    assert str(refused.value) == PULSE_TOO_LARGE


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_numpy_scalar_specs_run_in_python_floats(scalar, error_state):
    # pulses and delays store Python floats, so the clock overflows as itself
    # and not in numpy's scalar arithmetic
    clock = "values too large for double precision (sequence clock not finite)"
    with warnings_are_errors(error_state):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(clock)}$"):
            apply_sequence(QuantumState.basis(1, 0), ZERO, [DelaySpec(np.float64(1e308))] * 2)
        events = [PulseSpec(scalar(1.0), 0.0, [0.5], scalar(0.25)), DelaySpec(scalar(0.5))]
        elapsed = apply_sequence(QuantumState.basis(1, 0), ZERO, events).elapsed
    assert type(elapsed) is float and elapsed == 0.75


@pytest.mark.parametrize(
    "carrier, t_start",
    # the bound takes the largest of |w|, |w t0| and |w t1|, not their sum,
    # so it refuses no pulse whose factors double precision holds
    [(1.7e308, 0.0), (3e307, 2.0)],
)
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_exact_route_keeps_what_double_precision_holds(carrier, t_start, error_state):
    with warnings_are_errors(error_state):
        u = pulse_propagator(GATE, PulseSpec(carrier, 0.0, [0.1, 0.1], 1.0), t_start)
    assert np.isfinite(u).all()


@pytest.mark.parametrize("mode", ["bare-delay", "natural-phase"])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_delay_phases_refused_in_python_floats(mode, trace, error_state):
    energies = EnergyTable(np.full(16, 10.0))
    with warnings_are_errors(error_state):
        with pytest.raises(ConfigurationError) as refused:
            run_shor(mode, delays=(1e308, 1.0), energies=energies, trace=trace)
    assert str(refused.value) == "values too large for double precision (delay phases not finite)"


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda x: gradient_estimate(x, 1.0), "omega_rabi"),
        (lambda x: gradient_estimate(1.0, x), "spacing"),
        (lambda x: approx_rotation_angle(1.0, x), "delta_omega"),
        (lambda x: rotation_angle(x, 1.0, 1.0), "omega_rabi"),
        (lambda x: rotation_angle(1.0, 1.0, x), "tau"),
        (lambda x: frequency_ladder(x, 1.0, 2), "omega0"),
        (lambda x: offresonant_excitation_probability(x, 1, 1), "omega_rabi"),
        (lambda x: deviation_metric(np.full((2, 2), x), np.eye(2)), "r_obtained"),
        (lambda x: deviation_metric(np.eye(2), np.full((2, 2), x)), "r_reference"),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_argument_named(call, name, value):
    # "values too large for double precision (... not finite)" before, or a
    # range message, for an input that was never finite
    with pytest.raises(ConfigurationError, match=f"^{name}: must be finite$"):
        call(value)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: SpinSystem(2, [1.0, 1.0], [[0.0, 1e308], [-1e308, 0.0]]),
            ConfigurationError,
            "couplings must be symmetric",
        ),
        (
            lambda: QuantumState([1e308, 1e308]),
            ValueError,
            "state is not normalized (|norm - 1| = inf)",
        ),
        (
            lambda: init_deviation([1e308, 1e308, 0.0, 0.0]),
            ConfigurationError,
            "active amplitudes must be normalized",
        ),
        (
            lambda: DeviationDensityMatrix(SKEW),
            ConfigurationError,
            "deviation matrix is not Hermitian (inf)",
        ),
    ],
)
@pytest.mark.parametrize("error_state", ["warn", "raise"])
def test_a_check_that_overflows_fails_as_itself(call, error, message, error_state):
    # J_kn - J_nk, the squared norm and rho - rho^dagger overflowed with a
    # numpy warning first
    with warnings_are_errors(error_state):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


#: values at and near the double-precision limits, and ordinary ones
VALUES = st.sampled_from([1e308, 1.7e308, 5e307, 1e-320, 0.0]).flatmap(
    lambda v: st.sampled_from([v, -v])
) | st.floats(-1e3, 1e3)


def _tokens(result) -> list:
    """The numbers and texts a result holds, in order, as complex numbers and strings."""
    if isinstance(result, QuantumState):
        return _tokens(result.amplitudes)
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in _tokens(getattr(result, f.name))]
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _tokens(item)]
    if isinstance(result, dict):
        return [x for key in sorted(result) for x in _tokens(result[key])]
    if result is None or isinstance(result, str):
        return [result]
    return np.ravel(result).astype(complex).tolist()


def _outcome(call, error_state: str):
    """("ok", tokens) or ("refused", message) of a call under one numpy error state."""
    with warnings_are_errors(error_state):
        try:
            tokens = _tokens(call())
        except ConfigurationError as exc:
            return "refused", str(exc)
    numbers = np.array([x for x in tokens if isinstance(x, complex)])
    assert np.isfinite(numbers).all(), tokens
    return "ok", tokens


# no shrink phase: shrinking re-runs every entry per step, which turned a
# failure's report into minutes; the failing example is reported as drawn
@settings(
    max_examples=150,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.explain),
)
@given(
    larmor=st.lists(VALUES, min_size=4, max_size=4),
    couplings=st.lists(VALUES, min_size=6, max_size=6),
    rabi=st.lists(VALUES, min_size=4, max_size=4),
    table=st.lists(VALUES, min_size=16, max_size=16),
    carrier=VALUES,
    duration=VALUES,
    t=VALUES,
    delay=VALUES,
    scalar=st.sampled_from([float, np.float64, np.float32, int]),
    as_array=st.booleans(),
)
def test_every_entry_returns_finite_numbers_or_refuses(
    larmor, couplings, rabi, table, carrier, duration, t, delay, scalar, as_array
):
    duration, delay = abs(duration), abs(delay)
    # pulses, delays and times also take numpy scalars and ints; np.float32
    # rounds 1e308 to inf, and int(1e308) is too large for numpy's integers
    with np.errstate(over="ignore"):
        spec_carrier, spec_duration, spec_delay, spec_t = map(
            scalar, (carrier, duration, delay, t)
        )
    j = np.zeros((4, 4))
    j[np.triu_indices(4, 1)] = couplings
    j = j + j.T
    # the domain types take arrays and lists alike
    form = np.array if as_array else np.ndarray.tolist
    larmor, rabi, table = form(np.array(larmor)), form(np.abs(rabi)), form(np.array(table))
    # the closed forms take a positive Rabi frequency and spin spacing
    positive_rabi, spacing = rabi[0] or 1.0, spec_duration or 1.0
    state = QuantumState(GATE_INITIAL)
    # a 4 x 4 block of the table, Hermitian only where the table is symmetric
    block = np.reshape(table, (4, 4))
    rho = np.zeros((16, 16))
    rho[:4, :4] = block
    # the block made Hermitian with no arithmetic that can overflow: the real
    # part mirrors its upper triangle, the imaginary part its lower one
    hermitian = np.zeros((16, 16), dtype=complex)
    lower = np.tril(block, -1)
    hermitian[:4, :4] = np.triu(block) + np.triu(block, 1).T + 1j * (lower - lower.T)

    def two():
        return SpinSystem(2, larmor[:2], form(j[:2, :2]))

    def four():
        return SpinSystem(4, larmor, form(j))

    def pulse(n_spins):
        return PulseSpec(spec_carrier, spec_t, rabi[:n_spins], spec_duration)

    calls = {
        "energies": lambda: two().energies,
        "transition_frequency": lambda: transition_frequency(two(), 1, {0: 1}),
        "cn_pulse standard": lambda: cn_pulse(two(), 0, 1, "standard", rabi=rabi[:2]),
        "cn_pulse complementary": lambda: cn_pulse(two(), 1, 0, "complementary", rabi=rabi[:2]),
        "cn_pulse exact_2pik": lambda: cn_pulse(two(), 0, 1, exact_2pik=1),
        "build_rotating_hamiltonian": lambda: build_rotating_hamiltonian(two(), pulse(2)),
        "pulse_propagator": lambda: pulse_propagator(two(), pulse(2), spec_t),
        "evolve_pulse": lambda: evolve_pulse(state, two(), pulse(2), spec_t),
        "to_interaction_picture": lambda: to_interaction_picture(state, two(), spec_t),
        "lab_hamiltonian": lambda: lab_hamiltonian(two(), pulse(2), spec_t),
        "integrate_lab_frame": lambda: integrate_lab_frame(state, two(), pulse(2), t_start=spec_t),
        "apply_sequence": lambda: apply_sequence(
            state, two(), [DelaySpec(spec_delay), pulse(2), DelaySpec(spec_duration)], spec_t
        ),
        "evolve_deviation": lambda: evolve_deviation(
            init_deviation([0.6, 0.8, 0, 0]), four(), pulse(4), spec_t
        ),
        "density_to_interaction_picture": lambda: density_to_interaction_picture(
            init_deviation([0.6, 0.8, 0, 0]), four(), spec_t
        ),
        "evolve_deviation drawn": lambda: evolve_deviation(
            DeviationDensityMatrix(hermitian), four(), pulse(4), spec_t
        ),
        "density_to_interaction_picture drawn": lambda: density_to_interaction_picture(
            DeviationDensityMatrix(hermitian), four(), spec_t
        ),
        "DeviationDensityMatrix": lambda: DeviationDensityMatrix(rho),
        "deviation_metric": lambda: deviation_metric(block, block.T),
        "run_shor bare-delay": lambda: run_shor(
            "bare-delay", (spec_delay, spec_duration), EnergyTable(table), trace=True
        ),
        "run_shor natural-phase": lambda: run_shor(
            "natural-phase", (spec_delay, spec_duration), EnergyTable(table), trace=True
        ),
        "analytic_two_level": lambda: analytic_two_level(
            0.6 + 0.8j, larmor[0], larmor[1], rabi[0], spec_carrier, spec_t, spec_duration
        ),
        "design_2pik": lambda: design_2pik(spec_carrier),
        "rotation_angle": lambda: rotation_angle(rabi[0], spec_carrier, spec_duration),
        "approx_rotation_angle": lambda: approx_rotation_angle(positive_rabi, spec_carrier),
        "offresonant_excitation_probability": lambda: offresonant_excitation_probability(
            rabi[0], spec_carrier, spec_duration
        ),
        "frequency_ladder": lambda: frequency_ladder(spec_carrier, rabi[0], 3),
        "gradient_estimate": lambda: gradient_estimate(positive_rabi, spacing),
        "run_sweep": lambda: run_sweep(
            [abs(larmor[2])], [abs(larmor[3])], rabi[0], spec_carrier
        ),
    }
    for name, call in calls.items():
        outcomes = [_outcome(call, error_state) for error_state in ("warn", "raise")]
        assert outcomes[0] == outcomes[1], name
