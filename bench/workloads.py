"""The benchmark's three workloads, one per computational use of the paper.

Each workload class is built from a seed and holds a list of slots, in a
seeded order.  A slot fixes what sets an op's cost (grid shape, trace flags,
system, target and pulse length strata), so that every seed gives the same
mix of work.  One pass runs every slot once; ``ops(n)`` draws the values of
pass ``n`` afresh from (seed, pass, slot), so no input repeats within a run
and a cache keyed on input values cannot hit across passes.  The benchmark
times each slot in every pass and keeps its fastest pass.

Per workload:

* ``op(x, tracer)`` is the timed call into the package;
* ``check(x, out)`` verifies the output outside the timed region and returns
  ``(problems, counts)``;
* ``replay(x, out, tracer)`` re-runs a sample through finer-grained public
  functions when tracing, to attribute the op's time to layers;
* ``oracle_cases()`` lists the fixed (system, pulse, state) checks of the
  lab-frame oracle on pulses of the workload's own kind.

Top-level imports stay limited to numpy and spinpulse so that the set-up
probe charges nothing else to ``import spinpulse``.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import spinpulse as sp
from spinpulse import dynamics, ensemble
from spinpulse.cli import SweepCell, parse_config

import kron_ref

#: the four-spin molecule of demos/configs/ensemble.json
MOLECULE_LARMOR = (100.0, 200.0, 300.0, 400.0)
MOLECULE_J = 10.0
#: the two-spin CN-gate system of the README quick start
GATE_LARMOR = (500.0, 100.0)
GATE_J = 5.0
#: the sweep protocol's fixed test superposition
SWEEP_INITIAL = np.array(
    [math.sqrt(0.3), math.sqrt(0.2), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(6.0)], dtype=complex
)

#: a lab-frame error above this is a broken integrator, not step error
ORACLE_SANITY_BOUND = 1e-3


def _molecule() -> sp.SpinSystem:
    return sp.SpinSystem.uniform(MOLECULE_LARMOR, MOLECULE_J)


def _gate_system() -> sp.SpinSystem:
    return sp.SpinSystem.uniform(GATE_LARMOR, GATE_J)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


class _Op:
    """One op input; ``items`` counts sweep cells or experiments or checks."""

    def __init__(self, items: int = 1, replay: bool = False, **fields):
        self.items = items
        self.replay = replay
        self.__dict__.update(fields)


class _Workload:
    name = ""
    #: distinguishes the workloads' random streams
    stream = 0

    def __init__(self, seed: int):
        self.seed = seed
        #: the cost-setting fields of each op, fixed for the run
        self.slots: list[_Op] = []

    def _shuffle(self, rng: np.random.Generator) -> None:
        self.slots = [self.slots[i] for i in rng.permutation(len(self.slots))]

    def ops(self, n: int) -> list[_Op]:
        """The inputs of pass ``n``, one per slot, with values drawn for that pass."""
        out = []
        for i, slot in enumerate(self.slots):
            rng = np.random.default_rng([self.seed, self.stream, n, i])
            x = _Op(slot=i, **slot.__dict__)
            x.__dict__.update(self._draw(slot, rng))
            out.append(x)
        return out

    def _draw(self, slot: _Op, rng: np.random.Generator) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------

#: grid sizes of one pass; the seed picks each grid's shape among the
#: factorizations that fit in the 30 x 30 grid, and every axis value.  An odd
#: count puts the median op in the middle of one size, not between two; few
#: sizes above 100 keep a pass short, so each size is timed in many passes.
SWEEP_CELL_COUNTS = (1, 4, 6, 9, 12, 16, 20, 25, 30, 36, 48, 64, 100, 225, 900)
#: cells per grid checked against the Kronecker rebuild and replayed
SWEEP_SAMPLE = 2


def _axis(rng: np.random.Generator, count: int, low: float, high: float) -> list[float]:
    values: set[float] = set()
    while len(values) < count:
        values.add(float(f"{math.exp(rng.uniform(math.log(low), math.log(high))):.4g}"))
    return sorted(values)


class SweepGrid(_Workload):
    """Frequency-separation threshold sweeps through ``cli.run_config``."""

    # Why: every 2-spin cell rebuilds its system, carrier, 4x4 Hamiltonian and
    # eigensolve, so Python call overhead in model, design, dynamics and the
    # cli loop dominates; caching and batching show here, and no shor or RK4
    # code runs.
    name = "sweep_grid"
    stream = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, self.stream])
        for count in SWEEP_CELL_COUNTS:
            shapes = [(a, count // a) for a in range(1, 31) if count % a == 0 and count // a <= 30]
            n_delta, n_j = shapes[rng.integers(len(shapes))]
            self.slots.append(_Op(items=count, replay=True, n_delta=n_delta, n_j=n_j))
        self._shuffle(rng)

    def _draw(self, slot: _Op, rng: np.random.Generator) -> dict:
        doc = {
            "kind": "sweep",
            "delta_ratios": _axis(rng, slot.n_delta, 10.0, 1000.0),
            "j_ratios": _axis(rng, slot.n_j, 1.0, 100.0),
            "rabi": float(f"{rng.uniform(0.05, 0.2):.4g}"),
            "base_larmor": float(f"{rng.uniform(80.0, 120.0):.5g}"),
        }
        sample = rng.choice(slot.items, size=min(SWEEP_SAMPLE, slot.items), replace=False)
        return {"doc": doc, "sample": sorted(sample)}

    def op(self, x: _Op, tr):
        with tr.span("cli.parse_config"):
            cfg = parse_config(x.doc)
        buf = io.StringIO()
        with tr.span("cli.run_config"), contextlib.redirect_stdout(buf):
            code = sp.run_config(cfg)
        return code, buf.getvalue()

    @staticmethod
    def _cells(doc) -> list[tuple[float, float]]:
        return [(d, j) for d in doc["delta_ratios"] for j in doc["j_ratios"]]

    def check(self, x: _Op, out):
        import csv

        code, text = out
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = list(csv.reader(io.StringIO(text)))
        cells = self._cells(x.doc)
        if not rows or rows[0] != ["delta_ratio", "j_ratio", "deviation"]:
            return problems + ["missing CSV header"], {}
        if len(rows) - 1 != len(cells):
            return problems + [f"{len(rows) - 1} rows for {len(cells)} cells"], {}
        deviations = []
        for row, (d, j) in zip(rows[1:], cells):
            if len(row) != 3 or any(cell.startswith("error:") for cell in row):
                return problems + [f"bad row {row}"], {}
            if float(row[0]) != float(f"{d:g}") or float(row[1]) != float(f"{j:g}"):
                return problems + [f"row {row} is not cell ({d}, {j})"], {}
            deviations.append(float(row[2]))
        if not _finite(deviations):
            problems.append("non-finite deviation")
        doc = x.doc
        for idx in x.sample:
            d, j = cells[idx]
            ref = kron_ref.sweep_cell_deviation(d, j, doc["rabi"], doc["base_larmor"], SWEEP_INITIAL)
            if not abs(deviations[idx] - ref) <= 1e-9:
                problems.append(f"cell ({d}, {j}): {deviations[idx]} vs rebuild {ref}")
        return problems, {}

    def replay(self, x: _Op, out, tr) -> None:
        doc = x.doc
        rabi, base = doc["rabi"], doc["base_larmor"]
        cells = self._cells(doc)
        for idx in x.sample:
            d, j = cells[idx]
            with tr.span("model.spin_system"):
                system = sp.SpinSystem.uniform([base + d * rabi, base], j * rabi)
            with tr.span("model.diagonal_energies"):
                sp.diagonal_energies(system)
            rhos = []
            for drive_control in (True, False):
                amplitudes = [rabi if drive_control else 0.0, rabi]
                with tr.span("design.cn_pulse"):
                    pulse = sp.cn_pulse(system, 0, 1, "standard", rabi=amplitudes)
                with tr.span("model.build_rotating_hamiltonian"):
                    sp.build_rotating_hamiltonian(system, pulse)
                with tr.span("dynamics.pulse_propagator", "dim4"):
                    u = sp.pulse_propagator(system, pulse)
                state = sp.QuantumState(u @ SWEEP_INITIAL, check=False)
                with tr.span("dynamics.to_interaction_picture"):
                    psi = sp.to_interaction_picture(state, system, pulse.duration).amplitudes
                rhos.append(np.outer(psi, psi.conj()))
            with tr.span("ensemble.deviation_metric"):
                sp.deviation_metric(rhos[0], rhos[1])
        rows = out[1].splitlines()[1:]
        swept = [SweepCell(d, j, float(row.rsplit(",", 1)[1])) for (d, j), row in zip(cells, rows)]
        with tr.span("cli.sweep_to_csv"):
            sp.sweep_to_csv(swept)

    def oracle_cases(self):
        # the (delta_ratio 30, j_ratio 5, rabi 0.1) cell of demos/configs/sweep.json
        system = sp.SpinSystem.uniform([103.0, 100.0], 0.5)
        pulse = sp.cn_pulse(system, 0, 1, "standard", rabi=[0.1, 0.1])
        return [(system, pulse, SWEEP_INITIAL)]


# ---------------------------------------------------------------------------
# register4
# ---------------------------------------------------------------------------

#: experiments per pass with each (bare-delay, natural-phase) trace flag pair;
#: 3/8 of the runs are traced, and the median op sits inside one mix, not
#: between two
REGISTER_TRACE_MIX = {(False, False): 24, (True, False): 16, (False, True): 16, (True, True): 8}


class Register4(_Workload):
    """CN pulses and period finding on the four-spin register."""

    # Why: one SpinSystem is reused by every op, so a cache on it hits here
    # (and misses in sweep_grid); ops do 16x16 eigensolves and conjugations,
    # and this is where shor does nearly all its work.
    name = "register4"
    stream = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.system = _molecule()
        rng = np.random.default_rng([seed, self.stream])
        flags = [pair for pair, count in REGISTER_TRACE_MIX.items() for _ in range(count)]
        for i in rng.permutation(len(flags)):
            bare_trace, natural_trace = flags[i]
            control, target = (int(s) for s in rng.choice(4, size=2, replace=False))
            self.slots.append(
                _Op(
                    replay=bool(i % 4 == 0),
                    control=control,
                    target=target,
                    variant=("standard", "complementary")[rng.integers(2)],
                    traced={"bare-delay": bare_trace, "natural-phase": natural_trace},
                )
            )
        self.instantaneous = None

    def _draw(self, slot: _Op, rng: np.random.Generator) -> dict:
        return {
            "rabi": rng.uniform(0.05, 0.2, size=4),
            "t_start": float(rng.uniform(0.0, 50.0)),
            "rho": sp.init_deviation(_random_state(rng, 4)),
            "delays": (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0))),
        }

    def op(self, x: _Op, tr):
        system = self.system
        with tr.span("design.cn_pulse"):
            pulse = sp.cn_pulse(system, x.control, x.target, x.variant, rabi=x.rabi)
        with tr.span("ensemble.evolve_deviation"):
            evolved = sp.evolve_deviation(x.rho, system, pulse, t_start=x.t_start)
        with tr.span("ensemble.to_interaction_picture"):
            rotated = ensemble.to_interaction_picture(evolved, system, x.t_start + pulse.duration)
        with tr.span("shor.energy_table"):
            energies = sp.EnergyTable.from_spin_system(system)
        runs = {}
        for mode in ("bare-delay", "natural-phase"):
            traced = x.traced[mode]
            tag = mode.replace("-", "_") + ("_trace" if traced else "")
            with tr.span("shor.run_shor", tag):
                runs[mode] = sp.run_shor(mode, x.delays, energies, trace=traced)
        with tr.span("shor.extract_period"):
            period = sp.extract_period(runs["natural-phase"].x_distribution)
        return pulse, evolved, rotated, runs, period

    def check(self, x: _Op, out):
        pulse, evolved, rotated, runs, period = out
        if self.instantaneous is None:
            self.instantaneous = sp.run_shor("instantaneous").x_distribution
        problems = []
        if not _finite(evolved.entries, rotated.entries):
            problems.append("non-finite deviation matrix")
        for label, rho in (("evolved", evolved), ("interaction picture", rotated)):
            if not abs(rho.trace - x.rho.trace) <= 1e-12:
                problems.append(f"{label} trace {rho.trace} != {x.rho.trace}")
        natural = runs["natural-phase"].x_distribution
        if not np.max(np.abs(natural - self.instantaneous)) <= 1e-10:
            problems.append(f"natural-phase distribution {natural} != instantaneous")
        path_terms = traced_runs = 0
        for mode, run in runs.items():
            amplitudes = run.final_state.amplitudes
            if not _finite(amplitudes):
                problems.append(f"{mode}: non-finite amplitudes")
            if run.trace is None:
                continue
            traced_runs += 1
            path_terms += sum(len(terms) for terms in run.trace.terms.values())
            sums = np.array([run.trace.amplitude(i) for i in range(len(amplitudes))])
            if not np.max(np.abs(sums - amplitudes)) <= 1e-12:
                problems.append(f"{mode}: path-term sums miss the final amplitudes")
        if (period.period, period.factor) != (2, 2):
            problems.append(f"natural-phase gives period {period.period}, factor {period.factor}")
        return problems, {"shor.path_terms": path_terms, "shor.traced_runs": traced_runs}

    def replay(self, x: _Op, out, tr) -> None:
        pulse = out[0]
        with tr.span("model.diagonal_energies"):
            sp.diagonal_energies(self.system)
        with tr.span("dynamics.pulse_propagator", "dim16"):
            sp.pulse_propagator(self.system, pulse, t_start=x.t_start)

    def oracle_cases(self):
        # the CN pulse of demos/configs/ensemble.json on a fixed register state
        system = _molecule()
        pulse = sp.cn_pulse(system, 2, 3, "complementary", rabi=[0.1] * 4)
        state = _random_state(np.random.default_rng(4), 16)
        return [(system, pulse, state)]


# ---------------------------------------------------------------------------
# lab_oracle
# ---------------------------------------------------------------------------

#: pulse-length strata: log-uniform over [1, sqrt(314)] and [sqrt(314), 314]
ORACLE_LENGTH_EDGES = (1.0, math.sqrt(314.0), 314.0)


def rk4_steps(system: sp.SpinSystem, pulse: sp.PulseSpec) -> int:
    """RK4 steps ``lab_frame_propagator`` takes at its default step (computed).

    Its documented rule: step = (shortest period) / DEFAULT_STEP_DIVISOR with
    the shortest period 2 pi / (max(|E|, |carrier|) + max Rabi); pulses
    longer than one carrier period step one period and the remainder, and
    compose whole periods by matrix power.
    """
    energies = kron_ref.ising_energies(system.larmor, system.couplings)
    w_max = max(np.max(np.abs(energies)), abs(pulse.carrier)) + np.max(pulse.rabi, initial=0.0)
    step = 2 * math.pi / w_max / dynamics.DEFAULT_STEP_DIVISOR
    tau = pulse.duration
    period = 2 * math.pi / abs(pulse.carrier) if pulse.carrier != 0.0 else math.inf
    if period < tau:
        remainder = tau - math.floor(tau / period) * period
        steps = max(1, math.ceil(period / step))
        return steps + (max(1, math.ceil(remainder / step)) if remainder > 0 else 0)
    return max(1, math.ceil(tau / step))


class LabOracle(_Workload):
    """Cross-checks of the RK4 lab-frame integrator against the exact route."""

    # Why: the time goes into the Python RK4 step loop (thousands of small
    # products, no eigensolve), and pulses up to tau = 314 reach the regime
    # where matrix_power compounds the step error, so a faster integrator
    # that loses accuracy shows in oracle_max_error.
    name = "lab_oracle"
    stream = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng([seed, self.stream])
        for system in (_gate_system(), _molecule()):
            n = system.n_spins
            # one slot per target keeps a pass short, so each slot is timed in
            # many passes; the system, target, carrier and remainder set the
            # RK4 work, so they are the same for every seed
            for target in range(n):
                stratum = target % 2
                control = (target + 1) % n
                variant = ("standard", "complementary")[stratum]
                rabi = rng.uniform(0.02, 0.3, size=n)
                carrier = sp.cn_pulse(system, control, target, variant, rabi=rabi).carrier
                period = 2 * math.pi / carrier
                low, high = ORACLE_LENGTH_EDGES[stratum], ORACLE_LENGTH_EDGES[stratum + 1]
                tau = math.exp(rng.uniform(math.log(low), math.log(high)))
                remainder = 0.25 + 0.5 * stratum + rng.uniform(-0.05, 0.05)
                pulse = sp.PulseSpec(
                    carrier=carrier,
                    phase=0.0,
                    rabi=rabi,
                    duration=(max(1, math.floor(tau / period)) + remainder) * period,
                )
                steps = rk4_steps(system, pulse)
                self.slots.append(_Op(replay=stratum == 0, system=system, pulse=pulse, steps=steps))
        # the known long-pulse case, which also makes the slot count odd so
        # the median op sits inside one check's cost
        molecule = _molecule()
        pulse = sp.cn_pulse(molecule, 2, 3, "complementary", rabi=[0.01] * 4)
        self.slots.append(_Op(system=molecule, pulse=pulse, steps=rk4_steps(molecule, pulse)))
        self._shuffle(rng)

    def _draw(self, slot: _Op, rng: np.random.Generator) -> dict:
        # phase, start time and state leave the RK4 step count unchanged
        pulse = slot.pulse
        return {
            "pulse": sp.PulseSpec(
                carrier=pulse.carrier,
                phase=rng.uniform(0.0, 2 * math.pi),
                rabi=pulse.rabi,
                duration=pulse.duration,
            ),
            "state": sp.QuantumState(_random_state(rng, slot.system.dim)),
            "t_start": float(rng.uniform(0.0, 20.0)),
        }

    def op(self, x: _Op, tr):
        with tr.span("dynamics.integrate_lab_frame"):
            lab = sp.integrate_lab_frame(x.state, x.system, x.pulse, t_start=x.t_start)
        with tr.span("dynamics.evolve_pulse"):
            exact = sp.evolve_pulse(x.state, x.system, x.pulse, t_start=x.t_start)
        return lab, exact

    def check(self, x: _Op, out):
        lab, exact = out
        if not _finite(lab.amplitudes, exact.amplitudes):
            return ["non-finite amplitudes"], {}
        problems = []
        drift = abs(lab.norm - 1.0)
        if not drift <= dynamics.INTEGRATOR_NORM_TOL:
            problems.append(f"integrator norm drift {drift:.3e}")
        error = float(np.max(np.abs(lab.amplitudes - exact.amplitudes)))
        if not error <= ORACLE_SANITY_BOUND:
            problems.append(f"integrator error {error:.3e}")
        return problems, {"oracle_error": error, "dynamics.rk4_steps": x.steps}

    def replay(self, x: _Op, out, tr) -> None:
        with tr.span("dynamics.lab_frame_propagator"):
            sp.lab_frame_propagator(x.system, x.pulse, t_start=x.t_start)

    def oracle_cases(self):
        # the ensemble CN pulse at tau = 1, 31.4 and 314, and the README's
        # two-spin CN gate; the tau = 314 pulse carries the known long-pulse error
        molecule, gate = _molecule(), _gate_system()
        rng = np.random.default_rng(4)
        cases = []
        for rabi in (math.pi, 0.1, 0.01):
            pulse = sp.cn_pulse(molecule, 2, 3, "complementary", rabi=[rabi] * 4)
            cases.append((molecule, pulse, _random_state(rng, 16)))
        pulse = sp.cn_pulse(gate, 0, 1, "standard", rabi=[0.5, 0.1])
        cases.append((gate, pulse, SWEEP_INITIAL))
        return cases


WORKLOADS = {w.name: w for w in (SweepGrid, Register4, LabOracle)}


def oracle_max_error(workload: _Workload) -> float:
    """Largest amplitude error of integrate_lab_frame against evolve_pulse."""
    errors = []
    for system, pulse, amplitudes in workload.oracle_cases():
        state = sp.QuantumState(amplitudes)
        lab = sp.integrate_lab_frame(state, system, pulse)
        exact = sp.evolve_pulse(state, system, pulse)
        errors.append(np.max(np.abs(lab.amplitudes - exact.amplitudes)))
    return float(np.max(errors))
