"""Batch experiment runner: JSON configs in, CSV/JSON results out.

Subcommands: ``run-cn``, ``run-ensemble``, ``run-shor``, ``design-pulse``,
``sweep``.  Exit codes: 0 success, 2 config/validation error, 3 tolerance
failure against a provided reference.  Outputs are deterministic for
identical configs and seeds.

The ``sweep`` command maps the parameter region in which a single pulse
still acts as a clean CN gate.  Each cell builds a two-spin system with
frequency separation delta = (delta_ratio) * Omega and coupling
J = (j_ratio) * Omega, applies the standard CN pi-pulse to a fixed test
superposition, and reports the worst-case relative entry deviation of the
resulting density-matrix block against the same pulse with the non-resonant
spin undriven.  That reference isolates the frequency-separation effect the
sweep studies; drive-induced phases on the coupled target transition, which
do not depend on the separation, cancel out.

The grid is evaluated in blocks of cells: the rotating Hamiltonians of a
block (two per cell, control driven and undriven) are built as one stack
and exponentiated by one stacked eigensolve, with the same numbers as a
cell-by-cell evaluation.  A bad cell (an invalid system, or numbers that
overflow double precision) still yields its own ``error:`` row and is kept
out of the other cells' arithmetic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .model import (
    ConfigurationError,
    PulseSpec,
    QuantumState,
    SpinSystem,
    drive_half,
    fidelity,
    finite_real,
    finite_reals,
    ising_diagonal,
    system_from_dict,
)
from .dynamics import evolve_pulse, pulse_propagators, to_interaction_picture
from .design import cn_pulse, design_2pik
from .ensemble import (
    BACKGROUND_DIAGONAL,
    deviation_metric,
    evolve_deviation,
    init_deviation,
    to_interaction_picture as density_to_interaction_picture,
)
from . import shor

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3

#: test superposition used by the sweep cells
SWEEP_INITIAL = (math.sqrt(0.3), math.sqrt(0.2), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(6.0))

#: default of a field that every config of its kind must set
REQUIRED = object()


class ConfigError(ConfigurationError):
    """Config document failed validation; carries per-field problems."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid config: " + "; ".join(self.problems))


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    payload: dict
    out: str | None = None
    fmt: str | None = None


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _complex_pairs(values) -> list:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [_complex_pairs(row) for row in arr]


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ConfigurationError(f"{path}: JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# config fields: converters take a JSON value and return the payload value or
# raise ValueError; checks run once every field of a document has converted
# ---------------------------------------------------------------------------


def _integer(value, low: int = 0) -> int:
    """An integer from low to 2**63 - 1; a fraction, bool or string is rejected."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"expected an integer, got {reprlib.repr(value)}")
    if not low <= value < 2**63:
        raise ValueError(f"must be an integer from {low} to 2**63 - 1")
    return int(value)


def _choice(value, choices: Sequence[str]) -> str:
    if value not in choices:
        raise ValueError(f"must be one of {', '.join(choices)} (got {reprlib.repr(value)})")
    return value


def _pairs(value) -> np.ndarray:
    """[re, im] pairs, innermost, as a complex array."""
    arr = finite_reals(value)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _state(value) -> np.ndarray:
    """[re, im] pairs of a normalized state vector."""
    return QuantumState(_pairs(value)).amplitudes


def _axis(values) -> list[float]:
    """A sweep axis as floats: a non-empty list, strictly positive, sorted ascending."""
    axis = finite_reals(values)
    if axis.ndim != 1:
        raise ValueError("axis must be a list of numbers")
    if not axis.size or not np.all(axis > 0):
        raise ValueError("axis values must be strictly positive and finite")
    if np.any(np.diff(axis) < 0):
        raise ValueError("axis must be sorted ascending")
    return axis.tolist()


def _energies(doc) -> shor.EnergyTable:
    if isinstance(doc, Mapping) and "table" in doc:
        return shor.EnergyTable.from_xy_table(doc["table"])
    if isinstance(doc, Mapping) and "n_spins" in doc:
        return shor.EnergyTable.from_spin_system(system_from_dict(doc))
    raise ConfigurationError("expected {'table': 4x4} or a 4-spin system document")


def _check_gate(p: dict, problems: list[str], **shapes: tuple) -> None:
    if p["rabi"] is None and p["exact_2pik"] is None:
        problems.append("rabi: required field missing (or set exact_2pik)")
    shapes["rabi"] = (p["system"].n_spins,)
    problems += [
        f"{name}: expected shape {shape}, got {p[name].shape}"
        for name, shape in shapes.items()
        if p[name] is not None and p[name].shape != shape
    ]


def _check_cn(p: dict, problems: list[str]) -> None:
    dim = (p["system"].dim,)
    _check_gate(p, problems, initial_state=dim, reference_state=dim)


def _check_ensemble(p: dict, problems: list[str]) -> None:
    if p["system"].n_spins != 4:
        problems.append("system: ensemble runs need a 4-spin system")
    else:
        _check_gate(p, problems, initial_amplitudes=(4,), reference_active=(4, 4),
                    reference_background_diagonal=BACKGROUND_DIAGONAL.shape)


def _check_shor(p: dict, problems: list[str]) -> None:
    if p["energies"] is None and p["mode"] != "instantaneous":
        problems.append("energies: required for delay modes")


def _check_design(p: dict, problems: list[str]) -> None:
    """Either a system with control and target, or a nonzero delta_omega (and a carrier)."""
    on_system = p["system"] is not None
    for name in ("control", "target") if on_system else ("delta_omega",):
        if p[name] is None:
            problems.append(f"{name}: required field missing")
    for name in ("delta_omega", "carrier") if on_system else ("control", "target"):
        if p[name] is not None:
            problems.append(f"{name}: not used {'with' if on_system else 'without'} system")
    if p["delta_omega"] == 0.0:
        problems.append("delta_omega: must be nonzero")


# ---------------------------------------------------------------------------
# runners: each takes a validated payload, the output path and the format
# ---------------------------------------------------------------------------


def _gate_pulse(p: Mapping) -> PulseSpec:
    return cn_pulse(variant=p["variant"], **{name: p[name] for name in _GATE_FIELDS})


def _run_cn(p: dict, out: str | None, fmt: str) -> int:
    system: SpinSystem = p["system"]
    pulse = _gate_pulse(p)
    final = evolve_pulse(QuantumState(p["initial_state"]), system, pulse)
    final_int = to_interaction_picture(final, system, pulse.duration)

    result = {
        "kind": "cn",
        "carrier": pulse.carrier,
        "duration": pulse.duration,
        "final_amplitudes": _complex_pairs(final_int.amplitudes),
    }
    code = EXIT_OK
    if p["reference_state"] is not None:
        fid = fidelity(final_int, QuantumState(p["reference_state"]))
        result["fidelity"] = fid
        result["min_fidelity"] = p["min_fidelity"]
        result["passed"] = fid >= p["min_fidelity"]
        if not result["passed"]:
            code = EXIT_TOLERANCE
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["state", "re", "im"])
        for idx, amp in enumerate(final_int.amplitudes):
            writer.writerow([idx, f"{amp.real:.12e}", f"{amp.imag:.12e}"])
        _write_text(buf.getvalue(), out)
        if "fidelity" in result:
            print(f"fidelity = {result['fidelity']:.6f} (min {result['min_fidelity']})")
    else:
        _write_text(_json_dumps(result), out)
    if code == EXIT_TOLERANCE:
        print(
            f"tolerance failure: fidelity {result['fidelity']:.6f} "
            f"< {result['min_fidelity']}",
            file=sys.stderr,
        )
    return code


def _ensemble_csv(r_block: np.ndarray, b_diag: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "col", "re", "im"])
    for i in range(4):
        for j in range(4):
            writer.writerow([i, j, f"{r_block[i, j].real:.12e}", f"{r_block[i, j].imag:.12e}"])
    for i, value in enumerate(b_diag):
        writer.writerow([4 + i, 4 + i, f"{value:.12e}", f"{0.0:.12e}"])
    return buf.getvalue()


def _run_ensemble(p: dict, out: str | None, fmt: str) -> int:
    summary_path = Path(out).with_suffix(".json") if out is not None and fmt == "csv" else None
    if summary_path is not None and summary_path == Path(out):
        raise ConfigError(
            [f"out: the csv table and its JSON summary would both go to {out}; "
             "choose another suffix or --format json"]
        )
    system: SpinSystem = p["system"]
    pulse = _gate_pulse(p)
    rho = init_deviation(p["initial_amplitudes"])
    evolved = evolve_deviation(rho, system, pulse)
    evolved_int = density_to_interaction_picture(evolved, system, pulse.duration)
    r_block = evolved_int.active_block
    b_diag = evolved_int.background_diagonal

    summary: dict = {
        "kind": "ensemble",
        "carrier": pulse.carrier,
        "duration": pulse.duration,
        "trace": evolved.trace,
    }
    code = EXIT_OK
    if p["reference_active"] is not None:
        max_abs = float(np.max(np.abs(r_block - p["reference_active"])))
        max_abs_b = float(np.max(np.abs(b_diag - p["reference_background_diagonal"])))
        summary["max_abs_deviation"] = max_abs
        summary["max_abs_deviation_background"] = max_abs_b
        summary["relative_deviation_metric"] = deviation_metric(
            r_block, p["reference_active"]
        )
        summary["max_abs_deviation_allowed"] = p["max_abs_deviation"]
        summary["passed"] = (
            max_abs < p["max_abs_deviation"] and max_abs_b < p["max_abs_deviation"]
        )
        if not summary["passed"]:
            code = EXIT_TOLERANCE

    table = _ensemble_csv(r_block, b_diag)
    if fmt == "json":
        doc = dict(summary)
        doc["active_block"] = _complex_pairs(r_block)
        doc["background_diagonal"] = [float(v) for v in b_diag]
        _write_text(_json_dumps(doc), out)
    else:
        _write_text(table, out)
        summary_text = _json_dumps(summary)
        if summary_path is not None:
            summary_path.write_text(summary_text + "\n", encoding="utf-8")
        else:
            sys.stdout.write(summary_text + "\n")
    if code == EXIT_TOLERANCE:
        print(
            f"tolerance failure: max |deviation| {summary['max_abs_deviation']:.3e} "
            f">= {p['max_abs_deviation']:.3e}",
            file=sys.stderr,
        )
    return code


def _trace_csv(trace: shor.ShorTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["final_state", "path", "phase", "magnitude"])
    for index in sorted(trace.terms):
        for term in trace.terms[index]:
            path = ">".join(str(s) for s in term.states)
            writer.writerow([index, path, f"{term.phase:.12e}", f"{term.magnitude:.12e}"])
    return buf.getvalue()


def _run_shor(
    p: dict, out: str | None, fmt: str, seed: int | None = None, trace: bool = False
) -> int:
    run = shor.run_shor(p["mode"], (p["tau1"], p["tau2"]), p["energies"], trace=trace)
    result: dict = {
        "kind": "shor",
        "mode": run.mode,
        "tau1": run.delays[0],
        "tau2": run.delays[1],
        "amplitudes": _complex_pairs(run.final_state.amplitudes),
        "x_distribution": [float(v) for v in run.x_distribution],
    }
    try:
        period = shor.extract_period(run.x_distribution)
        result["period"] = period.period
        result["factor"] = period.factor
        result["x_measured"] = period.x_measured
        if period.note:
            result["note"] = period.note
    except shor.PeriodExtractionError as exc:
        result["period"] = None
        result["factor"] = None
        result["note"] = str(exc)
    if p["shots"]:
        counts = shor.sample_x(run.x_distribution, p["shots"], seed=seed or 0)
        result["sampled_counts"] = {str(k): v for k, v in sorted(counts.items())}

    _write_text(_json_dumps(result), out)
    if trace and run.trace is not None:
        trace_text = _trace_csv(run.trace)
        if out is not None:
            Path(out).with_suffix(".trace.csv").write_text(trace_text, encoding="utf-8")
        else:
            sys.stdout.write(trace_text)
    return EXIT_OK


def _run_design(p: dict, out: str | None, fmt: str) -> int:
    system: SpinSystem | None = p["system"]
    if system is not None:
        pulse = cn_pulse(
            system, p["control"], p["target"], variant="standard", exact_2pik=p["k"]
        )
        j = system.couplings[p["control"], p["target"]]
        design = design_2pik(2.0 * j, k=p["k"], n=p["n"])
        carrier = pulse.carrier
    else:
        design = design_2pik(p["delta_omega"], k=p["k"], n=p["n"])
        carrier = p["carrier"]
    doc = {
        "omega": carrier,
        "rabi": design.rabi,
        "tau": design.duration,
        "k": design.k,
        "n": design.n,
        "delta_omega": design.delta_omega,
    }
    _write_text(_json_dumps(doc), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    delta_ratio: float
    j_ratio: float
    deviation: float | None
    error: str | None = None


#: grid cells evaluated together; bounds the Hamiltonian and propagator
#: stacks at a few hundred 4 x 4 matrices, however large the grid
_SWEEP_BLOCK = 128
#: the two-spin coupling matrix of a unit Ising constant
_UNIT_COUPLING = np.array([[0.0, 1.0], [1.0, 0.0]])


def _sweep_drive(rabi: float) -> tuple[float, np.ndarray]:
    """Duration and drive halves (control driven, then undriven) of the sweep pulse.

    Both depend on rabi alone, so every cell shares them.  cn_pulse builds
    them on a stand-in system, so a bad rabi fails as it does there.
    """
    stand_in = SpinSystem.uniform([0.0, 0.0], 0.0)
    pulses = [cn_pulse(stand_in, 0, 1, "standard", rabi=[r, rabi]) for r in (rabi, 0.0)]
    drive = np.stack([np.exp(1j * p.phase) * drive_half(stand_in, p) for p in pulses])
    return pulses[0].duration, drive


def _block_deviations(
    delta_ratio: np.ndarray,
    j_ratio: np.ndarray,
    rabi: float,
    base_larmor: float,
    initial: np.ndarray,
    pulse: tuple[float, np.ndarray] | str,
) -> list[float | str]:
    """Deviation of each cell of a block, or the text of the error that stopped it.

    ``pulse`` is ``_sweep_drive(rabi)``, or the text of its error.  Every
    cell's two Hamiltonians (control driven and undriven) go through one
    stacked eigensolve; a cell whose system is invalid, or whose numbers
    overflow, gets its own error and does not change the other cells.
    """
    # overflow is checked cell by cell below, so it must not raise for the block
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = j_ratio * rabi
        control_larmor = base_larmor + delta_ratio * rabi
        larmor = np.stack((control_larmor, np.full_like(control_larmor, base_larmor)), 1)
        valid = np.isfinite(larmor).all(1) & np.isfinite(coupling)
        out: list = [None] * len(coupling)
        for i in np.flatnonzero(~valid):
            try:  # the cell's own SpinSystem raises with the same checks and text
                SpinSystem.uniform(larmor[i], coupling[i])
            except ConfigurationError as exc:
                out[i] = str(exc)
        if isinstance(pulse, str):
            return [pulse if v is None else v for v in out]
        duration, drive = pulse
        energies = ising_diagonal(larmor[valid], coupling[valid, None, None] * _UNIT_COUPLING)
        energies = np.repeat(energies, 2, axis=0)  # each cell once per drive setting
        # the target (spin 1) flips with the control (spin 0) excited: |10> -> |11>
        carrier = energies[:, 3] - energies[:, 2]
        drives = np.tile(drive, (len(carrier) // 2, 1, 1))
        u = pulse_propagators(energies, carrier, drives, duration)
        psi = np.exp(1j * energies * duration) * (u @ initial)  # interaction picture
        rho = psi[:, :, None] * psi.conj()[:, None, :]
        # a non-finite energy, carrier, propagator or phase makes the deviation NaN
        deviation = deviation_metric(rho[0::2], rho[1::2])
    too_large = "values too large for double precision (deviation not finite)"
    for i, value in zip(np.flatnonzero(valid).tolist(), deviation.tolist()):
        out[i] = value if math.isfinite(value) else too_large
    return out


def _deviations(
    delta_ratio: np.ndarray, j_ratio: np.ndarray, rabi: float, base_larmor: float, initial
) -> list[float | str]:
    """Deviation of each cell (delta_ratio[i], j_ratio[i]), or its error text, block by block."""
    initial = QuantumState(np.asarray(initial, dtype=complex)).amplitudes
    try:
        pulse = _sweep_drive(rabi)
    except (ConfigurationError, FloatingPointError) as exc:  # FloatingPointError under main
        pulse = str(exc)
    out = []
    for first in range(0, len(delta_ratio), _SWEEP_BLOCK):
        block = slice(first, first + _SWEEP_BLOCK)
        out += _block_deviations(
            delta_ratio[block], j_ratio[block], rabi, base_larmor, initial, pulse
        )
    return out


def sweep_cell_deviation(
    delta_ratio: float,
    j_ratio: float,
    rabi: float = 0.1,
    base_larmor: float = 100.0,
    initial=SWEEP_INITIAL,
) -> float:
    """Deviation of one sweep cell (see module docstring for the protocol).

    It is the sweep's block evaluation on a block of one cell; raises
    ConfigurationError with the cell's error text if the cell fails.
    """
    [value] = _deviations(np.array([delta_ratio]), np.array([j_ratio]), rabi, base_larmor, initial)
    if isinstance(value, str):
        raise ConfigurationError(value)
    return value


def _sweep_cells(p: Mapping) -> list[SweepCell]:
    grid = [(dr, jr) for dr in p["delta_ratios"] for jr in p["j_ratios"]]
    delta_ratio, j_ratio = np.array(grid).reshape(-1, 2).T
    values = _deviations(delta_ratio, j_ratio, p["rabi"], p["base_larmor"], SWEEP_INITIAL)
    return [
        SweepCell(dr, jr, None, error=v) if isinstance(v, str) else SweepCell(dr, jr, v)
        for (dr, jr), v in zip(grid, values)
    ]


def run_sweep(
    delta_ratios: Sequence[float],
    j_ratios: Sequence[float],
    rabi: float = 0.1,
    base_larmor: float = 100.0,
) -> list[SweepCell]:
    """Evaluate every grid cell; cells are independent and order-insensitive.

    The arguments are checked as a ``sweep`` config's fields (axes strictly
    positive and sorted ascending, rabi > 0).  Per-cell failures are recorded
    in the row and do not stop the sweep.
    """
    doc = {"kind": "sweep", "delta_ratios": delta_ratios, "j_ratios": j_ratios,
           "rabi": rabi, "base_larmor": base_larmor}
    return _sweep_cells(parse_config(doc).payload)


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["delta_ratio", "j_ratio", "deviation"])
    for cell in cells:
        value = f"{cell.deviation:.12e}" if cell.deviation is not None else f"error: {cell.error}"
        writer.writerow([f"{cell.delta_ratio:g}", f"{cell.j_ratio:g}", value])
    return buf.getvalue()


def _run_sweep_cmd(p: dict, out: str | None, fmt: str) -> int:
    _write_text(sweep_to_csv(_sweep_cells(p)), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the kind table, dispatch and the command line
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    try:
        return _integer(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Kind(NamedTuple):
    """Everything the CLI knows about one config kind."""

    command: str
    formats: tuple[str, ...]  # default first
    runner: Callable[..., int]  # (payload, out, fmt, **options) -> exit code
    check: Callable[[dict, list[str]], None] | None  # cross-field check
    fields: Mapping[str, tuple[Callable, object]]  # name -> (converter, default or REQUIRED)
    flags: tuple[str, ...] = ()  # fields that are also flags, which win over --config
    options: Mapping[str, dict] = {}  # run option -> its argparse settings; the runner takes it


_POSITIVE = partial(_integer, low=1)
#: the fields a gate config shares, named as cn_pulse's parameters
_GATE_FIELDS = {
    "system": (system_from_dict, REQUIRED),
    "control": (_integer, REQUIRED),
    "target": (_integer, REQUIRED),
    "rabi": (finite_reals, None),
    "exact_2pik": (_POSITIVE, None),
    "phase": (finite_real, 0.0),
}
_VARIANT = partial(_choice, choices=("standard", "complementary"))
_DELAY = partial(finite_real, low=0.0)

#: one entry per config kind: validation, defaults, dispatch and the parser read it
KIND_TABLE: dict[str, Kind] = {
    "cn": Kind("run-cn", ("json", "csv"), _run_cn, _check_cn, {
        **_GATE_FIELDS,
        "variant": (_VARIANT, "standard"),
        "initial_state": (_state, REQUIRED),
        "reference_state": (_state, None),
        "min_fidelity": (finite_real, 0.99),
    }),
    "ensemble": Kind("run-ensemble", ("csv", "json"), _run_ensemble, _check_ensemble, {
        **_GATE_FIELDS,
        "variant": (_VARIANT, "complementary"),
        "initial_amplitudes": (_state, REQUIRED),
        "reference_active": (_pairs, None),
        "reference_background_diagonal": (finite_reals, BACKGROUND_DIAGONAL),
        "max_abs_deviation": (finite_real, 0.005),
    }),
    "shor": Kind("run-shor", ("json",), _run_shor, _check_shor, {
        "mode": (partial(_choice, choices=shor.MODES), "instantaneous"),
        "tau1": (_DELAY, 0.0),
        "tau2": (_DELAY, 0.0),
        "energies": (_energies, None),
        "shots": (_integer, 0),
    }, flags=("mode", "tau1", "tau2", "energies", "shots"), options={
        "seed": {"type": _seed, "help": "seed for the --shots sampling (default 0)"},
        "trace": {"action": "store_true", "help": "also write the path-trace table"},
    }),
    "design": Kind("design-pulse", ("json",), _run_design, _check_design, {
        "system": (system_from_dict, None),
        "control": (_integer, None),
        "target": (_integer, None),
        "delta_omega": (finite_real, None),
        "carrier": (finite_real, None),
        "k": (_POSITIVE, 1),
        "n": (_POSITIVE, 1),
    }, flags=("delta_omega", "k", "n")),
    "sweep": Kind("sweep", ("csv",), _run_sweep_cmd, None, {
        "delta_ratios": (_axis, REQUIRED),
        "j_ratios": (_axis, REQUIRED),
        "rabi": (partial(finite_real, low=0.0, above=True), 0.1),
        "base_larmor": (finite_real, 100.0),
    }),
}
#: flags that name a JSON file holding the field's value
_FILE_FLAGS = ("energies",)


def _output(value, problems: list[str]) -> tuple[str | None, object]:
    if not isinstance(value, Mapping):
        problems.append("output: expected an object with optional path and format")
        return None, None
    problems += [
        f"output.{name}: unknown field" for name in value if name not in ("path", "format")
    ]
    out = value.get("path")
    if out is not None and not isinstance(out, str):
        problems.append(f"output.path: expected a string, got {reprlib.repr(out)}")
    return out, value.get("format")


def parse_config(doc: Mapping) -> ExperimentConfig:
    """Validate a raw config mapping against its kind's table entry.

    Unknown fields are rejected, each field goes through its converter (an
    absent or null field takes its default), then the kind's cross-field
    check runs.  Raises ConfigError listing the problems found.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError([f"config: expected a JSON object, got {type(doc).__name__}"])
    kind = doc.get("kind")
    spec = KIND_TABLE.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ConfigError([f"kind: {reprlib.repr(kind)} is not one of {', '.join(KIND_TABLE)}"])
    problems = [
        f"{name}: unknown field for kind {kind!r}"
        for name in doc
        if name not in spec.fields and name not in ("kind", "output")
    ]
    payload: dict = {}
    for name, (convert, default) in spec.fields.items():
        value = doc.get(name)
        if value is None:
            value = default
            if value is REQUIRED:
                problems.append(f"{name}: required field missing")
                value = None
        else:
            try:
                value = convert(value)
            except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
                problems.append(f"{name}: {exc}")
                value = None
        payload[name] = value
    if not problems and spec.check is not None:
        spec.check(payload, problems)
    out, fmt = _output(doc.get("output", {}), problems)
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind=kind, payload=payload, out=out, fmt=fmt)


def run_config(
    config,
    out: str | None = None,
    fmt: str | None = None,
    seed: int | None = None,
    trace: bool = False,
) -> int:
    """Validate and run one experiment config; returns the process exit code.

    ``config`` may be a mapping, a path to a JSON document, or an already
    parsed ExperimentConfig.  Output goes to ``out`` (or stdout).  ``seed``
    and ``trace`` reach only the runners that take them (``shor``).
    """
    if isinstance(config, ExperimentConfig):
        cfg = config
    else:
        cfg = parse_config(config if isinstance(config, Mapping) else _read_json(config))
    spec = KIND_TABLE[cfg.kind]
    out = out if out is not None else cfg.out
    fmt = fmt or cfg.fmt or spec.formats[0]
    if fmt not in spec.formats:
        raise ConfigError(
            [f"format: {cfg.kind} output must be {' or '.join(spec.formats)} (got {fmt!r})"]
        )
    options = {"seed": seed, "trace": trace}
    return spec.runner(cfg.payload, out, fmt, **{name: options[name] for name in spec.options})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpulse", description="Resonant-pulse spin dynamics experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, spec in KIND_TABLE.items():
        p = sub.add_parser(spec.command)
        p.set_defaults(kind=kind)
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        for name in spec.flags:
            p.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                metavar="FILE" if name in _FILE_FLAGS else "VALUE",
                help=f"the {name} field, over any --config value",
            )
        for name, settings in spec.options.items():
            p.add_argument("--" + name, **settings)
    return parser


def _flag_value(text: str):
    """A flag's text as the JSON value it spells (a number, say), else the text."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


def _config_from_args(args: argparse.Namespace):
    """The --config document (or {"kind": ...}) with each set flag laid over it."""
    kind = args.kind
    doc = _read_json(args.config) if args.config else {}
    if isinstance(doc, dict):
        found = doc.setdefault("kind", kind)
        if found != kind:
            raise ConfigError([f"kind: config is {reprlib.repr(found)}, command needs {kind!r}"])
        for name in KIND_TABLE[kind].flags:
            text = getattr(args, name)
            if text is not None:
                doc[name] = _read_json(text) if name in _FILE_FLAGS else _flag_value(text)
    return doc


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_config_from_args(args))
        options = {name: getattr(args, name) for name in KIND_TABLE[args.kind].options}
        with np.errstate(over="raise", invalid="raise"):  # inputs too large for doubles
            return run_config(cfg, out=args.out, fmt=args.fmt, **options)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigurationError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"config error: values too large for double precision ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # a config, energies or --out path that is missing, a directory or not permitted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
