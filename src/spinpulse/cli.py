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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import (
    ConfigurationError,
    PulseSpec,
    QuantumState,
    SpinSystem,
    fidelity,
    system_from_dict,
)
from .dynamics import evolve_pulse, to_interaction_picture
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

#: output formats each kind accepts; the first is its default
FORMATS = {
    "cn": ("json", "csv"),
    "ensemble": ("csv", "json"),
    "shor": ("json",),
    "design": ("json",),
    "sweep": ("csv",),
}
KINDS = tuple(FORMATS)


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


def _pairs_to_complex(doc, shape, problems: list[str], field: str) -> np.ndarray | None:
    try:
        arr = np.asarray(doc, dtype=float)
        if arr.shape != shape + (2,):
            raise ValueError
        return arr[..., 0] + 1j * arr[..., 1]
    except (ValueError, TypeError):
        problems.append(f"{field}: expected [re, im] pairs of shape {shape}")
        return None


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def _require(doc: Mapping, fields: Sequence[str], problems: list[str]) -> None:
    for name in fields:
        if name not in doc:
            problems.append(f"{name}: required field missing")


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _field(doc: Mapping, name: str, problems: list[str], convert=float, default=None):
    """``convert(doc[name])``, or of ``default`` when the field is absent.

    A value that does not convert, or converts to a non-finite number, is
    recorded as a problem naming the field and gives None; so does an absent
    field without a default.
    """
    value = doc.get(name, default)
    if value is None:
        return None
    try:
        converted = convert(value)
    except (TypeError, ValueError, OverflowError):
        problems.append(f"{name}: expected numeric value(s), got {reprlib.repr(value)}")
        return None
    if not np.all(np.isfinite(converted)):
        problems.append(f"{name}: must be finite")
        return None
    return converted


def _axis(name: str, values, problems: list[str]) -> list[float]:
    """A sweep axis as floats: a non-empty list, strictly positive, sorted ascending."""
    try:
        axis = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        axis = None
    if axis is None or axis.ndim != 1:
        problems.append(f"{name}: axis must be a list of numbers")
        return []
    if not axis.size or not np.all((axis > 0) & (axis < np.inf)):
        problems.append(f"{name}: axis values must be strictly positive and finite")
    elif np.any(np.diff(axis) < 0):
        problems.append(f"{name}: axis must be sorted ascending")
    return axis.tolist()


def _system(doc: Mapping, problems: list[str]) -> SpinSystem | None:
    try:
        return system_from_dict(doc["system"])
    except (ConfigurationError, TypeError, ValueError) as exc:
        problems.append(f"system: {exc}")
        return None


def parse_config(doc: Mapping) -> ExperimentConfig:
    """Validate a raw config mapping; raises ConfigError listing problems."""
    if not isinstance(doc, Mapping):
        raise ConfigError([f"config: expected a JSON object, got {type(doc).__name__}"])
    problems: list[str] = []
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"kind: must be one of {', '.join(KINDS)} (got {kind!r})"])

    payload: dict = {}
    if kind in ("cn", "ensemble"):
        _require(doc, ("system", "control", "target"), problems)
        system = _system(doc, problems) if "system" in doc else None
        if "rabi" not in doc and "exact_2pik" not in doc:
            problems.append("rabi: required field missing (or set exact_2pik)")
        amps_field = "initial_state" if kind == "cn" else "initial_amplitudes"
        _require(doc, (amps_field,), problems)
        dim = None
        if system is not None:
            dim = 4 if kind == "ensemble" else system.dim
            if kind == "ensemble" and system.n_spins != 4:
                problems.append("system: ensemble runs need a 4-spin system")
        initial = None
        if amps_field in doc and dim is not None:
            initial = _pairs_to_complex(doc[amps_field], (dim,), problems, amps_field)
        payload = {
            "system": system,
            "control": _field(doc, "control", problems, int),
            "target": _field(doc, "target", problems, int),
            "variant": doc.get("variant", "standard" if kind == "cn" else "complementary"),
            "rabi": _field(doc, "rabi", problems, _float_array),
            "exact_2pik": _field(doc, "exact_2pik", problems, int),
            "phase": _field(doc, "phase", problems, default=0.0),
            "initial": initial,
        }
        if problems:
            raise ConfigError(problems)
        if kind == "cn":
            payload["min_fidelity"] = _field(doc, "min_fidelity", problems, default=0.99)
            payload["reference"] = None
            if "reference_state" in doc:
                payload["reference"] = _pairs_to_complex(
                    doc["reference_state"], (system.dim,), problems, "reference_state"
                )
        else:
            payload["max_abs_deviation"] = _field(
                doc, "max_abs_deviation", problems, default=0.005
            )
            payload["reference_active"] = None
            if "reference_active" in doc:
                payload["reference_active"] = _pairs_to_complex(
                    doc["reference_active"], (4, 4), problems, "reference_active"
                )
            payload["reference_background"] = _field(
                doc, "reference_background_diagonal", problems, _float_array
            )
    elif kind == "shor":
        mode = doc.get("mode", "instantaneous")
        if mode not in shor.MODES:
            problems.append(f"mode: must be one of {', '.join(shor.MODES)}")
        tau1 = _field(doc, "tau1", problems, default=0.0)
        tau2 = _field(doc, "tau2", problems, default=0.0)
        if (tau1 is not None and tau1 < 0) or (tau2 is not None and tau2 < 0):
            problems.append("tau1/tau2: delays must be >= 0")
        energies = None
        if doc.get("energies") is not None:
            try:
                energies = _energies_from_doc(doc["energies"])
            except (ConfigurationError, TypeError, ValueError) as exc:
                problems.append(f"energies: {exc}")
        elif mode != "instantaneous":
            problems.append("energies: required for delay modes")
        payload = {
            "mode": mode,
            "delays": (tau1, tau2),
            "energies": energies,
            "shots": _field(doc, "shots", problems, int),
        }
        if payload["shots"] is not None and payload["shots"] < 0:
            problems.append("shots: must be >= 0")
    elif kind == "design":
        k = _field(doc, "k", problems, int, default=1)
        n = _field(doc, "n", problems, int, default=1)
        if (k is not None and k < 1) or (n is not None and n < 1):
            problems.append("k/n: must be positive integers")
        if "system" in doc:
            _require(doc, ("control", "target"), problems)
            payload = {
                "system": _system(doc, problems),
                "control": _field(doc, "control", problems, int),
                "target": _field(doc, "target", problems, int),
                "k": k,
                "n": n,
            }
        else:
            _require(doc, ("delta_omega",), problems)
            delta_omega = _field(doc, "delta_omega", problems)
            if delta_omega == 0.0:
                problems.append("delta_omega: must be nonzero")
            payload = {
                "delta_omega": delta_omega,
                "carrier": _field(doc, "carrier", problems),
                "k": k,
                "n": n,
            }
    elif kind == "sweep":
        _require(doc, ("delta_ratios", "j_ratios"), problems)
        if problems:
            raise ConfigError(problems)
        payload = {
            "delta_ratios": _axis("delta_ratios", doc["delta_ratios"], problems),
            "j_ratios": _axis("j_ratios", doc["j_ratios"], problems),
            "rabi": _field(doc, "rabi", problems, default=0.1),
            "base_larmor": _field(doc, "base_larmor", problems, default=100.0),
        }

    output = doc.get("output", {})
    if not isinstance(output, Mapping):
        problems.append("output: expected an object with optional path and format")
        output = {}
    out, fmt = output.get("path"), output.get("format")
    if out is not None and not isinstance(out, str):
        problems.append(f"output.path: expected a string, got {reprlib.repr(out)}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind=kind, payload=payload, out=out, fmt=fmt)


def _energies_from_doc(doc) -> shor.EnergyTable:
    if isinstance(doc, Mapping) and "table" in doc:
        return shor.EnergyTable.from_xy_table(doc["table"])
    if isinstance(doc, Mapping) and "n_spins" in doc:
        return shor.EnergyTable.from_spin_system(system_from_dict(doc))
    raise ConfigurationError("expected {'table': 4x4} or a 4-spin system document")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _build_gate_pulse(payload: Mapping, system: SpinSystem) -> PulseSpec:
    return cn_pulse(
        system,
        control=payload["control"],
        target=payload["target"],
        variant=payload["variant"],
        rabi=payload["rabi"],
        exact_2pik=payload["exact_2pik"],
        phase=payload["phase"],
    )


def _run_cn(cfg: ExperimentConfig, out: str | None, fmt: str) -> int:
    p = cfg.payload
    system: SpinSystem = p["system"]
    pulse = _build_gate_pulse(p, system)
    state = QuantumState(p["initial"])
    final = evolve_pulse(state, system, pulse)
    final_int = to_interaction_picture(final, system, pulse.duration)

    result = {
        "kind": "cn",
        "carrier": pulse.carrier,
        "duration": pulse.duration,
        "final_amplitudes": _complex_pairs(final_int.amplitudes),
    }
    code = EXIT_OK
    if p["reference"] is not None:
        fid = fidelity(final_int, QuantumState(p["reference"]))
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


def _run_ensemble(cfg: ExperimentConfig, out: str | None, fmt: str) -> int:
    p = cfg.payload
    summary_path = Path(out).with_suffix(".json") if out is not None and fmt == "csv" else None
    if summary_path is not None and summary_path == Path(out):
        raise ConfigError(
            [f"out: the csv table and its JSON summary would both go to {out}; "
             "choose another suffix or --format json"]
        )
    system: SpinSystem = p["system"]
    pulse = _build_gate_pulse(p, system)
    rho = init_deviation(p["initial"])
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
        ref_b = (
            p["reference_background"]
            if p["reference_background"] is not None
            else BACKGROUND_DIAGONAL
        )
        max_abs = float(np.max(np.abs(r_block - p["reference_active"])))
        max_abs_b = float(np.max(np.abs(b_diag - ref_b)))
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
    cfg: ExperimentConfig, out: str | None, fmt: str, seed: int | None, trace: bool
) -> int:
    p = cfg.payload
    run = shor.run_shor(p["mode"], delays=p["delays"], energies=p["energies"], trace=trace)
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


def _run_design(cfg: ExperimentConfig, out: str | None, fmt: str) -> int:
    p = cfg.payload
    if "system" in p:
        system: SpinSystem = p["system"]
        pulse = cn_pulse(
            system, p["control"], p["target"], variant="standard", exact_2pik=p["k"]
        )
        j = system.couplings[p["control"], p["target"]]
        design = design_2pik(2.0 * j, k=p["k"], n=p["n"])
        carrier = pulse.carrier
    else:
        design = design_2pik(p["delta_omega"], k=p["k"], n=p["n"])
        carrier = p.get("carrier")
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


def sweep_cell_deviation(
    delta_ratio: float,
    j_ratio: float,
    rabi: float = 0.1,
    base_larmor: float = 100.0,
    initial=SWEEP_INITIAL,
) -> float:
    """Deviation of one sweep cell (see module docstring for the protocol)."""
    coupling = j_ratio * rabi
    delta = delta_ratio * rabi
    system = SpinSystem.uniform([base_larmor + delta, base_larmor], coupling)
    state = QuantumState(np.asarray(initial, dtype=complex))

    def run(drive_control: bool) -> np.ndarray:
        amplitudes = [rabi if drive_control else 0.0, rabi]
        pulse = cn_pulse(system, control=0, target=1, variant="standard", rabi=amplitudes)
        final = evolve_pulse(state, system, pulse)
        psi = to_interaction_picture(final, system, pulse.duration).amplitudes
        return np.outer(psi, psi.conj())

    return deviation_metric(run(True), run(False))


def run_sweep(
    delta_ratios: Sequence[float],
    j_ratios: Sequence[float],
    rabi: float = 0.1,
    base_larmor: float = 100.0,
) -> list[SweepCell]:
    """Evaluate every grid cell; cells are independent and order-insensitive.

    Axes must be strictly positive and sorted ascending.  Per-cell failures
    are recorded in the row and do not stop the sweep.
    """
    problems: list[str] = []
    delta_ratios = _axis("delta_ratios", delta_ratios, problems)
    j_ratios = _axis("j_ratios", j_ratios, problems)
    if problems:
        raise ConfigError(problems)
    cells = []
    for dr in delta_ratios:
        for jr in j_ratios:
            try:
                deviation = sweep_cell_deviation(dr, jr, rabi=rabi, base_larmor=base_larmor)
                cells.append(SweepCell(dr, jr, deviation))
            except Exception as exc:  # per-cell isolation
                cells.append(SweepCell(dr, jr, None, error=str(exc)))
    return cells


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["delta_ratio", "j_ratio", "deviation"])
    for cell in cells:
        value = f"{cell.deviation:.12e}" if cell.deviation is not None else f"error: {cell.error}"
        writer.writerow([f"{cell.delta_ratio:g}", f"{cell.j_ratio:g}", value])
    return buf.getvalue()


def _run_sweep_cmd(cfg: ExperimentConfig, out: str | None, fmt: str) -> int:
    p = cfg.payload
    cells = run_sweep(
        p["delta_ratios"], p["j_ratios"], rabi=p["rabi"], base_larmor=p["base_larmor"]
    )
    _write_text(sweep_to_csv(cells), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_config(
    config,
    out: str | None = None,
    fmt: str | None = None,
    seed: int | None = None,
    trace: bool = False,
) -> int:
    """Validate and run one experiment config; returns the process exit code.

    ``config`` may be a mapping, a path to a JSON document, or an already
    parsed ExperimentConfig.  Output goes to ``out`` (or stdout).
    """
    if isinstance(config, ExperimentConfig):
        cfg = config
    else:
        if not isinstance(config, Mapping):
            with open(config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        cfg = parse_config(config)
    out = out if out is not None else cfg.out
    accepted = FORMATS[cfg.kind]
    fmt = fmt or cfg.fmt or accepted[0]
    if fmt not in accepted:
        raise ConfigError(
            [f"format: {cfg.kind} output must be {' or '.join(accepted)} (got {fmt!r})"]
        )

    if cfg.kind == "cn":
        return _run_cn(cfg, out, fmt)
    if cfg.kind == "ensemble":
        return _run_ensemble(cfg, out, fmt)
    if cfg.kind == "shor":
        return _run_shor(cfg, out, fmt, seed, trace)
    if cfg.kind == "design":
        return _run_design(cfg, out, fmt)
    return _run_sweep_cmd(cfg, out, fmt)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    parser.add_argument("--seed", type=int, help="seed for optional sampling")
    parser.add_argument("--trace", action="store_true", help="emit path-trace table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpulse", description="Resonant-pulse spin dynamics experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run-cn", "run-ensemble", "sweep"):
        p = sub.add_parser(name)
        _add_common_flags(p)
    p = sub.add_parser("run-shor")
    _add_common_flags(p)
    p.add_argument("--mode", choices=shor.MODES, default="instantaneous")
    p.add_argument("--tau1", type=float, default=0.0)
    p.add_argument("--tau2", type=float, default=0.0)
    p.add_argument(
        "--energies",
        help="JSON file holding {'table': 4x4} or a 4-spin system to derive from",
    )
    p.add_argument("--shots", type=int, help="sample this many measurements")
    p = sub.add_parser("design-pulse")
    _add_common_flags(p)
    p.add_argument("--delta-omega", type=float, dest="delta_omega")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            doc.setdefault("kind", _kind_for_command(args.command))
        return doc
    if args.command == "run-shor":
        doc: dict = {
            "kind": "shor",
            "mode": args.mode,
            "tau1": args.tau1,
            "tau2": args.tau2,
        }
        if args.energies:
            with open(args.energies, "r", encoding="utf-8") as fh:
                doc["energies"] = json.load(fh)
        if args.shots:
            doc["shots"] = args.shots
        return doc
    if args.command == "design-pulse" and args.delta_omega is not None:
        return {"kind": "design", "delta_omega": args.delta_omega, "k": args.k, "n": args.n}
    raise ConfigError(["config: --config is required for this command"])


def _kind_for_command(command: str) -> str:
    return {
        "run-cn": "cn",
        "run-ensemble": "ensemble",
        "run-shor": "shor",
        "design-pulse": "design",
        "sweep": "sweep",
    }[command]


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_config_from_args(args))
        expected = _kind_for_command(args.command)
        if cfg.kind != expected:
            raise ConfigError([f"kind: config is {cfg.kind!r}, command needs {expected!r}"])
        return run_config(cfg, out=args.out, fmt=args.fmt, seed=args.seed, trace=args.trace)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigurationError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # a config, energies or --out path that is missing, a directory or not permitted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
