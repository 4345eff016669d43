"""Batch experiment runner: JSON configs in, CSV/JSON results out.

Subcommands: ``run-cn``, ``run-ensemble``, ``run-shor``, ``design-pulse``,
``sweep``.  Exit codes: 0 success, 2 config/validation error, 3 tolerance
failure against a provided reference.  Outputs are deterministic for
identical configs and seeds.

This module is the command line only: it validates config documents,
dispatches each kind to the library and formats the results as text.  The
sweep kernel lives in ``spinpulse.sweep``.  ``import spinpulse`` does not
load this module; the first use of ``spinpulse.run_config`` or
``spinpulse.sweep_to_csv`` does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import reprlib
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .model import (
    REQUIRED,
    ConfigurationError,
    PulseSpec,
    QuantumState,
    SpinSystem,
    _non_negative_real,
    _positive_int,
    fidelity,
    finite_real,
    finite_reals,
    integer,
    read_fields,
    read_json,
    system_from_dict,
    too_large,
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
from .sweep import SWEEP_FIELDS, SweepCell, _grid_cells

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: a config kind and its fields, read.

    Construction is the one way in, and ``parse_config`` takes it too: the
    kind must be in ``KIND_TABLE``, ``payload`` (the kind's fields as JSON
    values) is read by ``model.read_fields`` against the kind's fields
    (unknown fields are rejected, an absent or null field takes its
    default), then the kind's cross-field check runs.  ``payload`` then holds
    the fields as read, defaults filled in, read-only; the runners take it as
    it is and read no field again.  Raises ConfigurationError listing the
    problems found.
    """

    kind: str
    payload: Mapping

    def __post_init__(self) -> None:
        spec = KIND_TABLE.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise ConfigurationError(
                f"kind: {reprlib.repr(self.kind)} is not one of {', '.join(KIND_TABLE)}"
            )
        payload = read_fields(self.payload, spec.fields)
        problems: list[str] = []
        if spec.check is not None:
            spec.check(payload, problems)
        if problems:
            raise ConfigurationError(*problems)
        object.__setattr__(self, "payload", MappingProxyType(payload))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _complex_pairs(values) -> list:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    return [_complex_pairs(row) for row in arr]


def _write_text(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text, encoding="utf-8")


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# config fields: converters take a JSON value and return the payload value or
# raise ValueError (see ``model.read_fields``); checks run once every field of
# a document has converted
# ---------------------------------------------------------------------------


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


def _energies(doc) -> shor.EnergyTable:
    """An energies document: a 4-spin system document, else {"table": 4x4}."""
    if isinstance(doc, Mapping) and "n_spins" in doc:
        return shor.EnergyTable.from_spin_system(system_from_dict(doc))
    return read_fields(doc, {"table": (shor.EnergyTable.from_xy_table, REQUIRED)})["table"]


def _check_gate(p: dict, problems: list[str], **shapes: tuple) -> None:
    if p["rabi"] is None and p["exact_2pik"] is None:
        problems.append("rabi: required field missing (or set exact_2pik)")
    if p["rabi"] is not None and p["exact_2pik"] is not None:
        problems.append("rabi: not used with exact_2pik")
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
        _check_gate(p, problems, initial_amplitudes=(4,), reference_active=(4, 4))


def _check_shor(p: dict, problems: list[str]) -> None:
    if p["energies"] is None and p["mode"] != "instantaneous":
        problems.append("energies: required for delay modes")


def _check_design(p: dict, problems: list[str]) -> None:
    """Either a system with control and target, or a nonzero delta_omega."""
    on_system = p["system"] is not None
    for name in ("control", "target") if on_system else ("delta_omega",):
        if p[name] is None:
            problems.append(f"{name}: required field missing")
    for name in ("delta_omega",) if on_system else ("control", "target"):
        if p[name] is not None:
            problems.append(f"{name}: not used {'with' if on_system else 'without'} system")
    if p["delta_omega"] == 0.0:
        problems.append("delta_omega: must be nonzero")


# ---------------------------------------------------------------------------
# runners: each takes a validated payload, the output path and the format
# ---------------------------------------------------------------------------


def _gate_pulse(p: Mapping) -> PulseSpec:
    return cn_pulse(variant=p["variant"], **{name: p[name] for name in _GATE_FIELDS})


def _run_cn(p: Mapping, out: str | None, fmt: str) -> int:
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
        amplitudes = final_int.amplitudes
        rows = ([i, f"{a.real:.12e}", f"{a.imag:.12e}"] for i, a in enumerate(amplitudes))
        _write_text(_csv(["state", "re", "im"], rows), out)
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
    rows = [[i, j, f"{r_block[i, j].real:.12e}", f"{r_block[i, j].imag:.12e}"]
            for i in range(4) for j in range(4)]
    rows += [[4 + i, 4 + i, f"{value:.12e}", f"{0.0:.12e}"] for i, value in enumerate(b_diag)]
    return _csv(["row", "col", "re", "im"], rows)


def _run_ensemble(p: Mapping, out: str | None, fmt: str) -> int:
    summary_path = Path(out).with_suffix(".json") if out is not None and fmt == "csv" else None
    if summary_path is not None and summary_path == Path(out):
        raise ConfigurationError(
            f"out: the csv table and its JSON summary would both go to {out}; "
            "choose another suffix or --format json"
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
        max_abs_b = float(np.max(np.abs(b_diag - BACKGROUND_DIAGONAL)))
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
        _write_text(_json_dumps(summary) + "\n", summary_path)
    if code == EXIT_TOLERANCE:
        print(
            f"tolerance failure: max |deviation| {summary['max_abs_deviation']:.3e} "
            f">= {p['max_abs_deviation']:.3e}",
            file=sys.stderr,
        )
    return code


def _trace_csv(trace: shor.ShorTrace) -> str:
    rows = (
        [index, ">".join(map(str, term.states)), f"{term.phase:.12e}", f"{term.magnitude:.12e}"]
        for index in sorted(trace.terms)
        for term in trace.terms[index]
    )
    return _csv(["final_state", "path", "phase", "magnitude"], rows)


def _run_shor(
    p: Mapping, out: str | None, fmt: str, seed: int | None = None, trace: bool = False
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
        _write_text(_trace_csv(run.trace), out and Path(out).with_suffix(".trace.csv"))
    return EXIT_OK


def _run_design(p: Mapping, out: str | None, fmt: str) -> int:
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
        carrier = None
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


#: the header of ``sweep_to_csv`` and one row of numbers, as the csv module writes them
_SWEEP_HEADER = "delta_ratio,j_ratio,deviation\r\n"
_SWEEP_ROW = "%g,%g,%.12e\r\n"


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    """The cells of ``run_sweep`` as CSV; a failed cell's deviation reads ``error: <text>``.

    The bytes are the csv module's.  A number never needs quoting, so the
    rows of numbers are formatted by one ``%`` over all cells; a failed
    cell's row goes through the csv module, which quotes its error text
    where it needs quotes.
    """
    # the common case, no failed cell: every row is numbers, the cells' first
    # three columns interleaved
    values = [None] * (3 * len(cells))
    for k, column in zip(range(3), zip(*cells)):
        values[k::3] = column
    try:
        return _SWEEP_HEADER + _SWEEP_ROW * len(cells) % tuple(values)
    except TypeError:  # a failed cell's deviation is None, which %e refuses
        pass
    template, values = [], []
    for c in cells:
        if c.deviation is None:
            template.append("%s")
            values.append(_csv((f"{c.delta_ratio:g}", f"{c.j_ratio:g}", f"error: {c.error}"), ()))
        else:
            template.append(_SWEEP_ROW)
            values += c.delta_ratio, c.j_ratio, c.deviation
    return _SWEEP_HEADER + "".join(template) % tuple(values)


def _run_sweep_cmd(p: Mapping, out: str | None, fmt: str) -> int:
    # ExperimentConfig read the payload by SWEEP_FIELDS; run_sweep would read it again
    _write_text(sweep_to_csv(_grid_cells(**p)), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the kind table, dispatch and the command line
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    try:
        return integer(int(text))
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


#: the fields a gate config shares, named as cn_pulse's parameters
_GATE_FIELDS = {
    "system": (system_from_dict, REQUIRED),
    "control": (integer, REQUIRED),
    "target": (integer, REQUIRED),
    "rabi": (finite_reals, None),
    "exact_2pik": (_positive_int, None),
    "phase": (finite_real, 0.0),
}
_VARIANT = partial(_choice, choices=("standard", "complementary"))

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
        "max_abs_deviation": (finite_real, 0.005),
    }),
    "shor": Kind("run-shor", ("json",), _run_shor, _check_shor, {
        "mode": (partial(_choice, choices=shor.MODES), "instantaneous"),
        "tau1": (_non_negative_real, 0.0),
        "tau2": (_non_negative_real, 0.0),
        "energies": (_energies, None),
        "shots": (integer, 0),
    }, flags=("mode", "tau1", "tau2", "energies", "shots"), options={
        "seed": {"type": _seed, "help": "seed for the --shots sampling (default 0)"},
        "trace": {"action": "store_true", "help": "also write the path-trace table"},
    }),
    "design": Kind("design-pulse", ("json",), _run_design, _check_design, {
        "system": (system_from_dict, None),
        "control": (integer, None),
        "target": (integer, None),
        "delta_omega": (finite_real, None),
        "k": (_positive_int, 1),
        "n": (_positive_int, 1),
    }, flags=("delta_omega", "k", "n")),
    "sweep": Kind("sweep", ("csv",), _run_sweep_cmd, None, SWEEP_FIELDS),
}
#: flags that name a JSON file holding the field's value
_FILE_FLAGS = ("energies",)


def parse_config(doc: Mapping) -> ExperimentConfig:
    """Validate a raw config mapping: its ``kind``, then the kind's fields.

    The fields are every entry but ``kind``; ``ExperimentConfig`` reads and
    checks them.  Raises ConfigurationError listing the problems found.
    """
    if not isinstance(doc, Mapping):
        raise ConfigurationError(f"config: expected a JSON object, got {type(doc).__name__}")
    return ExperimentConfig(doc.get("kind"), {k: v for k, v in doc.items() if k != "kind"})


def run_config(
    config,
    out: str | None = None,
    fmt: str | None = None,
    seed: int | None = None,
    trace: bool = False,
) -> int:
    """Validate and run one experiment config; returns the process exit code.

    ``config`` is a config mapping or an ExperimentConfig, read when it was built.
    Output goes to ``out`` (or stdout) as ``fmt`` (or the kind's default).  ``seed``
    and ``trace`` are options of the ``shor`` kind only; either one set for
    another kind raises ConfigurationError, as every invalid config does.
    """
    cfg = config if isinstance(config, ExperimentConfig) else parse_config(config)
    spec = KIND_TABLE[cfg.kind]
    fmt = fmt or spec.formats[0]
    if fmt not in spec.formats:
        raise ConfigurationError(
            f"format: {cfg.kind} output must be {' or '.join(spec.formats)} (got {fmt!r})"
        )
    options = {"seed": seed, "trace": trace}
    unused = [name for name, unset in (("seed", None), ("trace", False))
              if name not in spec.options and options[name] != unset]
    if unused:
        raise ConfigurationError(*(f"{name}: not used with kind {cfg.kind!r}" for name in unused))
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
    doc = read_json(args.config) if args.config else {}
    if isinstance(doc, dict):
        found = doc.setdefault("kind", kind)
        if found != kind:
            raise ConfigurationError(
                f"kind: config is {reprlib.repr(found)}, command needs {kind!r}"
            )
        for name in KIND_TABLE[kind].flags:
            text = getattr(args, name)
            if text is not None:
                doc[name] = read_json(text) if name in _FILE_FLAGS else _flag_value(text)
    return doc


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = {name: getattr(args, name) for name in KIND_TABLE[args.kind].options}
        with np.errstate(over="raise", invalid="raise"):  # inputs too large for doubles
            cfg = parse_config(_config_from_args(args))
            return run_config(cfg, out=args.out, fmt=args.fmt, **options)
    except ConfigurationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"config error: {too_large(str(exc))}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # a config, energies or --out path that is missing, a directory or not permitted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
