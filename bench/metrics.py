"""Metric definitions of the benchmark and the statistics that produce them.

``END_TO_END`` metrics come from the untraced run, ``PER_LAYER`` metrics
from the traced run.  Each per-layer entry names the end-to-end metric and
workload it should move; BENCHMARK.json lists the same names and units.

Every workload reports every end-to-end metric:

* ``ok_ops_frac`` is 1 - (failed ops / attempted ops), so that it never
  reads 0; an op fails on an exception, a non-finite result or a failed
  output check.
* ``items_per_s``, ``latency_p50_ms`` and ``latency_tail_ms`` come from each
  slot's fastest pass over the run (see run_bench.py); the tail is the 90th
  percentile of those latencies, and the run's output states how many slots
  lie beyond it, next to the same statistics over every op of the run.
* ``oracle_max_error`` is the largest amplitude error of
  ``integrate_lab_frame`` against ``evolve_pulse`` over a fixed, seed-free
  set of pulses of the workload's own kind, so it repeats exactly; only on
  ``lab_oracle`` does it include the tau = 314 pulse.
"""

from __future__ import annotations

import math
import statistics

import spans as spanlib

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("ok_ops_frac", "frac", "higher", 0.001),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("oracle_max_error", "amplitude", "lower", 0.05),
)

_SWEEP = "items_per_s on sweep_grid; no change on lab_oracle"
_REGISTER = "items_per_s, latency_p50_ms and latency_tail_ms on register4; no change elsewhere"
_ORACLE = "items_per_s and latency_tail_ms on lab_oracle"
_SETUP = "setup_s on every workload"
_LAYER = "items_per_s on the workloads where the layer runs"

# name, unit, better, the end-to-end metric it should move and on which workload
PER_LAYER = (
    ("model.spin_system_us", "us", "lower", _SWEEP),
    ("model.diagonal_energies_us", "us", "lower", _SWEEP + "; register4 at dim 16"),
    ("model.build_rotating_hamiltonian_us", "us", "lower", _SWEEP),
    ("design.cn_pulse_us", "us", "lower", _SWEEP + "; register4 too"),
    ("dynamics.pulse_propagator_dim4_us", "us", "lower", _SWEEP),
    ("dynamics.to_interaction_picture_us", "us", "lower", _SWEEP),
    ("ensemble.deviation_metric_us", "us", "lower", _SWEEP),
    ("cli.parse_config_us", "us", "lower", _SWEEP + "; latency_p50_ms there"),
    ("cli.run_config_ms", "ms", "lower", "items_per_s and both latencies on sweep_grid"),
    ("cli.sweep_to_csv_us", "us", "lower", _SWEEP),
    ("dynamics.pulse_propagator_dim16_us", "us", "lower", _REGISTER),
    ("ensemble.evolve_deviation_us", "us", "lower", _REGISTER),
    ("ensemble.to_interaction_picture_us", "us", "lower", _REGISTER),
    ("shor.energy_table_us", "us", "lower", _REGISTER),
    ("shor.run_shor_bare_delay_us", "us", "lower", _REGISTER),
    ("shor.run_shor_bare_delay_trace_us", "us", "lower", _REGISTER),
    ("shor.run_shor_natural_phase_us", "us", "lower", _REGISTER),
    ("shor.run_shor_natural_phase_trace_us", "us", "lower", _REGISTER),
    ("shor.extract_period_us", "us", "lower", _REGISTER),
    ("shor.path_terms", "count", "lower", _REGISTER + " (exact count per traced run)"),
    ("dynamics.integrate_lab_frame_ms", "ms", "lower", _ORACLE),
    ("dynamics.lab_frame_propagator_ms", "ms", "lower", _ORACLE + ", and oracle_max_error there"),
    ("dynamics.rk4_steps", "count_computed", "lower", _ORACLE + ", and oracle_max_error there"),
    ("dynamics.rk4_step_us", "us_computed", "lower", _ORACLE),
    ("dynamics.evolve_pulse_us", "us", "lower", _ORACLE + " (the reference route, a small share)"),
    ("import.numpy_ms", "ms", "lower", _SETUP),
    ("import.spinpulse_ms", "ms", "lower", _SETUP),
    ("import.cli_deps_ms", "ms", "lower", _SETUP),
    *(
        (f"{layer}.{what}", unit, "lower", f"{_LAYER}: {where}")
        for layer, where in (
            ("model", "sweep_grid, register4"),
            ("design", "sweep_grid, register4"),
            ("dynamics", "lab_oracle, sweep_grid, register4"),
            ("ensemble", "register4, sweep_grid"),
            ("shor", "register4"),
            ("cli", "sweep_grid"),
        )
        for what, unit in (("calls", "count"), ("busy_ms", "ms"))
    ),
    ("trace_overhead_frac", "frac", "lower", "none: the cost of tracing itself"),
)

LAYERS = ("model", "design", "dynamics", "ensemble", "shor", "cli")
_SCALE = {"us": 1e6, "ms": 1e3}


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile (inclusive method) of a sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(spans, op_counts, n_ops: int, imports: dict, overhead: float) -> dict:
    """Per-layer values from the traced run's spans and per-op counts.

    ``op_counts`` maps a count's name to ``{op index: value}``.

    Timings are per-call medians; ``<layer>.calls`` and ``<layer>.busy_ms``
    (self time) are per op, counting replay spans with their op.  A layer the
    workload never calls reports 0.
    """
    durations: dict[str, list[float]] = {}
    for record in spans:
        durations.setdefault(spanlib.key(record), []).append(record[3] - record[2])
    own = spanlib.self_times(spans)
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for record, seconds in zip(spans, own):
        layer = record[0].split(".", 1)[0]
        if layer in calls:
            calls[layer] += 1
            busy[layer] += seconds

    path_terms = op_counts.get("shor.path_terms", {})
    traced_runs = sum(op_counts.get("shor.traced_runs", {}).values())
    steps = op_counts.get("dynamics.rk4_steps", {})
    step_us = [
        (r[3] - r[2]) * 1e6 / steps[r[5]]
        for r in spans
        if r[0] == "dynamics.lab_frame_propagator" and r[5] in steps
    ]
    special = {
        "shor.path_terms": sum(path_terms.values()) / traced_runs if traced_runs else 0,
        "dynamics.rk4_steps": statistics.median(steps.values()) if steps else 0,
        "dynamics.rk4_step_us": statistics.median(step_us) if step_us else 0.0,
        "trace_overhead_frac": overhead,
        **imports,
    }
    for layer in LAYERS:
        special[f"{layer}.calls"] = calls[layer] / n_ops
        special[f"{layer}.busy_ms"] = busy[layer] * 1e3 / n_ops

    values = {}
    for name, unit, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
        else:
            samples = durations.get(name.rsplit("_", 1)[0], ())
            values[name] = statistics.median(samples) * _SCALE[unit] if samples else 0.0
    return values
