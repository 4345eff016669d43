#!/usr/bin/env python3
"""Closed-loop benchmark of spinpulse.

    python3 bench/run_bench.py --workload sweep_grid --seed 1 --seconds 40 --trace 0

One process, one caller, no extra threads: each op starts after the previous
one returned and was checked.  The package is imported from ``src/`` of the
checkout the script sits in; BLAS thread variables default to 1.

The loop runs whole passes over the workload's slots, with inputs drawn
afresh for every pass, and keeps each slot's fastest pass.  On a shared host
the same op can take twice as long in one second as in the next, because
neighbours contend for the core; a slot's fastest pass over a run is the
program's own cost, and repeats from run to run better than a median over
the run does.

``--trace 0`` prints the end-to-end metrics: items (sweep cells, register
experiments or oracle checks) per second and median and tail op latency,
from the slots' fastest passes; the share of ops that passed their output
check; fresh-interpreter set-up time (median of several, spread over the
run); peak RSS; and the lab-frame oracle's error on a fixed set of pulses of
the workload's kind.  ``--trace 1`` alternates untraced and traced passes
over the workload and prints the per-layer metrics (see metrics.py).  Every
op's slot, start and latency, the spans, provenance and failure reasons go
to ``.bench_out/`` in the checkout.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import array
import gzip
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed per run for setup_s, spread over the run, and
#: for the import breakdown
SETUP_PROBES = 7
IMPORT_PROBES = 3
#: untimed ops run first so lazy set-up inside the package is done
WARMUP_OPS = 2
#: percentile of the slots' fastest latencies reported as latency_tail_ms
TAIL_PERCENTILE = 90.0
#: failure reasons kept in the output file
MAX_PROBLEMS = 20
PROBE_TIMEOUT_S = 120


class Loop:
    """What the ops of one side of the loop (traced or not) did."""

    def __init__(self, slots: list):
        # flat arrays, so that memory and garbage collection cost grow little
        # with the number of ops a faster program completes
        self.latencies = array.array("d")
        #: slot and start (seconds into the loop) of every op, for the output file
        self.op_slots = array.array("i")
        self.op_starts = array.array("d")
        #: each slot's fastest latency, and the items of one pass per slot
        self.best = array.array("d", [math.inf] * len(slots))
        self.slot_items = [x.items for x in slots]
        self.items = 0
        self.items_tried = 0
        self.failed = 0
        self.problems: list[str] = []
        #: count name -> (op indices, values)
        self.counts: dict[str, tuple[array.array, array.array]] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def items_per_s(self) -> float:
        """Items of one pass over the slots' fastest latencies, times the checked share."""
        return self.items / self.items_tried * sum(self.slot_items) / sum(self.best)


def run_loop(workload, sides: list[tuple], seconds: float, probe=None) -> list[float]:
    """Run whole passes over the workload until ``seconds`` have passed.

    Passes alternate between ``sides``, each a (tracer, replay, Loop) triple,
    so that slow drift in machine speed falls on every side alike.  When
    ``probe`` is given, it runs SETUP_PROBES times between passes, spread over
    the run, and the list of what it returned is the result.
    """
    probes: list[float] = []
    start = time.perf_counter()
    for n in itertools.count(1):
        tracer, replay, loop = sides[(n - 1) % len(sides)]
        for x in workload.ops(n):
            tracer.op = loop.attempted
            out, problems = None, []
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    out = workload.op(x, tracer)
            except Exception as exc:  # a failed op is counted, not fatal
                problems = [f"op raised {type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            loop.latencies.append(latency)
            loop.op_slots.append(x.slot)
            loop.op_starts.append(t0 - start)
            loop.best[x.slot] = min(loop.best[x.slot], latency)
            loop.items_tried += x.items
            counts = {}
            if out is not None:
                try:
                    problems, counts = workload.check(x, out)
                    if replay and x.replay:
                        with tracer.span("bench.replay"):
                            workload.replay(x, out, tracer)
                except Exception as exc:
                    problems = [f"check or replay raised {type(exc).__name__}: {exc}"]
            for name, value in counts.items():
                ops, values = loop.counts.setdefault(name, (array.array("q"), array.array("d")))
                ops.append(loop.attempted - 1)
                values.append(value)
            if problems:
                loop.failed += 1
                loop.problems.extend(problems[: MAX_PROBLEMS - len(loop.problems)])
            else:
                loop.items += x.items
        elapsed = time.perf_counter() - start
        if probe and len(probes) < SETUP_PROBES * min(1.0, elapsed / seconds):
            probes.append(probe())
        if n % len(sides) == 0 and elapsed >= seconds:
            while probe and len(probes) < SETUP_PROBES:
                probes.append(probe())
            return probes


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_probe(cmd: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to ``import spinpulse`` and build the inputs."""
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    return float(_run_probe(cmd).stdout.split()[-1])


def import_breakdown() -> dict:
    """Median import times from ``python -X importtime -c "import spinpulse"``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import spinpulse"]
    samples = {"import.numpy_ms": [], "import.spinpulse_ms": [], "import.cli_deps_ms": []}
    for _ in range(IMPORT_PROBES):
        cumulative = {}
        for line in _run_probe(cmd, _probe_env()).stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        numpy_ms = cumulative.get("numpy", 0.0)
        samples["import.numpy_ms"].append(numpy_ms)
        samples["import.spinpulse_ms"].append(cumulative["spinpulse"] - numpy_ms)
        samples["import.cli_deps_ms"].append(
            cumulative.get("argparse", 0.0) + cumulative.get("csv", 0.0)
        )
    return {name: statistics.median(values) for name, values in samples.items()}


def provenance(seed: int) -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
        revision = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _metric(name: str, value: float, spec) -> dict:
    unit = next(s[1] for s in spec if s[0] == name)
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup: list[float], oracle_error: float) -> tuple[dict, dict]:
    latencies_ms = [s * 1e3 for s in loop.best]
    tail = metrics.percentile(latencies_ms, TAIL_PERCENTILE)
    every_ms = [s * 1e3 for s in loop.latencies]
    values = {
        "items_per_s": loop.items_per_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail,
        "ok_ops_frac": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_max_error": oracle_error,
    }
    info = {
        "latency_slots": len(latencies_ms),
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_tail_slots_beyond": sum(v > tail for v in latencies_ms),
        # the same statistics over every op of the run, contention included
        "all_ops_latency_p50_ms": statistics.median(every_ms),
        "all_ops_latency_p99_ms": metrics.percentile(every_ms, 99.0),
        "all_ops_items_per_s": loop.items / sum(loop.latencies),
        "setup_s_samples": setup,
    }
    errors = loop.counts.get("oracle_error", ((), ()))[1]
    if errors:
        info["op_oracle_error_max"] = max(errors)
        info["op_oracle_error_median"] = statistics.median(errors)
    return {n: _metric(n, values[n], metrics.END_TO_END) for n, *_ in metrics.END_TO_END}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinpulse" / "__init__.py").is_file():
        print(f"error: no spinpulse sources under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import spinpulse

    if Path(spinpulse.__file__).resolve().parent != (SRC / "spinpulse").resolve():
        print(f"error: spinpulse imported from {spinpulse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        imports = import_breakdown() if args.trace == 1 else {}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    for x in workload.ops(0)[:WARMUP_OPS]:
        try:
            workload.check(x, workload.op(x, spans.NullTracer()))
        except Exception:  # the measured loop counts the failure
            pass

    info = provenance(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    record: dict = {"info": info}
    if args.trace == 0:
        loop = Loop(workload.slots)
        try:
            setup = run_loop(
                workload,
                [(spans.NullTracer(), False, loop)],
                args.seconds,
                probe=lambda: setup_seconds(args.workload, args.seed),
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        oracle_error = workloads.oracle_max_error(workload)
        if not math.isfinite(oracle_error):
            print(f"error: lab-frame oracle error is {oracle_error}", file=sys.stderr)
            return 3
        values, extra = end_to_end(loop, setup, oracle_error)
        info.update(extra)
        loops = [loop]
        correct = loop.failed == 0
    else:
        plain, traced, tracer = Loop(workload.slots), Loop(workload.slots), spans.Tracer()
        run_loop(workload, [(spans.NullTracer(), False, plain), (tracer, True, traced)], args.seconds)
        overhead = 1.0 - traced.items_per_s / plain.items_per_s if plain.items else 0.0
        recorded = tracer.spans
        counts = {name: dict(zip(*pair)) for name, pair in traced.counts.items()}
        layer = metrics.per_layer(recorded, counts, traced.attempted, imports, overhead)
        values = {n: _metric(n, layer[n], metrics.PER_LAYER) for n, *_ in metrics.PER_LAYER}
        info["moves"] = {name: moves for name, _, _, moves in metrics.PER_LAYER}
        t_zero = recorded[0][2] if recorded else 0.0
        record["spans"] = {
            "fields": ["name", "tag", "start_us", "end_us", "parent", "op"],
            "records": [
                [name, tag, round((t0 - t_zero) * 1e6, 1), round((t1 - t_zero) * 1e6, 1), parent, op]
                for name, tag, t0, t1, parent, op in recorded
            ],
        }
        loops = [plain, traced]
        correct = all(lp.failed == 0 for lp in loops)
    record["ops"] = {
        "fields": ["loop", "slot", "start_s", "latency_s"],
        "records": [
            [side, *rec]
            for side, lp in enumerate(loops)
            for rec in zip(lp.op_slots, lp.op_starts, lp.latencies)
        ],
    }
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    info["problems"] = [p for lp in loops for p in lp.problems][:MAX_PROBLEMS]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    with gzip.open(out_file, "wt", encoding="utf-8") as fh:
        json.dump(record, fh)
    summary = {k: v for k, v in info.items() if k != "moves"}
    print(json.dumps({"info": summary, "details": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
