"""Tests for the batch runner: config validation, subcommand outputs,
exit codes, and sweep determinism.

The block-batched sweep is pinned bit for bit to the library's own
per-cell route, ``library_cell_deviation``: one system, two ``cn_pulse``s
and two ``evolve_pulse``s of the test state per cell.  ``reference_cell_deviation``, an
independent per-cell copy that builds each propagator by a complex
eigensolve of ``build_rotating_hamiltonian``, agrees within 1e-11.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinpulse import (
    BACKGROUND_DIAGONAL,
    ConfigurationError,
    EnergyTable,
    QuantumState,
    SpinSystem,
    build_rotating_hamiltonian,
    cn_pulse,
    deviation_metric,
    diagonal_energies,
    evolve_pulse,
    run_config,
    run_shor,
    run_sweep,
    sweep_to_csv,
    to_interaction_picture,
    total_spin_z,
)
from spinpulse import cli, shor, sweep
from spinpulse.cli import (
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    KIND_TABLE,
    ExperimentConfig,
    SweepCell,
    main,
    parse_config,
)
from spinpulse.model import REQUIRED, read_fields
from spinpulse.sweep import _MAX_AXIS_VALUES, _SWEEP_BLOCK, SWEEP_FIELDS, SWEEP_INITIAL

from conftest import GATE_FINAL, GATE_INITIAL, loop_trace

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP_CONFIG = str(CONFIGS / "sweep.json")
ENSEMBLE_CONFIG = str(CONFIGS / "ensemble.json")
SHOR_ENERGIES = str(CONFIGS / "shor_energies.json")


def pairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def cn_config(**overrides):
    doc = {
        "kind": "cn",
        "system": {
            "n_spins": 2,
            "larmor": [500.0, 100.0],
            "couplings": [[0.0, 5.0], [5.0, 0.0]],
        },
        "control": 0,
        "target": 1,
        "variant": "standard",
        "rabi": [0.5, 0.1],
        "initial_state": pairs(GATE_INITIAL),
        "reference_state": pairs(GATE_FINAL),
        "min_fidelity": 0.99,
    }
    doc.update(overrides)
    return doc


def ensemble_config(**overrides):
    r_after = np.array(
        [
            [0.2000, 0.2449, 0.2582j, 0.1826j],
            [0.2449, 0.3000, 0.3162j, 0.2236j],
            [-0.2582j, -0.3162j, 0.3333, 0.2357],
            [-0.1826j, -0.2236j, 0.2357, 0.1666],
        ]
    )
    doc = {
        "kind": "ensemble",
        "system": {
            "n_spins": 4,
            "larmor": [100.0, 200.0, 300.0, 400.0],
            "couplings": [
                [0.0, 10.0, 10.0, 10.0],
                [10.0, 0.0, 10.0, 10.0],
                [10.0, 10.0, 0.0, 10.0],
                [10.0, 10.0, 10.0, 0.0],
            ],
        },
        "control": 2,
        "target": 3,
        "variant": "complementary",
        "rabi": [0.1, 0.1, 0.1, 0.1],
        "initial_amplitudes": pairs(GATE_INITIAL),
        "reference_active": [pairs(row) for row in r_after],
        "max_abs_deviation": 0.005,
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            parse_config({"kind": "teleport"})

    def test_missing_rabi_named(self):
        doc = cn_config()
        del doc["rabi"]
        with pytest.raises(ConfigurationError, match="rabi"):
            parse_config(doc)

    def test_missing_system_named(self):
        doc = cn_config()
        del doc["system"]
        with pytest.raises(ConfigurationError, match="system"):
            parse_config(doc)

    def test_bad_amplitude_shape_named(self):
        with pytest.raises(ConfigurationError, match="initial_state"):
            parse_config(cn_config(initial_state=[[1.0, 0.0]]))

    def test_sweep_axes_must_be_sorted(self):
        doc = {"kind": "sweep", "delta_ratios": [300.0, 30.0], "j_ratios": [5.0]}
        with pytest.raises(ConfigurationError, match="sorted"):
            parse_config(doc)

    def test_sweep_axes_must_be_positive(self):
        doc = {"kind": "sweep", "delta_ratios": [0.0, 30.0], "j_ratios": [5.0]}
        with pytest.raises(ConfigurationError, match="positive"):
            parse_config(doc)

    def test_sweep_axis_length_is_bounded(self):
        axis = np.arange(1.0, _MAX_AXIS_VALUES + 2).tolist()
        parse_config({"kind": "sweep", "delta_ratios": axis[:-1], "j_ratios": [5.0]})
        message = f"^j_ratios: axis must have at most {_MAX_AXIS_VALUES} values, got {len(axis)}$"
        with pytest.raises(ConfigurationError, match=message):
            parse_config({"kind": "sweep", "delta_ratios": [30.0], "j_ratios": axis})

    def test_shor_delay_mode_needs_energies(self):
        with pytest.raises(ConfigurationError, match="energies"):
            parse_config({"kind": "shor", "mode": "bare-delay", "tau1": 1.0})

    @pytest.mark.parametrize(
        "doc, field",
        [
            (cn_config(control=0.7), "control"),
            (cn_config(target=True), "target"),
            (cn_config(control="0"), "control"),
            (cn_config(exact_2pik=1.5), "exact_2pik"),
            ({"kind": "design", "delta_omega": 1.0, "k": 2.7}, "k"),
            ({"kind": "design", "delta_omega": 1.0, "n": "2"}, "n"),
            ({"kind": "design", "delta_omega": 1.0, "k": 0}, "k"),
            ({"kind": "shor", "shots": 64.5}, "shots"),
            ({"kind": "shor", "shots": True}, "shots"),
            ({"kind": "shor", "shots": -1}, "shots"),
            ({"kind": "sweep", "delta_ratios": [30.0], "j_ratios": [5.0], "rabi": 0}, "rabi"),
            ({"kind": "sweep", "delta_ratios": [30.0], "j_ratios": [5.0], "rabi": -0.1}, "rabi"),
            (cn_config(rabi=[0.5, "0.1"]), "rabi"),
            (cn_config(phase="0.5"), "phase"),
        ],
    )
    def test_strict_field_rejected_alone(self, doc, field):
        # integers reject fractions, bools and strings instead of truncating them
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert [problem.split(":")[0] for problem in exc.value.problems] == [field]

    def test_integral_float_accepted_as_int(self):
        cfg = parse_config({"kind": "design", "delta_omega": 1.0, "k": 3.0})
        assert cfg.payload["k"] == 3 and isinstance(cfg.payload["k"], int)

    def test_unknown_fields_named(self):
        doc = cn_config(rabbi=[0.5, 0.1], output={"path": "x.json", "fmt": "csv"})
        with pytest.raises(ConfigurationError) as exc:
            parse_config(doc)
        assert [problem.split(":")[0] for problem in exc.value.problems] == ["rabbi", "output"]

    def test_run_config_takes_no_path(self):
        # main reads the file; a path given to run_config is not a config document
        with pytest.raises(ConfigurationError, match="expected a JSON object, got str"):
            run_config(ENSEMBLE_CONFIG)

    def test_nested_document_problems_carry_its_field(self):
        system = {**cn_config()["system"], "rabbi": 1, "larmor": None}
        with pytest.raises(ConfigurationError) as exc:
            parse_config(cn_config(system=system))
        assert exc.value.problems == [
            "system: rabbi: unknown field", "system: larmor: required field missing"
        ]

    def test_nested_system_error_carries_its_field(self):
        # SpinSystem's own one-text error, under the field that held the system
        system = {**cn_config()["system"], "couplings": [[0.0, 5.0], [4.0, 0.0]]}
        with pytest.raises(ConfigurationError) as exc:
            parse_config(cn_config(system=system))
        assert exc.value.problems == ["system: couplings must be symmetric"]

    def test_rabi_with_exact_2pik_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(cn_config(exact_2pik=1))
        assert exc.value.problems == ["rabi: not used with exact_2pik"]

    def test_sweep_fields_are_run_sweeps_arguments(self):
        assert KIND_TABLE["sweep"].fields is SWEEP_FIELDS
        cells = run_sweep([30.0], [5.0], rabi=None, base_larmor=None)
        assert cells == run_sweep([30.0], [5.0], rabi=0.1, base_larmor=100.0)

    def test_design_takes_one_route(self):
        doc = {
            "kind": "design",
            "system": cn_config()["system"],
            "control": 0,
            "target": 1,
            "delta_omega": 10.0,
        }
        with pytest.raises(ConfigurationError, match="delta_omega: not used with system"):
            parse_config(doc)
        with pytest.raises(ConfigurationError, match="control: not used without system"):
            parse_config({"kind": "design", "delta_omega": 10.0, "control": 0})

    @pytest.mark.parametrize(
        "kind, payload, fields",
        [
            ("cn", {}, ["system", "control", "target", "initial_state"]),
            ("sweep", {"delta_ratios": [30.0], "j_ratios": [5.0], "rabi": "x"}, ["rabi"]),
            ("sweep", {"delta_ratios": [2.0, 1.0], "j_ratios": [5.0]}, ["delta_ratios"]),
            ("teleport", {}, ["kind"]),
        ],
    )
    def test_hand_built_config_is_read_by_its_fields(self, kind, payload, fields):
        # a bare KeyError, a bare ValueError and an unsorted axis that ran,
        # when run_config trusted a hand-built payload
        with pytest.raises(ConfigurationError) as exc:
            run_config(ExperimentConfig(kind, payload))
        assert [problem.split(":")[0] for problem in exc.value.problems] == fields

    def test_config_holds_its_fields_as_read(self):
        cfg = ExperimentConfig("sweep", {"delta_ratios": [30], "j_ratios": [5.0]})
        assert cfg.payload == {
            "delta_ratios": [30.0], "j_ratios": [5.0], "rabi": 0.1, "base_larmor": 100.0
        }
        assert cfg == parse_config({"kind": "sweep", "delta_ratios": [30], "j_ratios": [5.0]})
        with pytest.raises(AttributeError):
            cfg.kind = "cn"
        with pytest.raises(TypeError):  # read-only: no field can change after the reading
            cfg.payload["rabi"] = "x"

    def test_demo_configs_parse(self):
        for path in sorted(Path(SWEEP_CONFIG).parent.glob("*.json")):
            doc = json.loads(path.read_text())
            if "kind" in doc:
                assert parse_config(doc).kind == doc["kind"]


class TestRunCn:
    def test_gate_config_passes(self, tmp_path, capsys):
        out = tmp_path / "cn.json"
        code = run_config(cn_config(), out=str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["fidelity"] >= 0.99
        assert doc["carrier"] == pytest.approx(95.0)

    def test_tolerance_failure_exit_code(self, tmp_path):
        # an impossible fidelity bound must trip the tolerance exit code
        code = run_config(cn_config(min_fidelity=0.99999999), out=str(tmp_path / "r.json"))
        assert code == EXIT_TOLERANCE

    def test_csv_output(self, tmp_path):
        out = tmp_path / "cn.csv"
        code = run_config(cn_config(), out=str(out), fmt="csv")
        assert code == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["state", "re", "im"]
        assert len(rows) == 5


class TestRunEnsemble:
    def test_reference_comparison_passes(self, tmp_path):
        out = tmp_path / "ensemble.csv"
        code = run_config(ensemble_config(), out=str(out))
        assert code == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["row", "col", "re", "im"]
        assert len(rows) == 1 + 16 + 12  # header + active block + background diag
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["passed"] is True
        assert summary["max_abs_deviation"] < 0.005
        assert summary["max_abs_deviation_background"] < 0.005

    def test_tolerance_failure(self, tmp_path):
        code = run_config(
            ensemble_config(max_abs_deviation=1e-9), out=str(tmp_path / "e.csv")
        )
        assert code == EXIT_TOLERANCE

    def test_csv_table_and_summary_on_one_path_rejected(self, tmp_path, capsys):
        config = tmp_path / "ensemble_config.json"
        config.write_text(json.dumps(ensemble_config()))
        out = tmp_path / "x.json"
        code = main(["run-ensemble", "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "config error: out:" in capsys.readouterr().err
        assert not out.exists()

    def test_json_format_single_document(self, tmp_path):
        out = tmp_path / "ensemble.json"
        code = run_config(ensemble_config(), out=str(out), fmt="json")
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert "active_block" in doc and "background_diagonal" in doc


def test_overflowing_ensemble_is_a_configuration_error():
    # the energies overflow; eigh raised LinAlgError on them before
    doc = ensemble_config(system={**ensemble_config()["system"], "larmor": [1e308] * 4})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigurationError, match="double precision"):
            run_config(doc)


class TestRunShor:
    def test_instantaneous_result(self, tmp_path):
        out = tmp_path / "shor.json"
        code = run_config({"kind": "shor", "mode": "instantaneous"}, out=str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["period"] == 2 and doc["factor"] == 2
        np.testing.assert_allclose(doc["x_distribution"], [0.5, 0, 0.5, 0], atol=1e-12)

    def test_trace_table_written(self, tmp_path):
        out = tmp_path / "shor.json"
        config = {
            "kind": "shor",
            "mode": "bare-delay",
            "tau1": 1.0,
            "tau2": 2.0,
            "energies": {"table": np.arange(16.0).reshape(4, 4).tolist()},
        }
        code = run_config(config, out=str(out), trace=True)
        assert code == EXIT_OK
        trace_rows = list(
            csv.reader(out.with_suffix(".trace.csv").read_text().splitlines())
        )
        assert trace_rows[0] == ["final_state", "path", "phase", "magnitude"]
        energies = EnergyTable.from_xy_table(config["energies"]["table"])
        expected = [
            (index, states, phase, magnitude)
            for index, terms in sorted(loop_trace("bare-delay", (1.0, 2.0), energies).items())
            for states, phase, magnitude in terms
        ]
        assert len(trace_rows) == 1 + len(expected) == 17
        for row, (index, states, phase, magnitude) in zip(trace_rows[1:], expected):
            assert row[:2] == [str(index), ">".join(map(str, states))]
            assert abs(float(row[2]) - phase) <= 1e-12
            assert abs(float(row[3]) - magnitude) <= 1e-12

    def test_no_period_is_null_with_the_reason(self, monkeypatch, tmp_path):
        # no run_shor distribution lacks a period, so the extraction is made to fail
        def no_period(distribution):
            raise shor.PeriodExtractionError("no support on x > 0: no period information")

        monkeypatch.setattr(shor, "extract_period", no_period)
        out = tmp_path / "shor.json"
        assert run_config({"kind": "shor"}, out=str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert (doc["period"], doc["factor"]) == (None, None)
        assert doc["note"] == "no support on x > 0: no period information"
        assert "x_measured" not in doc

    def test_sampling_deterministic_for_seed(self, tmp_path):
        config = {"kind": "shor", "mode": "instantaneous", "shots": 64}
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_config(config, out=str(out1), seed=11)
        run_config(config, out=str(out2), seed=11)
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize(
        "config, option",
        [
            (cn_config(), {"seed": 3}),
            (cn_config(), {"seed": 0}),
            (ensemble_config(), {"trace": True}),
            ({"kind": "design", "delta_omega": 2.0}, {"seed": 1}),
            ({"kind": "sweep", "delta_ratios": [30.0], "j_ratios": [5.0]}, {"trace": True}),
        ],
    )
    def test_options_rejected_for_other_kinds(self, tmp_path, config, option):
        # seed and trace were dropped without a word for every kind but shor
        [name] = option
        out = tmp_path / "out.txt"
        message = f"^{name}: not used with kind '{config['kind']}'$"
        with pytest.raises(ConfigurationError, match=message):
            run_config(config, out=str(out), **option)
        assert not out.exists()
        assert run_config(config, out=str(out), seed=None, trace=False) == EXIT_OK


class TestDesignPulse:
    def test_direct_parameters(self, tmp_path):
        out = tmp_path / "design.json"
        config = {"kind": "design", "delta_omega": 10.0, "k": 1, "n": 1}
        assert run_config(config, out=str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["rabi"] == pytest.approx(10.0 / np.sqrt(3.0))
        assert doc["tau"] == pytest.approx(np.sqrt(3.0) * np.pi / 10.0)
        assert set(doc) == {"omega", "rabi", "tau", "k", "n", "delta_omega"}

    def test_system_route_derives_carrier_and_detuning(self, tmp_path):
        out = tmp_path / "design.json"
        config = {
            "kind": "design",
            "system": {
                "n_spins": 2,
                "larmor": [500.0, 100.0],
                "couplings": [[0.0, 5.0], [5.0, 0.0]],
            },
            "control": 0,
            "target": 1,
            "k": 1,
            "n": 1,
        }
        assert run_config(config, out=str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["omega"] == pytest.approx(95.0)
        assert doc["delta_omega"] == pytest.approx(10.0)

    def test_zero_detuning_invalid(self):
        with pytest.raises(ConfigurationError, match="delta_omega"):
            parse_config({"kind": "design", "delta_omega": 0.0})


#: entries of a sweep axis: floats of every kind (NaN, inf, 0, -0.0 and negatives
#: included), ints inside and past int64, and entries the rule refuses
_AXIS_ENTRY = st.one_of(
    st.floats(),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=-3, max_value=2**64 + 3),
    st.sampled_from([True, False, "1", None, 1j, [1.0], [[2.0]], 2**63 - 1, 2**63, 2**62 + 1,
                     10**400]),
)
#: entries of a valid axis, the ints among them up to just past int64
_POSITIVE_ENTRY = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
    st.integers(min_value=1, max_value=2**63 + 2),
)


@st.composite
def axis_values(draw):
    """A list of any entries; a sorted list of positive ones, with a duplicate or one entry
    replaced by any other, reversed or nested; or 1024 or 1025 values, one of them perhaps
    replaced; as a list, a tuple or (of numbers) an array."""
    kind = draw(st.sampled_from(["mixed", "sorted", "long"]))
    containers = [list, tuple]
    if kind == "mixed":
        values = draw(st.lists(_AXIS_ENTRY, max_size=6))
    elif kind == "sorted":
        values = sorted(draw(st.lists(_POSITIVE_ENTRY, min_size=1, max_size=8)))
        i = draw(st.integers(0, len(values) - 1))
        change = draw(st.sampled_from(["none", "duplicate", "replace"]))
        if change == "duplicate":
            values.insert(i, values[i])
        elif change == "replace":
            values[i] = draw(_AXIS_ENTRY)
        values = draw(st.sampled_from([values, values[::-1], [values]]))
        if change != "replace":
            containers.append(np.array)
    else:
        values = [float(i) for i in range(1, draw(st.sampled_from([1024, 1025])) + 1)]
        if draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = draw(_AXIS_ENTRY)
    return draw(st.sampled_from(containers))(values)


def _outcome(read, value):
    """What ``read(value)`` returns, or the type and text of its ValueError."""
    try:
        return read(value)
    except ValueError as exc:
        return type(exc), str(exc)


class TestSweepAxis:
    @settings(max_examples=300, deadline=None)
    @given(axis_values())
    @example([True]).via("a bool, refused")
    @example([1.0, 2**63]).via("an int past int64 after a float")
    @example([2**62 + 1, 2.0**62]).via("ints that round to an equal float")
    @example([1, 2.5, 2.5, 3, 2**63 - 1]).via("ints and floats, a duplicate")
    def test_axis_reads_as_the_array_rule(self, values):
        # a list of Python numbers takes a one-pass read; whatever the value,
        # the axis and every refusal are the array rule's, bit for bit and word for word
        expected = _outcome(sweep._array_axis, values)
        read = _outcome(sweep.axis, values)
        assert read == expected
        if isinstance(expected, list):
            assert [type(v) for v in read] == [float] * len(expected)
            assert [v.hex() for v in read] == [v.hex() for v in expected]
        doc = {"delta_ratios": values, "j_ratios": [5.0]}
        array_fields = {**SWEEP_FIELDS, "delta_ratios": (sweep._array_axis, REQUIRED)}
        assert _outcome(lambda d: read_fields(d, SWEEP_FIELDS), doc) == _outcome(
            lambda d: read_fields(d, array_fields), doc
        )


class TestSweep:
    def test_rows_and_determinism(self):
        cells = run_sweep([30.0, 300.0], [5.0], rabi=0.1)
        assert len(cells) == 2
        assert sweep_to_csv(cells) == sweep_to_csv(run_sweep([30.0, 300.0], [5.0], rabi=0.1))

    def test_cells_independent_of_order(self):
        forward = {
            (c.delta_ratio, c.j_ratio): c.deviation
            for c in run_sweep([30.0, 300.0], [5.0, 50.0])
        }
        for dr in (300.0, 30.0):
            for jr in (50.0, 5.0):
                assert run_sweep([dr], [jr])[0].deviation == forward[(dr, jr)]

    @pytest.mark.parametrize(
        "args, problem",
        [
            (([300.0, 30.0], [5.0]), "delta_ratios: axis must be sorted"),
            (([30.0], [0.0]), "j_ratios: axis values must be strictly positive"),
            (([30.0], [5.0], 0.0), "rabi: must be > 0"),
            (([30.0], [5.0], 10**400), "rabi: int too large"),
            (([30.0], [5.0], 0.1, "100"), "base_larmor: expected a number"),
        ],
    )
    def test_bad_arguments_rejected(self, args, problem):
        with pytest.raises(ConfigurationError, match=f"^{problem}"):
            run_sweep(*args)

    def test_cell_is_an_immutable_value(self):
        cell = run_sweep([30.0], [5.0])[0]
        with pytest.raises(AttributeError):
            cell.deviation = 0.0
        assert cell == SweepCell(30.0, 5.0, cell.deviation)
        assert cell == SweepCell(30.0, 5.0, cell.deviation, None)

    def test_degradation_toward_small_separation(self):
        assert run_sweep([30.0], [5.0])[0].deviation > run_sweep([300.0], [5.0])[0].deviation

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        config = {"kind": "sweep", "delta_ratios": [30.0, 300.0], "j_ratios": [5.0]}
        assert run_config(config, out=str(out)) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["delta_ratio", "j_ratio", "deviation"]
        assert len(rows) == 3

    def test_csv_is_the_csv_module_rows(self):
        # numbers are never quoted; error texts are, as the csv module quotes them
        cells = [
            SweepCell(1.0, 2.0, None, error='a, "b"'),
            SweepCell(30.0, 5.0, 0.05053841562324),
            SweepCell(0.5, 1e-7, None, error="line\nbreak"),
            SweepCell(1e300, 123456789.0, 1.5e-300),
            SweepCell(2.0, 4.0, None, error="carriage\rreturn, comma"),
            SweepCell(3.0, 4.0, None, error="plain"),
            SweepCell(-0.0, 7.0, 0.0, error=None),
        ]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["delta_ratio", "j_ratio", "deviation"])
        for c in cells:
            value = f"error: {c.error}" if c.deviation is None else f"{c.deviation:.12e}"
            writer.writerow([f"{c.delta_ratio:g}", f"{c.j_ratio:g}", value])
        assert sweep_to_csv(cells) == buf.getvalue()
        assert sweep_to_csv(cells[:1]) == 'delta_ratio,j_ratio,deviation\r\n1,2,"error: a, ""b"""\r\n'
        assert sweep_to_csv([]) == "delta_ratio,j_ratio,deviation\r\n"

    def test_demo_config_csv_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", SWEEP_CONFIG, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (
            b"delta_ratio,j_ratio,deviation\r\n"
            b"30,5,5.053841562324e-02\r\n"
            b"30,50,3.493961483434e-02\r\n"
            b"100,5,1.740511257251e-02\r\n"
            b"100,50,1.187114941619e-02\r\n"
            b"300,5,6.076078776805e-03\r\n"
            b"300,50,5.009556155412e-03\r\n"
            b"1000,5,1.854106755411e-03\r\n"
            b"1000,50,1.735731214605e-03\r\n"
        )


def reference_cell_deviation(delta_ratio, j_ratio, rabi=0.1, base_larmor=100.0):
    """The sweep cell as it was computed before batching, one cell at a time."""
    system = SpinSystem.uniform([base_larmor + delta_ratio * rabi, base_larmor], j_ratio * rabi)
    z = total_spin_z(2)
    rhos = []
    for drive_control in (True, False):
        amplitudes = [rabi if drive_control else 0.0, rabi]
        pulse = cn_pulse(system, control=0, target=1, variant="standard", rabi=amplitudes)
        vals, vecs = np.linalg.eigh(build_rotating_hamiltonian(system, pulse))
        u_rot = (vecs * np.exp(-1j * vals * pulse.duration)) @ vecs.conj().T
        t_start, t_end = 0.0, pulse.duration
        u = (
            np.exp(1j * pulse.carrier * t_end * z)[:, None]
            * u_rot
            * np.exp(-1j * pulse.carrier * t_start * z)[None, :]
        )
        final = u @ np.asarray(SWEEP_INITIAL, dtype=complex)
        psi = np.exp(1j * diagonal_energies(system) * t_end) * final
        rhos.append(np.outer(psi, psi.conj()))
    return deviation_metric(rhos[0], rhos[1])


def library_cell_deviation(delta_ratio, j_ratio, rabi, base_larmor):
    """The sweep cell through the public route: cn_pulse, evolve_pulse (a
    real eigensolve), to_interaction_picture and deviation_metric."""
    system = SpinSystem.uniform([base_larmor + delta_ratio * rabi, base_larmor], j_ratio * rabi)
    rhos = []
    for control_rabi in (rabi, 0.0):
        pulse = cn_pulse(system, control=0, target=1, variant="standard", rabi=[control_rabi, rabi])
        final = evolve_pulse(QuantumState(SWEEP_INITIAL), system, pulse)
        psi = to_interaction_picture(final, system, pulse.duration).amplitudes
        rhos.append(np.outer(psi, psi.conj()))
    return deviation_metric(rhos[0], rhos[1])


def reference_sweep(delta_ratios, j_ratios, rabi=0.1, base_larmor=100.0):
    cells = []
    for dr in delta_ratios:
        for jr in j_ratios:
            try:
                cells.append(SweepCell(dr, jr, library_cell_deviation(dr, jr, rabi, base_larmor)))
            except Exception as exc:
                cells.append(SweepCell(dr, jr, None, error=str(exc)))
    return cells


def random_axis(rng, count, low, high):
    return sorted(set(np.exp(rng.uniform(np.log(low), np.log(high), count)).tolist()))


def main_sweep_csv(tmp_path, doc):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"kind": "sweep", **doc}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "--config", str(config)])
    return code, out.getvalue()


#: delta_ratio 1e308 overflows the Larmor frequency and j_ratio 1e308 the
#: coupling at rabi 10; delta_ratio 1e307 is finite but near the edge
HOSTILE_GRID = {"delta_ratios": [30.0, 1e307, 1e308], "j_ratios": [5.0, 1e308], "rabi": 10.0}


class TestBatchedSweep:
    @pytest.mark.parametrize(
        "n_delta, n_j",
        [
            (1, 1), (1, 30), (30, 1), (30, 30), (1, 127), (128, 1), (3, 43),
            # one cell below and one above a block
            (1, _SWEEP_BLOCK - 1), (_SWEEP_BLOCK + 1, 1),
        ],
    )
    def test_matches_per_cell_loop(self, n_delta, n_j):
        rng = np.random.default_rng([n_delta, n_j])
        delta_ratios = random_axis(rng, n_delta, 10.0, 1000.0)
        j_ratios = random_axis(rng, n_j, 1.0, 100.0)
        rabi, base = rng.uniform(0.05, 0.2), rng.uniform(80.0, 120.0)
        cells = run_sweep(delta_ratios, j_ratios, rabi, base)
        reference = reference_sweep(delta_ratios, j_ratios, rabi, base)
        assert len(cells) == len(reference) == len(delta_ratios) * len(j_ratios)
        for cell, ref in zip(cells, reference):
            assert (cell.delta_ratio, cell.j_ratio, cell.error) == (
                ref.delta_ratio, ref.j_ratio, ref.error
            )
            assert cell.deviation == ref.deviation
            # 1.22e-12 apart at most over these nine grids: a real against a
            # complex eigensolve
            independent = reference_cell_deviation(cell.delta_ratio, cell.j_ratio, rabi, base)
            assert abs(cell.deviation - independent) <= 1e-11

    def test_hostile_grid_rows(self, tmp_path):
        expected = sweep_to_csv(reference_sweep(**HOSTILE_GRID))
        rows = [row.split(",", 2)[2] for row in expected.splitlines()[1:]]
        assert rows[1] == rows[3] == "error: couplings must be finite"
        assert rows[4] == rows[5] == "error: larmor frequencies must be finite"
        assert np.isfinite(float(rows[0])) and np.isfinite(float(rows[2]))
        assert sweep_to_csv(run_sweep(**HOSTILE_GRID)) == expected
        assert main_sweep_csv(tmp_path, HOSTILE_GRID) == (EXIT_OK, expected)

    @pytest.mark.parametrize(
        "doc",
        [
            {"delta_ratios": [1e308], "j_ratios": [5.0, 1e308], "rabi": 10.0},  # no valid cell
            {"delta_ratios": [30.0, 300.0], "j_ratios": [5.0], "rabi": 1e-320},  # tau overflows
        ],
    )
    def test_failing_cells_match_per_cell_loop(self, tmp_path, doc):
        expected = reference_sweep(**doc)
        assert all(cell.error for cell in expected)
        assert run_sweep(**doc) == expected
        # main raises on overflow, as the loop does cell by cell
        with np.errstate(over="raise", invalid="raise"):
            expected = sweep_to_csv(reference_sweep(**doc))
        assert main_sweep_csv(tmp_path, doc) == (EXIT_OK, expected)

    def test_overflowing_cell_fails_alone(self, tmp_path):
        # at rabi 0.1 the delta_ratio 1.5e308 cell has finite inputs, but its
        # phases overflow; the other cells must come out as they do without it
        doc = {"delta_ratios": [30.0, 300.0, 1.5e308], "j_ratios": [5.0, 50.0], "rabi": 0.1}
        cells = run_sweep(**doc)
        alone = run_sweep([30.0, 300.0], [5.0, 50.0], rabi=0.1)
        assert cells[:4] == alone
        for overflow in cells[4:]:
            assert overflow.deviation is None
            assert overflow.error.startswith("values too large for double precision")
        # main raises on overflow, which must not stop the other cells
        assert main_sweep_csv(tmp_path, doc) == (EXIT_OK, sweep_to_csv(cells))
        [alone] = run_sweep([1.5e308], [5.0], rabi=0.1)
        assert alone.deviation is None and "double precision" in alone.error

    @pytest.mark.parametrize(
        "rabi, base_larmor, j_ratio",
        [
            (10.0, 1.7e308, 1e307),  # E_00 overflows
            (1.0, 5.7e307, 5e305),  # finite propagators, but E_00 * tau overflows
        ],
    )
    def test_overflowing_numbers_fail_alone(self, rabi, base_larmor, j_ratio):
        cells = run_sweep([1.0], [1.0, j_ratio], rabi=rabi, base_larmor=base_larmor)
        assert cells[0].deviation == run_sweep([1.0], [1.0], rabi, base_larmor)[0].deviation
        assert cells[1].error == "values too large for double precision (deviation not finite)"

    def test_memory_is_bounded_by_the_block(self):
        # 900 cells, two pulses each: ~0.7 MiB in blocks of 512 cells; one
        # stack for the whole grid peaks at ~1.0 MiB
        axis = np.geomspace(10.0, 1000.0, 30).tolist()
        run_sweep(axis[:2], axis[:2])
        tracemalloc.start()
        try:
            run_sweep(axis, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_grid_refused_before_allocating(self, tmp_path):
        # two 20000-value axes ask for a (2, 20000, 20000) grid, ~6 GiB: in a
        # fresh interpreter whose address space is capped at 1.5 GiB that was a
        # MemoryError traceback, and without the cap it could fill the host's memory
        config = tmp_path / "sweep.json"
        axis = np.arange(1.0, 20001.0).tolist()
        config.write_text(json.dumps({"kind": "sweep", "delta_ratios": axis, "j_ratios": axis}))
        script = (
            "import resource, sys, spinpulse\n"
            "from spinpulse.cli import main\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))\n"
            "axis = [float(v) for v in range(1, 20001)]\n"
            "try:\n"
            "    spinpulse.run_sweep(axis, axis)\n"
            "except spinpulse.ConfigurationError as exc:\n"
            "    print(exc)\n"
            f"sys.exit(main(['sweep', '--config', {str(config)!r}]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        problem = f"axis must have at most {_MAX_AXIS_VALUES} values, got 20000"
        assert result.stdout == f"delta_ratios: {problem}; j_ratios: {problem}\n"
        assert result.returncode == EXIT_VALIDATION
        assert result.stderr.splitlines() == [
            f"config error: delta_ratios: {problem}", f"config error: j_ratios: {problem}"
        ]


class TestMainEntryPoint:
    def test_validation_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": "cn"}))
        code = main(["run-cn", "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert "config error" in capsys.readouterr().err

    def test_kind_command_mismatch(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"kind": "sweep", "delta_ratios": [1.0], "j_ratios": [1.0]}))
        assert main(["run-cn", "--config", str(config)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv, doc, field",
        [
            (["run-shor"], {"kind": "shor", "tau1": "abc"}, "tau1"),
            (["run-shor"], {"kind": "shor", "tau1": float("nan")}, "tau1"),
            (["run-shor"], {"kind": "shor", "output": 5}, "output"),
            (["run-shor"], [{"kind": "shor"}], "config"),
            (["sweep"], {"kind": "sweep", "delta_ratios": [1.0, "x"], "j_ratios": [1.0]}, "delta_ratios"),
            (["run-shor", "--tau1", "nan"], None, "tau1"),
            (["run-shor", "--format", "csv"], None, "format"),
            (["design-pulse", "--delta-omega", "2", "--format", "csv"], None, "format"),
            (["sweep", "--config", SWEEP_CONFIG, "--format", "json"], None, "format"),
            (["run-cn"], cn_config(initial_state=pairs([0.9, 0, 0, 0])), "initial_state"),
            (["run-cn"], cn_config(reference_state=pairs([1, 1, 0, 0])), "reference_state"),
            (
                ["run-ensemble"],
                ensemble_config(reference_background_diagonal=[0.0] * 5),
                "reference_background_diagonal",
            ),
            (["design-pulse", "--delta-omega", "1", "--k", "1" + "0" * 300], None, "k"),
            (["run-shor"], {"kind": "shor", "shots": 1e20}, "shots"),
            (
                ["sweep"],
                {"kind": "sweep", "delta_ratios": [1.0], "j_ratios": [1.0], "rabbi": 1},
                "rabbi",
            ),
            (["design-pulse", "--delta-omega", "1", "--k", "[" * 100000], None, "k"),
            (["run-cn"], cn_config(initial_state=[1.0, 0.0, 0.0, 0.0]), "initial_state"),
            (["run-cn"], {"kind": "cn"}, "system"),
            (["sweep"], {"kind": "sweep", "delta_ratios": [30.0], "j_ratios": [5.0], "rabi": "x"}, "rabi"),
            (["sweep"], {"kind": "sweep", "delta_ratios": [2.0, 1.0], "j_ratios": [5.0]}, "delta_ratios"),
            (["run-cn"], cn_config(initial_state=[[1e308, 0.0]] * 4), "initial_state"),
            (["run-ensemble"], ensemble_config(system=cn_config()["system"]), "system"),
            # settings the command line or the run already fixes are unknown fields
            (["run-shor"], {"kind": "shor", "output": {"format": "json"}}, "output"),
            (["design-pulse"], {"kind": "design", "delta_omega": 1.0, "carrier": 50.0}, "carrier"),
            (
                ["run-ensemble"],
                ensemble_config(reference_background_diagonal=list(BACKGROUND_DIAGONAL)),
                "reference_background_diagonal",
            ),
        ],
    )
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, argv, doc, field):
        if doc is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(doc))
            argv = argv + ["--config", str(config)]
        assert main(argv) == EXIT_VALIDATION
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_rabi_with_exact_2pik_exits_2(self, tmp_path, capsys):
        # the demo gate with exact_2pik ran with its rabi ignored and exited 3
        config = tmp_path / "cn.json"
        config.write_text(json.dumps({**json.loads((CONFIGS / "cn.json").read_text()),
                                      "exact_2pik": 1}))
        assert main(["run-cn", "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: rabi: not used with exact_2pik\n"

    def test_system_number_as_text_exits_2(self, tmp_path, capsys):
        system = {**cn_config()["system"], "larmor": ["500", 100.0]}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cn_config(system=system)))
        assert main(["run-cn", "--config", str(config)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error: system: larmor: expected numeric value(s)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (
                ["run-ensemble"],
                ensemble_config(system={**ensemble_config()["system"], "larmor": [1e308] * 4}),
            ),
            (
                ["run-shor"],
                {"kind": "shor", "mode": "natural-phase", "tau1": 1e308, "shots": 8,
                 "energies": {"table": [[1e308] * 4] * 4}},
            ),
        ],
    )
    def test_overflowing_values_exit_2(self, tmp_path, capsys, argv, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = argv + ["--config", str(config), "--out", str(tmp_path / "r.txt")]
        assert main(argv) == EXIT_VALIDATION
        assert "config error: values too large for double precision" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run-cn", "--config", "/nonexistent.json"]) == EXIT_VALIDATION

    def test_underflowing_design_exits_2(self, capsys):
        code = main(["design-pulse", "--delta-omega", "1e-320", "--k", "100000"])
        assert code == EXIT_VALIDATION
        assert "config error: design needs a positive Rabi frequency" in capsys.readouterr().err

    def test_out_path_is_a_directory(self, tmp_path, capsys):
        assert main(["run-shor", "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text('{"kind": "sweep", "delta_ratios": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["sweep", "--config", str(config)]) == EXIT_VALIDATION
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "energies, problems",
        [
            ({"table": [["1", "2", "3", "4"], [True, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4]]},
             ["table: expected numeric value(s)"]),
            ({"table": [[1, 2, 3, 4]] * 4, "tabel": 1}, ["tabel: unknown field"]),
            ({"tabel": [[1, 2, 3, 4]] * 4},
             ["tabel: unknown field", "table: required field missing"]),
            # numpy's "setting an array element with a sequence ..." was printed
            ({"table": [[1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4]]},
             ["table: x/y energy table must be 4x4"]),
        ],
    )
    def test_bad_energies_file_exits_2_naming_it(self, tmp_path, capsys, energies, problems):
        # a string, bool or stray key in the energies file used to exit 0
        path = tmp_path / "energies.json"
        path.write_text(json.dumps(energies))
        argv = ["run-shor", "--mode", "bare-delay", "--tau1", "1", "--tau2", "1"]
        assert main(argv + ["--energies", str(path)]) == EXIT_VALIDATION
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(problems)
        for line, problem in zip(lines, problems):
            assert line.startswith(f"config error: energies: {problem}")

    @pytest.mark.parametrize("mode", ["bare-delay", "natural-phase"])
    def test_energies_from_a_system_document(self, tmp_path, capsys, mode):
        system = ensemble_config()["system"]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        argv = ["run-shor", "--mode", mode, "--tau1", "0.3", "--tau2", "0.7"]
        assert main(argv + ["--energies", str(path)]) == EXIT_OK
        energies = EnergyTable.from_spin_system(SpinSystem(**system))
        expected = run_shor(mode, (0.3, 0.7), energies).x_distribution
        np.testing.assert_array_equal(json.loads(capsys.readouterr().out)["x_distribution"], expected)

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "cn.json"
        config.write_bytes(b'{"kind": "cn", "\xd0\x00"}')
        assert main(["run-cn", "--config", str(config)]) == EXIT_VALIDATION
        assert "config error:" in capsys.readouterr().err

    def test_run_shor_flags(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(["run-shor", "--mode", "instantaneous", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["factor"] == 2

    @pytest.mark.parametrize(
        "argv, doc, field, value",
        [
            (["run-shor", "--tau1", "2"], {"kind": "shor", "tau1": 1.0}, "tau1", 2.0),
            (["design-pulse", "--k", "3"], {"kind": "design", "delta_omega": 10.0, "k": 1}, "k", 3),
        ],
    )
    def test_flag_wins_over_config(self, tmp_path, capsys, argv, doc, field, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(config)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[field] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-cn", "--trace"],
            ["run-ensemble", "--seed", "1"],
            ["design-pulse", "--trace"],
            ["sweep", "--seed", "3"],
            ["run-shor", "--seed", "-1"],
        ],
    )
    def test_flag_no_runner_reads_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION

    def test_design_pulse_flags(self, capsys):
        code = main(["design-pulse", "--delta-omega", "2.0", "--k", "1", "--n", "1"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rabi"] == pytest.approx(2.0 / np.sqrt(3.0))

    @pytest.mark.parametrize(
        "argv, side_file",
        [
            (["run-ensemble", "--config", ENSEMBLE_CONFIG], "out.json"),
            (["run-shor", "--mode", "bare-delay", "--energies", SHOR_ENERGIES, "--trace"],
             "out.trace.csv"),
        ],
    )
    def test_side_output_follows_on_stdout(self, tmp_path, capsys, argv, side_file):
        # without --out, the ensemble summary and the trace table follow the
        # main output on stdout, as they are written to their files with it
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        files = [(tmp_path / name).read_bytes().decode() for name in ("out.txt", side_file)]
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        main_output = files[0] if files[0].endswith("\n") else files[0] + "\n"
        assert capsys.readouterr().out == main_output + files[1]

    def test_floating_point_error_exits_2(self, monkeypatch, capsys):
        # the net under every check: numpy's own overflow, raised under main
        monkeypatch.setattr(cli, "run_config", lambda *args, **kwargs: np.float64(1e308) * 10)
        assert main(["run-shor"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("config error: values too large for double precision (overflow")
        assert err.endswith(")\n") and err.count("\n") == 1

    def test_full_cn_run_through_main(self, tmp_path):
        config = tmp_path / "cn.json"
        config.write_text(json.dumps(cn_config()))
        out = tmp_path / "result.json"
        assert main(["run-cn", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["passed"] is True
