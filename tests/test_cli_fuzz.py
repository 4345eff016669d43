"""Property test of the command line on hostile input: whatever a config
field or flag holds, ``main`` ends with exit code 0, 2 or 3 and never with a
traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spinpulse.cli import KIND_TABLE, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
DEMO_CONFIGS = {
    doc["kind"]: doc
    for doc in (json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json")))
    if "kind" in doc
}
ENERGIES = str(CONFIG_DIR / "shor_energies.json")
#: (command, config, the field holding a nested document or None): an unknown
#: field is added at the top level or inside that nested document
UNKNOWN_FIELD_CASES = [
    *((KIND_TABLE[kind].command, doc, None) for kind, doc in DEMO_CONFIGS.items()),
    ("run-cn", DEMO_CONFIGS["cn"], "system"),
    ("run-ensemble", DEMO_CONFIGS["ensemble"], "system"),
    (
        "design-pulse",
        {"kind": "design", "system": DEMO_CONFIGS["cn"]["system"], "control": 0, "target": 1},
        "system",
    ),
    (
        "run-shor",
        {"kind": "shor", "mode": "bare-delay", "tau1": 1.0,
         "energies": json.loads(Path(ENERGIES).read_text())},
        "energies",
    ),
]
#: the value-taking flags of each subcommand, drawn with arbitrary values
FLAGS = {
    "run-shor": ("--mode", "--tau1", "--tau2", "--shots", "--seed"),
    "design-pulse": ("--delta-omega", "--k", "--n"),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FLAG_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["instantaneous", "bare-delay", "natural-phase", "1e400", "-0", "[1]"]),
)


def run_main(argv: list[str], doc=None) -> tuple[int, str]:
    """Exit code and stderr of one in-process run, output sent to a scratch file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        argv = argv + ["--out", str(Path(scratch) / "out.txt")]
        if doc is not None:
            config = Path(scratch) / "config.json"
            config.write_text(json.dumps(doc))
            argv += ["--config", str(config)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejecting a flag
                code = exc.code
    return code, err.getvalue()


@settings(max_examples=70, deadline=None)
@given(kind=st.sampled_from(sorted(DEMO_CONFIGS)), data=st.data(), value=JSON_VALUES)
def test_demo_config_with_one_field_replaced(kind, data, value):
    doc = dict(DEMO_CONFIGS[kind])
    doc[data.draw(st.sampled_from(sorted(doc)), label="field")] = value
    code, err = run_main([KIND_TABLE[kind].command], doc)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


@settings(max_examples=45, deadline=None)
@given(case=st.sampled_from(UNKNOWN_FIELD_CASES), data=st.data(), value=JSON_VALUES)
def test_unknown_field_exits_2_naming_it(case, data, value):
    command, doc, nested = case
    if nested is None:
        known, prefix = {*KIND_TABLE[doc["kind"]].fields, "kind"}, ""
    else:  # an energies document with n_spins is a system document
        known, prefix = {*doc[nested], "n_spins"}, f"{nested}: "
    name = data.draw(st.text(min_size=1, max_size=8).filter(lambda s: s not in known), label="name")
    if nested is None:
        doc = {**doc, name: value}
    else:
        doc = {**doc, nested: {**doc[nested], name: value}}
    code, err = run_main([command], doc)
    assert code == 2
    assert f"config error: {prefix}{name}: unknown field" in err


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(FLAGS)), data=st.data())
def test_arbitrary_flag_values(command, data):
    flags = data.draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, unique=True))
    argv = [command] + [f"{flag}={data.draw(FLAG_TEXT, label=flag)}" for flag in flags]
    if command == "run-shor" and data.draw(st.booleans(), label="energies"):
        argv += ["--energies", ENERGIES]
    code, err = run_main(argv)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
