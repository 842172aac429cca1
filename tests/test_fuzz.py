"""Property-based fuzz of every entry point for outside input: whatever it is
given, it returns or raises a LambkitError, never anything else.

Each JSON document is a valid one (packaged flow, default rate table, packaged
catalog and default config, a small sites document) with one to three edits
at random paths, so the fuzz reaches the checks behind the first type test;
one more test hands the loaders arbitrary JSON.  The same kind of edits hit
the lines and bytes of synthetic .s1p files and the bytes of a generated
chip's GDSII stream, and the chip and reticle libraries of drawn catalogs must
read back from their streams as built.  A few fresh-process CLI runs on edited
files check what the user sees: an exit code from the registry, never 70, one
stderr line on failure, and no traceback.  Command lines drawn from the CLI's
option table, with edits, must reach each command as argparse would hand them
over, or end in the same usage error.  Fixed seeds and bounded example counts keep the run
deterministic and short.
"""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from oracles import sites_from_dict_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from lambkit import MODE_NAMES, cli  # noqa: E402
from lambkit.config import ToolkitConfig, default_config_dict, load_catalog  # noqa: E402
from lambkit.design import match_finger_count  # noqa: E402
from lambkit.errors import ConfigError, GdsParseError, LambkitError  # noqa: E402
from lambkit.gdsii import read_gdsii, write_gdsii  # noqa: E402
from lambkit.layout import build_reticle, gen_chip  # noqa: E402
from lambkit.mbvd import MbvdModel, MotionalBranch, StaticNetwork  # noqa: E402
from lambkit.processflow import DEFAULT_RATES, RateTable, steps_from_dict  # noqa: E402
from lambkit.touchstone import (  # noqa: E402
    TouchstoneFile, parse_touchstone, serialize_touchstone, y_to_s11)
from lambkit.waferstats import sites_from_dict  # noqa: E402

# Hypothesis caches what it learns from the sources under its home directory;
# keep that out of the working tree (removed when the interpreter exits)
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# JSON integers have no size limit: 10**400 overflows a float conversion.
# The likeliest to break a check come first, where Hypothesis draws most.
_edge_numbers = st.sampled_from([10**400, float("nan"), -(10**400), float("inf"), -float("inf"),
                                 2**63, 1e308, 0, -1, -0.0, 1e-300])
_numbers = st.integers(-10**3, 10**3) | st.floats(allow_nan=True, allow_infinity=True) | _edge_numbers
# a fixed alphabet: st.text() over all of Unicode first builds a charmap
# cache, which takes seconds when the cache directory starts empty
_text = st.text(alphabet="aZ09_ -./:\x00\xe9\u20ac", max_size=6)
_scalars = (st.none() | st.booleans() | _numbers | _text
            | st.sampled_from([*MODE_NAMES, "deposit", "etch_ibe", "ibe", "150"]))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)
# what an edit writes: mostly numbers, since the loaders' deepest checks are
# on numbers
_values = _edge_numbers | _numbers | _json


def _paths(node, path=()):
    """(path, value) for every value inside node, containers included."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,), child
            yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    """doc with 1-3 edits, each at a path drawn from all of its values: the
    value there replaced, a number there scaled, the entry dropped, or an
    unknown key or item added next to it."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        # numbers first: Hypothesis favours early choices, and the loaders'
        # deepest checks are on numbers
        paths = sorted(_paths(doc), key=lambda item: not isinstance(item[1], (int, float)))
        paths = [path for path, _ in paths]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for k in parents:
            node = node[k]
        edit = draw(st.sampled_from(["replace", "scale", "drop", "add"]))
        if edit == "replace":
            node[key] = draw(_values)
        elif edit == "scale":
            # a number moved against the others: the checks across fields
            value = node[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                factor = draw(st.sampled_from([10.0, 0.1, 1e3, 1e-3, -1.0]))
                # an int past the float range (10**400) stays as it is
                node[key] = value * factor if abs(value) <= sys.float_info.max else value
        elif edit == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[draw(_text)] = draw(_values)
        else:
            node.append(draw(_values))
    return doc


def _loads_or_lambkit_error(load, doc):
    try:
        return load(doc)
    except LambkitError:
        return None


def _packaged(name):
    return json.loads(resources.files("lambkit.data").joinpath(name).read_text("utf-8"))


_SITES = {"seed": 7, "sites": [
    {"site_id": i, "x_mm": 3.0 * i, "y_mm": -2.0, "pitch_m": 2e-6,
     "metrics": {"S0": {"f_r_hz": 1e9 + i, "f_a_hz": 1.02e9, "q_r": 300.0, "k_eff_sq": 0.05},
                 "A1": {"f_r_hz": 4e9, "f_a_hz": 4.1e9, "q_r": 200.0, "k_eff_sq": 0.1}},
     "failed_modes": ["S1"], "local_thickness_m": 5e-7, "local_pitch_m": 2e-6}
    for i in range(2)
]}
# small documents, so that most edits land on a field a loader checks: the
# first packaged step that uses each optional field
_STEPS = _packaged("flow_alscn_ti.json")["steps"]
_FLOW = {"steps": [next(s for s in _STEPS if key in s)
                   for key in ("temperature_c", "recipe", "pulses", "note")]}
_RATES = DEFAULT_RATES.to_dict()
_CATALOG = _packaged("design_catalog.json")


def test_unedited_documents_load():
    assert len(sites_from_dict(_SITES)) == 2
    assert len(steps_from_dict(_FLOW)) == 4
    assert RateTable.from_dict(_RATES) == DEFAULT_RATES


@FUZZ
@given(_mutated(_SITES))
def test_sites_from_dict_raises_only_lambkit_errors(doc):
    _loads_or_lambkit_error(sites_from_dict, doc)


_SITE_NUMBERS = [("site_id",), ("x_mm",), ("y_mm",), ("pitch_m",), ("local_thickness_m",),
                 ("local_pitch_m",), *(("metrics", mode, key) for mode in ("S0", "A1")
                                       for key in ("f_r_hz", "f_a_hz", "q_r", "k_eff_sq"))]


@st.composite
def _targeted(draw, doc):
    """doc with 1-3 edits aimed at a one-pass number check: a lossless q_r,
    a value that is not a finite JSON number, two values whose sum overflows
    or is inf - inf, a site_id that is not a non-negative integer, a missing
    key, a repeated (site_id, pitch_m) pair, f_r >= f_a, or failed modes that
    repeat a mode or are not an array."""
    doc = copy.deepcopy(doc)
    sites = doc["sites"]
    for _ in range(draw(st.integers(1, 3))):
        site, other = draw(st.permutations(sites))[:2]
        *parents, key = draw(st.sampled_from(_SITE_NUMBERS))
        node = site
        for k in parents:
            node = node[k]
        edit = draw(st.sampled_from(["value", "lossless", "pair", "site_id", "drop", "repeat",
                                     "order", "failed"]))
        if edit == "value":
            node[key] = draw(st.sampled_from([True, 10**400, -(10**400), math.nan, math.inf,
                                              -math.inf, 1e308, "1", None]))
        elif edit == "lossless":
            site["metrics"][draw(st.sampled_from(["S0", "A1"]))]["q_r"] = math.inf
        elif edit == "pair":  # a sum past the float range, or inf - inf
            a, b = draw(st.sampled_from([(1e308, 1e308), (math.inf, -math.inf)]))
            node[key], site[draw(st.sampled_from(["x_mm", "y_mm", "local_pitch_m"]))] = a, b
        elif edit == "site_id":
            site["site_id"] = draw(st.sampled_from([0.5, -1, -0.5, 1.0, -0.0, 2**53 + 1.0]))
        elif edit == "drop" and key in node:
            del node[key]
        elif edit == "repeat":
            site["site_id"], site["pitch_m"] = other.get("site_id"), other.get("pitch_m")
        elif edit == "order":
            m = site["metrics"][draw(st.sampled_from(["S0", "A1"]))]
            m["f_r_hz"] = m["f_a_hz"] * draw(st.sampled_from([1, 1.0, 1.5]))
        elif edit == "failed":
            site["failed_modes"] = draw(st.sampled_from([["S1", "S1"], ["A0", "S1", "A0"], "S1",
                                                         {}, None]))
    return doc


def _outcome(load, doc):
    try:
        return load(doc)
    except Exception as exc:  # the two loaders must fail alike, whatever the exception
        return type(exc), str(exc)


@settings(FUZZ, max_examples=300)
@given(_targeted(_SITES) | _mutated(_SITES) | _targeted(_SITES).flatmap(_mutated))
def test_sites_from_dict_equals_the_per_value_reference(doc):
    # the same sites, or the same exception type and message
    assert _outcome(sites_from_dict, doc) == _outcome(sites_from_dict_reference, doc)


@FUZZ
@given(_mutated(_FLOW))
def test_steps_from_dict_raises_only_lambkit_errors(doc):
    _loads_or_lambkit_error(steps_from_dict, doc)


@FUZZ
@given(_mutated(_RATES))
def test_rate_table_from_dict_raises_only_lambkit_errors(doc):
    _loads_or_lambkit_error(RateTable.from_dict, doc)


@FUZZ
@given(_json)
def test_loaders_take_any_json_document(doc):
    for load in (sites_from_dict, steps_from_dict, RateTable.from_dict):
        _loads_or_lambkit_error(load, doc)


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "catalog.json")


@FUZZ
@given(doc=_mutated(_CATALOG), tail=st.binary(max_size=4), raw=st.booleans())
def test_load_catalog_raises_only_lambkit_errors(scratch_file, doc, tail, raw):
    # raw: the serialised document with arbitrary bytes appended, which is
    # rarely JSON and sometimes not UTF-8
    with open(scratch_file, "wb") as fh:
        fh.write(json.dumps(doc).encode() + (tail if raw else b""))
    catalog = _loads_or_lambkit_error(load_catalog, scratch_file)
    if catalog is not None:
        assert all(0 < p <= sys.float_info.max for p in catalog["pitches_m"])


_CONFIG = default_config_dict()


@FUZZ
@given(_mutated(_CONFIG))
def test_toolkit_config_raises_only_config_errors(doc):
    try:
        ToolkitConfig.from_dict(doc)
    except ConfigError:
        pass


# ---------------------------------------------------------------- .s1p files

def _s1p_lines(fmt: str, unit: str, n: int = 40) -> list:
    """A synthetic one-resonance .s1p file on n points of 0.8-1.3 GHz, as lines."""
    f = np.linspace(0.8e9, 1.3e9, n)
    l_m = 1.0 / ((2 * math.pi * 1e9) ** 2 * 8e-15)
    model = MbvdModel(static_net=StaticNetwork(c_0=1e-12, r_0=0.0, r_s=2.0),
                      branches=(MotionalBranch(r_m=12.0, l_m=l_m, c_m=8e-15),))
    tf = TouchstoneFile(frequencies=f, s11=y_to_s11(model.admittance(f)), frequency_unit=unit,
                        fmt=fmt, comments=("synthetic resonator",))
    return serialize_touchstone(tf).splitlines()


_S1P = [_s1p_lines(fmt, unit) for fmt, unit in (("RI", "Hz"), ("MA", "GHz"), ("DB", "MHz"))]
_s1p_tokens = (st.sampled_from(["nan", "-inf", "Infinity", "1e999", "1e-320", "0", "-1", "7000",
                                "abc", "1,5", "0x10", "#", "!", "R", "S", "RI", "MA", "DB", "GHz",
                                "Y", "50", ""])
               | st.floats().map(repr) | st.integers(-10**6, 10**6).map(str))
_s1p_line = st.lists(_s1p_tokens, max_size=4).map(" ".join)


@st.composite
def _edited_s1p(draw, files=_S1P):
    """One of files, as text with 1-3 edits: a token or a whole line replaced,
    a line dropped, repeated or inserted."""
    lines = list(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["token", "line", "drop", "repeat", "insert"]))
        if not lines or edit == "insert":
            lines.insert(i, draw(_s1p_line))
        elif edit == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_s1p_tokens)
            lines[i] = " ".join(tokens)
        elif edit == "line":
            lines[i] = draw(_s1p_line)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _byte_edits(size: int):
    """1-4 edits of a byte string of about size bytes: ("byte", at, value)
    overwrites a byte, ("cut", at, n) cuts a run and ("splice", at, data)
    splices bytes in.  A failing example shows as these few edits."""
    at = st.integers(0, size)
    return st.lists(st.tuples(st.just("byte"), at, st.integers(0, 255))
                    | st.tuples(st.just("cut"), at, st.integers(1, 16))
                    | st.tuples(st.just("splice"), at, st.binary(min_size=1, max_size=8)),
                    min_size=1, max_size=4)


def _apply_edits(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for edit, at, what in edits:
        at = min(at, len(buf))
        if edit == "byte" and at < len(buf):
            buf[at] = what
        elif edit == "cut":
            del buf[at:at + what]
        elif edit == "splice":
            buf[at:at] = what
    return bytes(buf)


@st.composite
def _edited_bytes(draw, data):
    """data with 1-4 edits: a byte overwritten, a run cut, or bytes spliced in."""
    return _apply_edits(data, draw(_byte_edits(len(data))))


_edited_s1p_bytes = _edited_s1p().map(str.encode).flatmap(_edited_bytes)


@FUZZ
@given(text=_edited_s1p(), data=_edited_s1p_bytes)
def test_parse_touchstone_raises_only_lambkit_errors(text, data):
    _loads_or_lambkit_error(parse_touchstone, text)
    _loads_or_lambkit_error(parse_touchstone, data)


# ------------------------------------------------------------------- GDSII

def _chip_gds() -> bytes:
    cfg = ToolkitConfig.default()
    design = match_finger_count(2e-6, cfg, "S0")
    return write_gdsii(gen_chip([design], cfg.chip, cfg.layers))


_CHIP_GDS = _chip_gds()


@FUZZ
@given(_byte_edits(len(_CHIP_GDS)))
def test_read_gdsii_raises_only_gds_parse_errors(edits):
    # the edits, not the edited stream, are the example: a failure prints a
    # few tuples instead of the whole chip's bytes
    try:
        read_gdsii(_apply_edits(_CHIP_GDS, edits))
    except GdsParseError:
        pass


def _contents(lib):
    """Everything a library holds: its name, and each cell's name, polygons
    (layer and vertices) and placements, in order."""
    return lib.name, [(c.name, [(p.layer, p.vertices) for p in c.polygons], c.placements)
                      for c in lib.cells]


@st.composite
def _catalogs(draw):
    """(config, designs): one to three pitches from each exposure band, in
    whole nm, a mode, a dummy count and a chip size that the packer fits."""
    raw = default_config_dict()
    raw["matching"]["dummy_count_per_side"] = draw(st.integers(0, 5))
    raw["chip"]["width_m"], raw["chip"]["height_m"] = draw(
        st.sampled_from([(0.017, 0.003), (0.006, 0.002), (0.012, 0.0034), (0.021, 0.0022)]))
    cfg = ToolkitConfig.from_dict(raw)
    pitches = (draw(st.lists(st.integers(500, 1000), min_size=1, max_size=3, unique=True))
               + draw(st.lists(st.integers(1500, 4500), min_size=1, max_size=3, unique=True)))
    mode = draw(st.sampled_from(["S0", "S1", "A1"]))
    return cfg, [match_finger_count(nm / 1e9, cfg, mode) for nm in pitches]


@settings(FUZZ, max_examples=30)
@given(_catalogs())
def test_generated_libraries_round_trip_through_gdsii(catalog):
    # what layout writes reads back as built: chip.gds and reticle.gds
    cfg, designs = catalog
    chip = gen_chip(designs, cfg.chip, cfg.layers)
    _, mask = build_reticle(chip, cfg.chip, cfg.layers, cfg.reticle)
    for lib in (chip, mask):
        assert _contents(read_gdsii(write_gdsii(lib))) == _contents(lib)


# --------------------------------------------------------------- CLI argv

def _parse_outcome(parse, argv):
    """What parse(argv) hands the commands, its exit code, stdout and stderr.
    Each command is replaced by one that records vars() of its namespace, with
    func as the name of the command that ran."""
    given = []

    def spy(name):
        return lambda args: given.append({**vars(args), "func": name}) or cli.EXIT_OK

    spies = {name: (help_text, spy(name), rows)
             for name, (help_text, _, rows) in cli.COMMANDS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli.COMMANDS, spies), redirect_stdout(out), redirect_stderr(err):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = cli.EXIT_USAGE if exc.code else cli.EXIT_OK
    return given, code, out.getvalue(), err.getvalue()


_PARSER = cli.build_parser()
_NAME_OF = {func: name for name, (_, func, _) in cli.COMMANDS.items()}


def _by_argparse(argv):
    """The full parser's parse of argv, handed to the command it names."""
    args = _PARSER.parse_args(argv)
    return cli.COMMANDS[_NAME_OF[args.func]][1](args)


_ROWS = {name: rows for name, (_, _, rows) in cli.COMMANDS.items()}
_FLAGS = sorted({arg for rows in _ROWS.values() for arg, _ in rows if arg[0] == "-"})
_WORDS = ["a.s1p", "x", "", "p q", "k=v", "S0:2e-06", "alscn-ti-adhesion"]
# values of each shape, a few of them refused ("1_0" reads as 10, "s0" is no mode)
_VALUES = {int: ["7", "40", " 3", "+2", "1_0", "0x7"],
           float: ["2e-06", "4.5E-6", "inf", "7", "1_0.5"],
           str: _WORDS, "choices": [*MODE_NAMES, "s0", "Z9", ""]}
# what an edit puts in: a token argparse alone decides on, or any flag, or a
# flag cut short
_EDIT_TOKENS = (st.sampled_from(["--bogus", "--", "-h", "--help", "-1", "-2e-6", "-", "-x",
                                 "1.5", "x", "Z9", "--quiet=1", "--wafer-map=", "--out=-o"])
                | st.sampled_from(_FLAGS)
                | st.sampled_from(_FLAGS).flatmap(lambda f: st.integers(3, len(f) - 1).map(
                    lambda k: f[:k])))


def _flag_tokens(draw, row):
    """One flag of the table as tokens: bare, or with a value in either form."""
    arg, keywords = row
    if keywords.get("action") == "store_true":
        return [arg]
    value = draw(st.sampled_from(_VALUES["choices" if "choices" in keywords
                                         else keywords.get("type", str)]))
    return [f"{arg}={value}"] if draw(st.booleans()) else [arg, value]


# fit, design and layout, whose rows hold a list positional or a choice, are
# drawn twice as often as the other commands
_COMMAND_DRAWS = sorted(_ROWS) + ["fit", "design", "layout"]


@st.composite
def _argv(draw):
    """A command line drawn from the option table: flags in both value forms,
    repeats, and a run of positionals among them that a flag may split; then,
    in half the draws, one to three tokens inserted, replaced or deleted."""
    command = draw(st.sampled_from(_COMMAND_DRAWS))
    flags = [row for row in _ROWS[command] if row[0][0] == "-"]
    items = [_flag_tokens(draw, row) for row in draw(st.lists(st.sampled_from(flags), max_size=5))]
    if len(flags) < len(_ROWS[command]) and draw(st.integers(0, 3)):  # the positionals
        run = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
        if len(run) > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, len(run) - 1))
            run[cut:cut] = _flag_tokens(draw, draw(st.sampled_from(flags)))
        items.insert(draw(st.integers(0, len(items))), run)
    tokens = [token for item in items for token in item]
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        tokens[at:at + (edit != "insert")] = [] if edit == "delete" else [draw(_EDIT_TOKENS)]
    return [command, *tokens]


@settings(FUZZ, max_examples=1000)
@given(_argv())
def test_main_parses_argv_as_argparse_does(argv):
    assert _parse_outcome(cli.main, argv) == _parse_outcome(_by_argparse, argv)


@pytest.mark.parametrize("argv, parsed", [
    (["fit", "a", "--branches", "1", "b"], None),
    (["fit", "--branches", "1", "a", "b"], {"files": ["a", "b"]}),
    (["disperse", "--points=40"], {"points": 40}),
    (["disperse", "--quiet=1"], None),
    (["stats", "s.json", "--heatmap=S0:2e-6", "--heatmap", "S1:1e-6"], {"heatmap": "S1:1e-6"}),
    (["simulate-wafer", "--seed", "-1"], {"seed": -1}),  # which the command refuses
    (["design", "--pitches", "-2e-6"], None),
    (["flow-check", "--", "x"], {"flow": "x"}),
])
def test_main_keeps_argparse_semantics(argv, parsed):
    # None: a usage error
    outcome = _parse_outcome(cli.main, argv)
    assert outcome == _parse_outcome(_by_argparse, argv)
    given, code, _, err = outcome
    if parsed is None:
        assert (given, code) == ([], cli.EXIT_USAGE)
        assert err.startswith("usage: lambkit") and ": error: " in err.splitlines()[-1]
    else:
        assert code == cli.EXIT_OK and parsed.items() <= given[0].items()


# ---------------------------------------------------------- CLI, fresh process

CLI_FUZZ = settings(FUZZ, max_examples=6)
_REGISTRY = {cli.EXIT_OK, cli.EXIT_FLOW_ERRORS, cli.EXIT_USAGE, cli.EXIT_SOLVER,
             cli.EXIT_DESIGN, cli.EXIT_ALL_FITS_FAILED, cli.EXIT_STATS}


def _run_cli(files: dict, *argv):
    """Write files (name -> bytes) to a fresh directory and run the CLI there.

    A run exits with a registry code other than 70 and prints no traceback.
    A failed run writes one stderr line; a run that succeeded, or a
    flow-check that found rule errors, writes no error line.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "lambkit.cli", *argv, "--quiet", "--out", "out"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in _REGISTRY, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    if proc.returncode in (cli.EXIT_OK, cli.EXIT_FLOW_ERRORS):
        assert not any(line.startswith(("error:", "failed ")) for line in lines), lines
    else:
        assert len(lines) == 1, lines
    return proc


# a DUT that fits, and the ideal standards measured on its grid
_GRID = np.linspace(0.8e9, 1.3e9, 200)
_FIT_FILES = {
    "dut.s1p": "\n".join(_s1p_lines("RI", "GHz", n=_GRID.size)) + "\n",
    **{f"{name}.s1p": serialize_touchstone(TouchstoneFile(
        frequencies=_GRID, s11=np.full(_GRID.size, gamma, dtype=complex), fmt="RI"))
       for name, gamma in (("short", -1.0), ("open", 1.0), ("load", 0.0))},
}
_FIT_ARGV = ("fit", "dut.s1p", "--cal-short", "short.s1p", "--cal-open", "open.s1p",
             "--cal-load", "load.s1p")


@st.composite
def _fit_files(draw):
    """The fit inputs with one of them edited, as text or as bytes."""
    name = draw(st.sampled_from(sorted(_FIT_FILES)))
    text = draw(_edited_s1p([_FIT_FILES[name].splitlines()]))
    data = draw(_edited_bytes(text.encode())) if draw(st.booleans()) else text.encode()
    return {**{k: v.encode() for k, v in _FIT_FILES.items()}, name: data}


def test_fit_cli_on_unedited_files_succeeds():
    files = {name: text.encode() for name, text in _FIT_FILES.items()}
    assert _run_cli(files, *_FIT_ARGV).returncode == cli.EXIT_OK


@CLI_FUZZ
@given(_fit_files())
def test_fit_cli_on_edited_files(files):
    _run_cli(files, *_FIT_ARGV)


@CLI_FUZZ
@given(doc=_mutated(_SITES), tail=st.binary(max_size=2) | st.just(b""))
def test_stats_cli_on_edited_sites(doc, tail):
    _run_cli({"sites.json": json.dumps(doc).encode() + tail}, "stats", "sites.json")


@CLI_FUZZ
@given(doc=_mutated(_RATES), tail=st.binary(max_size=2) | st.just(b""))
def test_flow_check_cli_on_edited_rates(doc, tail):
    _run_cli({"rates.json": json.dumps(doc).encode() + tail}, "flow-check", "alscn-ti-adhesion",
             "--rates", "rates.json")
