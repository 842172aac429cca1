"""Property-based fuzz of every entry point for outside input: whatever it is
given, it returns or raises a LambkitError, never anything else.

Each JSON document is a valid one (packaged flow, default rate table, packaged
catalog and default config, a small sites document) with one to three edits
at random paths, so the fuzz reaches the checks behind the first type test;
one more test hands the loaders arbitrary JSON.  The same kind of edits hit
the lines and bytes of synthetic .s1p files and the bytes of a generated
chip's GDSII stream.  A few fresh-process CLI runs on edited files check what
the user sees: an exit code from the registry, never 70, one stderr line on
failure, and no traceback.  Fixed seeds and bounded example counts keep the
run deterministic and short.
"""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from lambkit import MODE_NAMES, cli  # noqa: E402
from lambkit.config import ToolkitConfig, default_config_dict, load_catalog  # noqa: E402
from lambkit.design import CapacitanceModel, match_finger_count  # noqa: E402
from lambkit.errors import ConfigError, GdsParseError, LambkitError  # noqa: E402
from lambkit.gdsii import read_gdsii, write_gdsii  # noqa: E402
from lambkit.layout import gen_chip  # noqa: E402
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
                node[key] = value * draw(st.sampled_from([10.0, 0.1, 1e3, 1e-3, -1.0]))
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


@st.composite
def _edited_bytes(draw, data):
    """data with 1-4 edits: a byte overwritten, a run cut, or bytes spliced in."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(buf)))
        edit = draw(st.sampled_from(["byte", "cut", "splice"]))
        if edit == "byte" and at < len(buf):
            buf[at] = draw(st.integers(0, 255))
        elif edit == "cut":
            del buf[at:at + draw(st.integers(1, 16))]
        else:
            buf[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(buf)


_edited_s1p_bytes = _edited_s1p().map(str.encode).flatmap(_edited_bytes)


@FUZZ
@given(text=_edited_s1p(), data=_edited_s1p_bytes)
def test_parse_touchstone_raises_only_lambkit_errors(text, data):
    _loads_or_lambkit_error(parse_touchstone, text)
    _loads_or_lambkit_error(parse_touchstone, data)


# ------------------------------------------------------------------- GDSII

def _chip_gds() -> bytes:
    cfg = ToolkitConfig.default()
    cap = CapacitanceModel(eps_r=cfg.eps_r, h_piezo=cfg.plate.h)
    design = match_finger_count(2e-6, cfg.plate, cap)
    return write_gdsii(gen_chip([design], cfg.chip, cfg.layers))


_CHIP_GDS = _chip_gds()


@FUZZ
@given(_edited_bytes(_CHIP_GDS))
def test_read_gdsii_raises_only_gds_parse_errors(data):
    try:
        read_gdsii(data)
    except GdsParseError:
        pass


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
