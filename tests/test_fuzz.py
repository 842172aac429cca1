"""Property-based fuzz of the JSON loaders: whatever document they are given,
they return or raise a LambkitError, never anything else.

Each document is a valid one (packaged flow, default rate table, packaged
catalog, a small sites document) with one to three edits at random paths, so
the fuzz reaches the checks behind the first type test; one more test hands
the loaders arbitrary JSON.  Fixed seeds and bounded example counts keep the
run deterministic and short.
"""

import copy
import json
import os
import sys
import tempfile
from importlib import resources

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from lambkit import MODE_NAMES  # noqa: E402
from lambkit.config import load_catalog  # noqa: E402
from lambkit.errors import LambkitError  # noqa: E402
from lambkit.processflow import DEFAULT_RATES, RateTable, steps_from_dict  # noqa: E402
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
    value there replaced, the entry dropped, or an unknown key or item added
    next to it."""
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
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "replace":
            node[key] = draw(_values)
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
