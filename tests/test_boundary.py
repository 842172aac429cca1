"""The input boundary: one reader and one finite-number rule for every JSON
document lambkit reads (config, catalog, flow, rate table, sites)."""

import json
import math
import re

import pytest

from lambkit.config import ToolkitConfig, load_catalog, load_config
from lambkit.errors import ConfigError, InputError, is_json_number, json_number, read_json
from lambkit.processflow import RateTable, load_flow, steps_from_dict
from lambkit.waferstats import sites_from_dict

_SITE = {"site_id": 0, "x_mm": 0.0, "y_mm": 0.0, "pitch_m": "@",
         "metrics": {"S0": {"f_r_hz": 1e9, "f_a_hz": 1.01e9, "q_r": 300.0, "k_eff_sq": 0.05}}}

# (loader of a file, document with "@" where the number goes, error class, JSON path)
LOADERS = {
    "config": (load_config, {"plate": {"thickness_m": "@"}}, ConfigError,
               "config invalid at plate/thickness_m"),
    "catalog": (load_catalog, {"pitches_m": [1e-6, "@"]}, ConfigError, "pitches_m[1]"),
    "flow": (load_flow, {"steps": [{"kind": "deposit", "material": "Si", "thickness_m": 1e-3},
                                   {"kind": "deposit", "material": "Al", "thickness_m": "@"}]},
             InputError, "steps[1].thickness_m"),
    "rates": (lambda path: RateTable.from_dict(read_json(path, "rates")),
              {"processes": {"ibe": {"Pt": "@"}}}, InputError, "processes.ibe.Pt"),
    "sites": (lambda path: sites_from_dict(read_json(path, "sites")),
              {"sites": [_SITE, {**_SITE, "site_id": 1}]}, InputError, "sites[0].pitch_m"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])  # json.load reads 1e400 as inf
def test_every_loader_rejects_a_non_finite_number_and_names_its_path(tmp_path, loader, text):
    load, doc, error, path = LOADERS[loader]
    file = tmp_path / f"{loader}.json"
    file.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(error, match=re.escape(path)):
        load(str(file))
    # the same document with a finite number loads
    file.write_text(json.dumps(doc).replace('"@"', "2e-6"))
    load(str(file))


@pytest.mark.parametrize("value", [0, -3, 2.5, -0.0, 1e308, 2**63, 10**308])
def test_finite_numbers_pass(value):
    assert is_json_number(value)
    assert json_number(value, "x") is value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400),
                                   True, None, "1", [1]])
def test_everything_else_fails_naming_the_path(value):
    assert not is_json_number(value)
    with pytest.raises(InputError, match=re.escape("a.b[0] must be a finite number")):
        json_number(value, "a.b[0]")


def _put(doc, value):
    """doc with value where "@" is."""
    if isinstance(doc, dict):
        return {k: _put(v, value) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_put(v, value) for v in doc]
    return value if doc == "@" else doc


# the document-level loaders of LOADERS, which an in-process caller reaches
# with values json.load never makes
FROM_DICT = {"config": ToolkitConfig.from_dict, "flow": steps_from_dict,
             "rates": RateTable.from_dict, "sites": sites_from_dict}


@pytest.mark.parametrize("loader", sorted(FROM_DICT))
def test_an_int_too_long_to_print_is_rejected_naming_its_path(loader):
    # repr() of an int over 4300 digits raises ValueError; the message shows its size
    _, doc, error, path = LOADERS[loader]
    with pytest.raises(error, match=re.escape(path)):
        FROM_DICT[loader](_put(doc, 10**5000))


@pytest.mark.parametrize("load, doc, message", [
    (sites_from_dict, {"sites": [{"site_id": 10**5000}]},
     "sites[0].site_id must be a finite number, got <int of 16610 bits>"),
    (steps_from_dict, {"steps": [{"kind": 10**5000}]},
     "steps[0].kind must be a string, got <int of 16610 bits>"),
    (steps_from_dict, {"steps": [{"kind": "deposit", "note": 10**5000}]},
     "steps[0].note must be a string, got <int of 16610 bits>"),
    (sites_from_dict, {"sites": [{**_SITE, "pitch_m": 2e-6, "failed_modes": [10**5000]}]},
     "unknown mode in failed_modes <tuple>"),
])
def test_an_int_too_long_to_print_is_an_input_error_that_shows_its_size(load, doc, message):
    with pytest.raises(InputError, match=re.escape(message)):
        load(doc)


def test_read_json_faults_name_what_the_file_is(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(InputError, match=re.escape(f"sites file not found: {missing}")):
        read_json(missing, "sites")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"note": "\xe9"}')
    with pytest.raises(ConfigError, match="catalog file is not valid JSON"):
        read_json(latin1, "catalog", ConfigError)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(InputError, match="flow file is not valid JSON"):
        read_json(broken, "flow")
    broken.write_text('{"pitches_m": [NaN]}')  # JSON syntax; the number rule is the loader's
    assert math.isnan(read_json(broken, "catalog")["pitches_m"][0])
