"""Tests for process-flow simulation, compatibility rules, and etch budgets."""

import json
import math
import re

import pytest

from lambkit import cli, processflow
from lambkit.errors import FlowError, InputError, MissingRateError
from lambkit.processflow import (
    DEFAULT_RATES,
    GOLDEN_FLOW_NAMES,
    FlowReport,
    ProcessStep,
    RateTable,
    ashing_time,
    check_flow,
    classify_chemistry,
    etch_budget,
    packaged_flow,
    simulate_stack,
    steps_from_dict,
    steps_to_dict,
)
from lambkit.record import replace

NM = 1e-9


def substrate():
    return ProcessStep(kind="deposit", material="Si", thickness_m=675e-6)


def violation_codes(flow):
    return sorted(v.code for v in check_flow(flow).violations)


def mutate(flow, index, **changes):
    steps = list(flow)
    steps[index] = replace(steps[index], **changes)
    return tuple(steps)


def find_step(flow, **attrs):
    for i, step in enumerate(flow):
        if all(getattr(step, k) == v for k, v in attrs.items()):
            return i
    raise AssertionError(f"no step matching {attrs}")


# ---------------------------------------------------------------- step data


def test_step_validation():
    with pytest.raises(InputError):
        ProcessStep(kind="polish")
    with pytest.raises(InputError):
        ProcessStep(kind="deposit", material="Al", thickness_m=0.0)
    with pytest.raises(InputError):
        ProcessStep(kind="deposit", thickness_m=10 * NM)
    with pytest.raises(InputError):
        ProcessStep(kind="etch_wet", material="SiO2")  # no chemistry, no recipe
    with pytest.raises(InputError):
        ProcessStep(kind="etch_ibe", material="Pt", recipe=((10, -5),))
    with pytest.raises(InputError):
        ProcessStep(kind="release", chemistry="XeF2", pulses=-1)
    with pytest.raises(InputError, match=r"^pulses must be an integer, got 60\.5$"):
        ProcessStep(kind="release", chemistry="XeF2", pulses=60.5)
    with pytest.raises(InputError, match=r"^repeats must be an integer, got 1\.5$"):
        ProcessStep(kind="etch_ibe", material="Pt", recipe=((10, 5),), repeats=1.5)
    # an integral float counts, as in the config
    step = ProcessStep.from_dict({"kind": "etch_ibe", "material": "Pt", "recipe": [[10, 5]],
                                  "repeats": 2.0, "pulses": 3.0})
    assert (step.repeats, step.pulses) == (2, 3) and type(step.repeats) is type(step.pulses) is int


def test_step_round_trip():
    step = ProcessStep(
        kind="etch_ibe",
        material="AlScN",
        chemistry="Ar",
        recipe=((10, 60), (45, 30), (70, 30)),
        repeats=13,
        tool="mill",
        note="overetch",
    )
    again = ProcessStep.from_dict(step.to_dict())
    assert again == step
    with pytest.raises(InputError):
        ProcessStep.from_dict({"kind": "deposit", "material": "Al", "thick": 1})



def test_step_to_dict_writes_the_fields_that_differ_from_their_defaults():
    assert ProcessStep(kind="expose").to_dict() == {"kind": "expose"}
    step = ProcessStep(kind="strip_ash", chemistry="O2", temperature_c=0.0, duration_s=60.0,
                       repeats=1, pulses=0)
    assert list(step.to_dict().items()) == [
        ("kind", "strip_ash"), ("chemistry", "O2"), ("temperature_c", 0.0), ("duration_s", 60.0)]
    mill = ProcessStep(kind="etch_ibe", material="AlScN", recipe=((10, 60),), repeats=3)
    assert mill.to_dict() == {"kind": "etch_ibe", "material": "AlScN",
                              "recipe": [[10.0, 60.0]], "repeats": 3}


@pytest.mark.parametrize("field, value, json_path", [
    ("thickness_m", "10e-9", "steps[2].thickness_m"),
    ("temperature_c", [150], "steps[2].temperature_c"),
    ("duration_s", float("inf"), "steps[2].duration_s"),
    ("pulses", True, "steps[2].pulses"),
    ("material", 5, "steps[2].material"),
    ("recipe", [[10, "60"]], "steps[2].recipe[0]"),
    ("recipe", [[10]], "steps[2].recipe[0]"),
    ("recipe", "fast", "steps[2].recipe"),
    ("repeats", 1.5, "steps[2].repeats must be an integer, got 1.5"),
    ("pulses", 60.5, "steps[2].pulses must be an integer, got 60.5"),
    ("duration_s", -1, "steps[2].duration_s must be >= 0"),
    ("recipe", [[95, 60]], "steps[2].recipe[0]"),
    ("kind", "etch", "steps[2].kind"),
])
def test_steps_from_dict_names_the_bad_field(field, value, json_path):
    doc = steps_to_dict(packaged_flow("alscn-ti-adhesion"))
    doc["steps"][2][field] = value
    with pytest.raises(InputError, match=re.escape(json_path)):
        steps_from_dict(doc)


@pytest.mark.parametrize("changes, message", [
    ({"material": 5}, "material must be a string, got 5"),
    ({"recipe": (("10", "60"),)}, "recipe[0] must be a finite number, got '10'"),
    ({"recipe": (("a", 60),)}, "recipe[0] must be a finite number, got 'a'"),
    ({"recipe": 5}, "recipe must be an array of [angle_deg, seconds] pairs"),
])
def test_step_constructor_checks_every_value_the_loader_checks(changes, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ProcessStep(**{"kind": "deposit", "material": "Al", "thickness_m": 75 * NM, **changes})


DROP = object()  # the field is taken out of the step

# (index of a step in the packaged alscn-ti-adhesion flow, field, value, message)
STEP_RULES = [
    (6, "chemistry", "O2 plasma",
     "chemistry must be a developer for a develop step, got 'O2 plasma'"),
    (9, "chemistry", "Remover 1165",
     "chemistry must be an O2 or forming-gas plasma for a strip_ash step, got 'Remover 1165'"),
    (10, "chemistry", "O2",
     "chemistry must be a remover bath or a rinse for a strip_wet step, got 'O2'"),
    (30, "chemistry", "anhydrous HF",
     "chemistry must be XeF2 for a release step, got 'anhydrous HF'"),
    (9, "temperature_c", DROP, "temperature_c must be given for a strip_ash step"),
    (7, "material", DROP, "material must be named for the etch_ibe step"),
    (18, "duration_s", 0, "duration_s must be > 0 for an etch_dry step without a recipe"),
]
STEP_RULE_IDS = [f"steps[{index}].{field}" for index, field, *_ in STEP_RULES]


def _edited_flow_doc(index, field, value):
    doc = steps_to_dict(packaged_flow("alscn-ti-adhesion"))
    if value is DROP:
        del doc["steps"][index][field]
    else:
        doc["steps"][index][field] = value
    return doc


@pytest.mark.parametrize("index, field, value, message", STEP_RULES, ids=STEP_RULE_IDS)
def test_step_refuses_a_value_its_kind_does_not_take(index, field, value, message):
    good = steps_to_dict(packaged_flow("alscn-ti-adhesion"))["steps"][index]
    assert ProcessStep(**good).to_dict() == good
    bad = _edited_flow_doc(index, field, value)["steps"][index]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ProcessStep(**bad)


@pytest.mark.parametrize("index, field, value, message", STEP_RULES, ids=STEP_RULE_IDS)
def test_flow_check_names_the_step_a_rule_refuses(tmp_path, capsys, index, field, value,
                                                  message):
    # the simulator raised these without a step, e.g. "develop chemistry must be a developer"
    path, out = tmp_path / "flow.json", tmp_path / "out"
    path.write_text(json.dumps(_edited_flow_doc(index, field, value)))
    assert cli.main(["flow-check", str(path), "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: steps[{index}].{message}\n")
    assert not out.exists()


def test_a_step_fault_wins_over_a_stack_fault_of_an_earlier_step():
    doc = {"steps": [substrate().to_dict(), {"kind": "develop", "chemistry": "TMA238WA"},
                     {"kind": "release", "chemistry": "O2", "pulses": 50}]}
    with pytest.raises(InputError, match=r"^steps\[2\]\.chemistry must be XeF2"):
        steps_from_dict(doc)
    with pytest.raises(FlowError, match="^develop requires a photoresist as the top layer$"):
        simulate_stack(steps_from_dict({"steps": doc["steps"][:2]}))


def test_classify_chemistry():
    cases = {
        "TMA238WA": "developer",
        "Remover 1165": "remover",
        "49%HF/H2O 1:50": "hf",
        "anhydrous HF": "hf",
        "Cl2/BCl3": "chlorine",
        "C4F8/O2": "fluorine",
        "C4F8/H2/He": "fluorine",
        "CHF3": "fluorine",
        "N2/5%H2 forming gas": "forming_gas",
        "O2": "oxygen",
        "DI water": "rinse",
        "XeF2": "xef2",
        "Ar": "other",
        "": "",
        # Cl only as an element of a formula token, or the word chlorine
        "HCl": "chlorine",
        "hcl": "chlorine",
        "bcl3": "chlorine",
        "cl2": "chlorine",
        "SiCl4": "chlorine",
        "Chlorine plasma": "chlorine",
        "DI water clean": "rinse",
        "O2 descum cycle": "oxygen",
        "cyclic O2 ash": "oxygen",
        # oxygen only as O2 itself or the word: peroxide, CO2 and acids hold O2 in a formula
        "oxygen plasma": "oxygen",
        "O2/Ar": "oxygen",
        "H2O2 clean": "other",
        "Piranha H2SO4/H2O2": "other",
        "CO2 snow clean": "other",
    }
    for chem, want in cases.items():
        assert classify_chemistry(chem) == want, chem
    assert classify_chemistry("H2O2 clean") != "chlorine"


def test_ibe_recipe_beam_time():
    # 13 x (60 s + 30 s + 30 s) of actual beam time
    step = ProcessStep(
        kind="etch_ibe",
        material="AlScN",
        chemistry="Ar",
        recipe=((10, 60), (45, 30), (70, 30)),
        repeats=13,
    )
    assert step.beam_time_s == pytest.approx(26 * 60)


# ----------------------------------------------------------- stack simulate


def test_single_deposit_grows_stack():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="AlScN", thickness_m=400 * NM),
    )
    states = simulate_stack(flow)
    assert len(states) == 2
    assert states[-1].materials == ("Si", "AlScN")
    assert states[-1].thickness_of("AlScN") == pytest.approx(400 * NM)


def test_flow_must_start_with_substrate():
    with pytest.raises(FlowError):
        simulate_stack((ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),))
    with pytest.raises(FlowError):
        simulate_stack(())


def test_exposure_walk_stops_at_unpatterned():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Pt", thickness_m=25 * NM),
        ProcessStep(kind="deposit", material="Al", thickness_m=75 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
    )
    state = simulate_stack(flow)[-1]
    # patterned resist lets chemistry through; blanket Al blocks the Pt
    assert state.exposed_materials == {"M108Y", "Al"}


def test_develop_opens_developable_barc_only():
    base = (
        substrate(),
        ProcessStep(kind="deposit", material="Al", thickness_m=75 * NM),
    )
    litho = lambda barc: base + (
        ProcessStep(kind="spin_coat", material=barc, thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
    )
    opened = simulate_stack(litho("DS-K101"))[-1]
    closed = simulate_stack(litho("DUV42-P"))[-1]
    assert "Al" in opened.exposed_materials
    assert "Al" not in closed.exposed_materials
    assert closed.exposed_materials == {"M108Y", "DUV42-P"}


def test_develop_requires_resist_on_top():
    flow = (
        substrate(),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
    )
    with pytest.raises(FlowError):
        simulate_stack(flow)


def test_masked_etch_transfers_pattern_and_erodes_mask():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Pt", thickness_m=25 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
        ProcessStep(kind="etch_ibe", material="Pt", chemistry="Ar", duration_s=120),
    )
    state = simulate_stack(flow)[-1]
    pt = state.layers[1]
    resist = state.layers[2]
    assert pt.patterned and pt.thickness_m == pytest.approx(25 * NM)
    # 22 nm/min for 2 min comes off the resist mask
    assert resist.thickness_m == pytest.approx((400 - 44) * NM)


def test_partial_etch_is_noted_not_patterned():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Pt", thickness_m=25 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
        ProcessStep(kind="etch_ibe", material="Pt", chemistry="Ar", duration_s=30),
    )
    state = simulate_stack(flow)[-1]
    assert not state.layers[1].patterned
    assert any("does not clear" in n for n in state.notes)


def test_blanket_etch_thins_and_removes():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="SiO2", thickness_m=800 * NM),
        ProcessStep(kind="etch_vapor", material="SiO2", chemistry="anhydrous HF", duration_s=240),
    )
    state = simulate_stack(flow)[-1]
    # 100 nm/min for 4 min takes 400 of 800 nm
    assert state.thickness_of("SiO2") == pytest.approx(400 * NM)
    done = flow[:2] + (replace(flow[2], duration_s=540),)
    state = simulate_stack(done)[-1]
    assert state.materials == ("Si",)
    assert any("fully removed" in n for n in state.notes)


def test_etching_the_substrate_away_names_the_step(tmp_path, capsys):
    flow = (
        ProcessStep(kind="deposit", material="SiO2", thickness_m=300 * NM),
        ProcessStep(kind="etch_vapor", material="SiO2", chemistry="anhydrous HF", duration_s=240),
    )
    with pytest.raises(FlowError, match=r"^etch_vapor of SiO2 removes the substrate$"):
        simulate_stack(flow)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(steps_to_dict(flow)))
    assert cli.main(["flow-check", str(path), "--quiet"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: etch_vapor of SiO2 removes the substrate\n"


def test_etch_of_unexposed_target_raises():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Pt", thickness_m=25 * NM),
        ProcessStep(kind="deposit", material="Al", thickness_m=75 * NM),
        ProcessStep(kind="etch_ibe", material="Pt", chemistry="Ar", duration_s=60),
    )
    with pytest.raises(FlowError):
        simulate_stack(flow)


def test_missing_rate_error():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="GaN", thickness_m=100 * NM),
        ProcessStep(kind="etch_ibe", material="GaN", chemistry="Ar", duration_s=60),
    )
    with pytest.raises(MissingRateError):
        simulate_stack(flow)


def test_strip_ash_consumes_organics_top_down():
    flow = (
        substrate(),
        ProcessStep(kind="spin_coat", material="DS-K101", thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(
            kind="strip_ash", chemistry="O2", temperature_c=250, duration_s=60
        ),
    )
    state = simulate_stack(flow)[-1]
    # budget 400 nm: resist gone exactly, BARC untouched
    assert state.materials == ("Si", "DS-K101")
    assert state.thickness_of("DS-K101") == pytest.approx(60 * NM)


def test_partial_ash_thins_the_top_resist_by_rate_times_time():
    flow = (
        substrate(),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="strip_ash", chemistry="O2", temperature_c=120, duration_s=45),
    )
    state = simulate_stack(flow)[-1]
    # 100 nm/min for 0.75 min
    assert state.materials == ("Si", "M108Y")
    assert state.thickness_of("M108Y") == pytest.approx(400 * NM - 100.0 * 0.75 * NM, rel=1e-12)
    assert state.notes == ()


def test_ash_that_outlasts_the_organics_stops_at_the_first_inorganic_layer():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Al", thickness_m=75 * NM),
        ProcessStep(kind="spin_coat", material="DS-K101", thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="strip_ash", chemistry="O2", temperature_c=250, duration_s=120),
    )
    state = simulate_stack(flow)[-1]
    assert state.materials == ("Si", "Al")
    assert state.thickness_of("Al") == 75 * NM
    assert state.notes == ("M108Y fully removed by ash", "DS-K101 fully removed by ash",
                           "ash budget left over with no organics on top")


def test_remover_lifts_stacked_resists_and_stops_at_a_barc():
    bath = ProcessStep(kind="strip_wet", chemistry="Remover 1165", duration_s=600)
    flow = (
        substrate(),
        ProcessStep(kind="spin_coat", material="DS-K101", thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M35G", thickness_m=1100 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        bath,
        bath,
    )
    lifted, again = simulate_stack(flow)[-2:]
    assert lifted.materials == again.materials == ("Si", "DS-K101")
    assert lifted.thickness_of("DS-K101") == 60 * NM
    assert lifted.notes == ("M108Y stripped in remover", "M35G stripped in remover")
    assert again.notes == ("remover bath found no soluble resist on top",)


def test_ibe_that_outlasts_the_mask_consumes_resist_then_barc():
    flow = (
        substrate(),
        ProcessStep(kind="deposit", material="Pt", thickness_m=25 * NM),
        ProcessStep(kind="spin_coat", material="DS-K101", thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="develop", chemistry="TMA238WA", duration_s=60),
        # 22 nm/min clears 460 nm of mask in about 1255 s
        ProcessStep(kind="etch_ibe", material="Pt", chemistry="Ar", duration_s=1500),
    )
    state = simulate_stack(flow)[-1]
    assert state.materials == ("Si", "Pt")
    assert state.layers[1].patterned and state.thickness_of("Pt") == 25 * NM
    assert state.notes == ("mask M108Y fully consumed during etch",
                           "mask DS-K101 fully consumed during etch")


def test_strip_ash_unknown_temperature():
    flow = (
        substrate(),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="strip_ash", chemistry="O2", temperature_c=180, duration_s=60),
    )
    with pytest.raises(MissingRateError):
        simulate_stack(flow)


def test_remover_lifts_resist_not_barc():
    flow = (
        substrate(),
        ProcessStep(kind="spin_coat", material="DS-K101", thickness_m=60 * NM),
        ProcessStep(kind="spin_coat", material="M108Y", thickness_m=400 * NM),
        ProcessStep(kind="strip_wet", chemistry="Remover 1165", duration_s=600),
    )
    state = simulate_stack(flow)[-1]
    assert state.materials == ("Si", "DS-K101")


def test_release_pulse_threshold():
    stack = (
        substrate(),
        ProcessStep(kind="deposit", material="AlScN", thickness_m=400 * NM),
    )
    short = stack + (ProcessStep(kind="release", chemistry="XeF2", pulses=49, duration_s=45),)
    full = stack + (ProcessStep(kind="release", chemistry="XeF2", pulses=50, duration_s=45),)
    assert not simulate_stack(short)[-1].suspended
    assert simulate_stack(full)[-1].suspended


def test_material_conservation_on_golden_flow():
    # thickness of a material never grows except when a deposit names it
    flow = packaged_flow("alscn-ti-adhesion")
    states = simulate_stack(flow)
    materials = {l.material for s in states for l in s.layers}
    for i in range(1, len(states)):
        step = flow[i]
        for m in materials:
            before = states[i - 1].thickness_of(m)
            after = states[i].thickness_of(m)
            if step.kind in ("deposit", "spin_coat") and step.material == m:
                continue
            assert after <= before + 1e-18, (i, m)


# ------------------------------------------------------------ golden flows


@pytest.mark.parametrize("name", GOLDEN_FLOW_NAMES)
def test_golden_flow_clean(name):
    report = check_flow(packaged_flow(name))
    assert report.error_count == 0
    # the post-mill O2 resist strip is the one expected oxidation warning
    assert [v.code for v in report.violations] == ["AL_OXIDATION"]
    assert report.final_state.suspended
    top = report.final_state.layers[-1]
    assert top.material == "Al" and top.patterned


def test_golden_flow_final_stack():
    report = check_flow(packaged_flow("alscn-ti-adhesion"))
    assert report.final_state.materials == ("Si", "Ti", "Pt", "AlScN", "Al")
    assert all(l.patterned for l in report.final_state.layers[1:])
    assert report.final_state.thickness_of("AlScN") == pytest.approx(400 * NM)


def test_flow_report_serialization():
    report = check_flow(packaged_flow("alscn-aln-adhesion"))
    doc = report.to_dict()
    assert doc["error_count"] == 0
    assert doc["suspended"] is True
    assert doc["final_stack"][0]["material"] == "Si"
    lines = report.summary_lines()
    assert lines[-2] == "0 error(s), 1 warning(s)"
    assert "final stack:" in lines[-1]


def test_check_flow_simulates_once(monkeypatch):
    hf = packaged_flow("alscn-ti-adhesion")
    hf = mutate(hf, find_step(hf, kind="etch_vapor"), kind="etch_wet",
                chemistry="49%HF/H2O 1:50")
    flows = [packaged_flow(name) for name in GOLDEN_FLOW_NAMES] + [hf]
    # the report is the one the two separate public calls give
    want = [FlowReport(check_flow(f).violations, tuple(simulate_stack(f)))
            for f in flows]
    calls = []

    def counting(flow, rates=None):
        calls.append(1)
        return simulate_stack(flow, rates)

    monkeypatch.setattr(processflow, "simulate_stack", counting)
    for flow, expected in zip(flows, want):
        calls.clear()
        assert check_flow(flow) == expected
        assert len(calls) == 1


def test_flow_json_round_trip():
    flow = packaged_flow("alscn-ti-adhesion")
    doc = steps_to_dict(flow, name="x")
    assert steps_from_dict(doc) == flow


# ------------------------------------------------------- mutation scenarios


def new_codes_vs_golden(golden, mutated):
    base = violation_codes(golden)
    new = violation_codes(mutated)
    for code in base:
        new.remove(code)
    return new


def test_mutation_wet_hf_attacks_ti():
    golden = packaged_flow("alscn-ti-adhesion")
    i = find_step(golden, kind="etch_vapor")
    mutated = mutate(golden, i, kind="etch_wet", chemistry="49%HF/H2O 1:50")
    assert new_codes_vs_golden(golden, mutated) == ["HF_ATTACKS_TI"]
    hit = [v for v in check_flow(mutated).violations if v.code == "HF_ATTACKS_TI"]
    assert [v.step_index for v in hit] == [i]
    assert hit[0].severity == "error"
    # same swap on the AlN-adhesion wafer is harmless: no Ti anywhere
    aln = packaged_flow("alscn-aln-adhesion")
    j = find_step(aln, kind="etch_vapor")
    swapped = mutate(aln, j, kind="etch_wet", chemistry="49%HF/H2O 1:50")
    assert new_codes_vs_golden(aln, swapped) == []


def test_mutation_developable_barc_exposes_al():
    golden = packaged_flow("alscn-aln-adhesion")
    coat = find_step(golden, kind="spin_coat", material="DUV42-P")
    barc_open = find_step(golden, kind="etch_dry", material="DUV42-P")
    develop = next(
        i for i in range(coat, len(golden)) if golden[i].kind == "develop"
    )
    mutated = mutate(
        mutate(golden, coat, material="DS-K101"), barc_open, material="DS-K101"
    )
    assert new_codes_vs_golden(golden, mutated) == ["DEVELOPER_ATTACKS_AL"]
    hit = [v for v in check_flow(mutated).violations if v.code == "DEVELOPER_ATTACKS_AL"]
    assert [v.step_index for v in hit] == [develop]
    assert hit[0].severity == "error"


def test_mutation_missing_rinse_after_cl_etch():
    golden = packaged_flow("alscn-aln-adhesion")
    rinse = find_step(golden, kind="strip_wet", chemistry="DI water")
    cl_etch = rinse - 1
    assert golden[cl_etch].chemistry == "Cl2/BCl3"
    mutated = golden[:rinse] + golden[rinse + 1 :]
    assert new_codes_vs_golden(golden, mutated) == ["POST_CL_RINSE"]
    hit = [v for v in check_flow(mutated).violations if v.code == "POST_CL_RINSE"]
    assert [v.step_index for v in hit] == [cl_etch]
    assert hit[0].severity == "error"


def test_mutation_o2_strip_oxidizes_al():
    golden = packaged_flow("alscn-aln-adhesion")
    i = find_step(golden, kind="strip_ash", temperature_c=250.0, duration_s=75.0)
    assert "forming" in golden[i].chemistry
    mutated = mutate(golden, i, chemistry="O2")
    assert new_codes_vs_golden(golden, mutated) == ["AL_OXIDATION"]
    hits = [v for v in check_flow(mutated).violations if v.code == "AL_OXIDATION"]
    assert i in [v.step_index for v in hits]
    assert all(v.severity == "warning" for v in hits)


def test_mutation_overash_before_wet_strip():
    golden = packaged_flow("alscn-aln-adhesion")
    i = find_step(golden, kind="strip_ash", temperature_c=120.0, duration_s=60.0)
    assert "forming" in golden[i].chemistry
    # full-rate O2 ash burns off the whole resist before the 1165 bath
    mutated = mutate(golden, i, chemistry="O2", temperature_c=250.0)
    assert new_codes_vs_golden(golden, mutated) == ["OVERASH_BEFORE_WET"]
    hit = [v for v in check_flow(mutated).violations if v.code == "OVERASH_BEFORE_WET"]
    assert [v.step_index for v in hit] == [i]
    assert hit[0].severity == "warning"


def missing_rinse(golden):
    rinse = find_step(golden, kind="strip_wet", chemistry="DI water")
    return golden[:rinse] + golden[rinse + 1 :]


def overash(golden):
    i = find_step(golden, kind="strip_ash", temperature_c=120.0, duration_s=60.0)
    return mutate(golden, i, chemistry="O2", temperature_c=250.0)


@pytest.mark.parametrize("code, mutation", [("POST_CL_RINSE", missing_rinse),
                                            ("OVERASH_BEFORE_WET", overash)])
def test_severity_comes_from_the_registry(tmp_path, monkeypatch, capsys, code, mutation):
    golden = packaged_flow("alscn-aln-adhesion")
    flow = mutation(golden)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(steps_to_dict(flow)))
    severity = processflow.RULE_REGISTRY[code][0]
    other = {"error": "warning", "warning": "error"}[severity]
    errors = check_flow(flow).error_count
    monkeypatch.setitem(processflow.RULE_REGISTRY, code,
                        (other, *processflow.RULE_REGISTRY[code][1:]))
    report = check_flow(flow)
    assert [v.severity for v in report.violations if v.code == code] == [other]
    assert report.error_count == errors + (1 if other == "error" else -1)
    assert cli.main(["flow-check", str(path), "--out", str(tmp_path)]) == (
        cli.EXIT_FLOW_ERRORS if report.error_count else cli.EXIT_OK)
    assert f"{other} {code}" in capsys.readouterr().out


def test_rule_evaluation_monotone_under_append():
    golden = packaged_flow("alscn-aln-adhesion")
    rinse = find_step(golden, kind="strip_wet", chemistry="DI water")
    flows = [
        golden[:rinse] + golden[rinse + 1 :],
        mutate(
            golden,
            find_step(golden, kind="strip_ash", temperature_c=120.0, duration_s=60.0),
            chemistry="O2",
            temperature_c=250.0,
        ),
    ]
    for flow in flows:
        seen: list = []
        for n in range(1, len(flow) + 1):
            now = [(v.step_index, v.code) for v in check_flow(flow[:n]).violations]
            assert all(item in now for item in seen)
            seen = now


def test_violations_sorted_by_step_and_code():
    golden = packaged_flow("alscn-ti-adhesion")
    i = find_step(golden, kind="etch_vapor")
    mutated = mutate(golden, i, kind="etch_wet", chemistry="49%HF/H2O 1:50")
    vs = check_flow(mutated).violations
    keys = [(v.step_index, v.code) for v in vs]
    assert keys == sorted(keys)


# ------------------------------------------------------------ etch budgets


def budget_rates(target_rate, mask_rate=25.0):
    return RateTable(
        entries={("AlScN", "ibe"): target_rate, ("SiO2", "ibe"): mask_rate},
        ashing_nm_min={},
    )


def test_etch_budget_pass():
    # selectivity target:mask = 1.2 at 400 nm + 30% overetch
    rep = etch_budget("SiO2", 800 * NM, "AlScN", 400 * NM, 0.30, budget_rates(30.0))
    assert rep.consumed_mask_m == pytest.approx(400 * NM * 1.3 / 1.2)
    assert rep.consumed_mask_m == pytest.approx(433.33 * NM, rel=1e-4)
    assert rep.remaining_mask_m == pytest.approx(366.67 * NM, rel=1e-4)
    assert rep.passes


def test_etch_budget_fail():
    rep = etch_budget("SiO2", 800 * NM, "AlScN", 400 * NM, 0.30, budget_rates(10.0))
    assert rep.consumed_mask_m == pytest.approx(1300 * NM)
    assert rep.remaining_mask_m == 0.0
    assert not rep.passes


def test_etch_budget_equal_rates_margin():
    rep = etch_budget("SiO2", 800 * NM, "AlScN", 400 * NM, 0.0, budget_rates(25.0))
    assert rep.passes
    assert rep.remaining_mask_m == pytest.approx((800 - 400) * NM)


def test_etch_budget_monotone():
    rates = budget_rates(20.0)
    thick = [etch_budget("SiO2", t * NM, "AlScN", 400 * NM, 0.3, rates).passes
             for t in (500, 650, 700, 900)]
    assert thick == sorted(thick)  # pass only gets easier with more mask
    over = [etch_budget("SiO2", 700 * NM, "AlScN", 400 * NM, f, rates).passes
            for f in (0.0, 0.2, 0.4, 0.6)]
    assert over == sorted(over, reverse=True)


def test_etch_budget_default_rates_match_shipped_flow():
    # shipped milling rates keep the 800 nm hard mask sufficient
    rep = etch_budget("SiO2", 800 * NM, "AlScN", 400 * NM, 0.30, DEFAULT_RATES)
    assert rep.passes
    with pytest.raises(MissingRateError):
        etch_budget("SiO2", 800 * NM, "GaN", 400 * NM, 0.3, DEFAULT_RATES)


# ------------------------------------------------------------- ashing time


def test_ashing_time_values():
    assert ashing_time(400 * NM, 250.0) == pytest.approx(60.0)
    assert ashing_time(100 * NM, 120.0) == pytest.approx(60.0)
    assert ashing_time(0.0, 250.0) == 0.0
    with pytest.raises(MissingRateError):
        ashing_time(400 * NM, 200.0)


def test_rate_table_round_trip():
    doc = DEFAULT_RATES.to_dict()
    again = RateTable.from_dict(doc)
    assert again == DEFAULT_RATES
    with pytest.raises(InputError):
        RateTable(entries={("Al", "ibe"): -1.0}, ashing_nm_min={})
    with pytest.raises(InputError):
        RateTable.from_dict({"procs": {}})



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["thickness_m", "temperature_c", "duration_s", "repeats",
                                   "pulses", "recipe"])
def test_step_constructor_rejects_what_the_loader_rejects(field, bad):
    # built in process, not loaded from JSON: the same finite-number rule
    value = ((0.0, bad),) if field == "recipe" else bad
    with pytest.raises(InputError):
        ProcessStep(kind="etch_wet", material="Al", chemistry="HF", **{field: value})
    with pytest.raises(InputError):
        steps_from_dict({"steps": [{"kind": "etch_wet", "material": "Al", "chemistry": "HF",
                                    field: [[0.0, bad]] if field == "recipe" else bad}]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_table_constructor_rejects_what_the_loader_rejects(bad):
    with pytest.raises(InputError, match="rate for Al/ibe"):
        RateTable(entries={("Al", "ibe"): bad}, ashing_nm_min={})
    with pytest.raises(InputError, match="ashing rate at 150"):
        RateTable(entries={}, ashing_nm_min={150.0: bad})
    with pytest.raises(InputError, match="ashing_nm_min key"):
        RateTable(entries={}, ashing_nm_min={bad: 40.0})


@pytest.mark.parametrize("doc, json_path", [
    ({"processes": {"ibe": 5}}, "processes.ibe"),
    ({"processes": {"ibe": {"Pt": "fast"}}}, "processes.ibe.Pt"),
    ({"processes": []}, "processes"),
    ({"ashing_nm_min": {"150": "slow"}}, "ashing_nm_min.150"),
    ({"ashing_nm_min": {"hot": 40.0}}, "ashing_nm_min key 'hot'"),
    ({"ashing_nm_min": {"nan": 40.0}}, "ashing_nm_min key 'nan'"),
    ({"ashing_nm_min": {"1e400": 40.0}}, "ashing_nm_min key '1e400'"),
])
def test_rate_table_names_the_bad_entry(doc, json_path):
    with pytest.raises(InputError, match=re.escape(json_path)):
        RateTable.from_dict(doc)
