"""Touchstone parsing/serialization and one-port OSL calibration."""

import math
import re
import warnings

import numpy as np
import pytest
from oracles import osl_correct_reference, parse_touchstone_reference

from lambkit.calibration import (
    ErrorBox,
    apply_correction,
    calibrate_file,
    osl_solve,
)
from lambkit.errors import (
    CalibrationError,
    CorrectionError,
    InputError,
    TouchstoneParseError,
)
from lambkit.touchstone import (
    FORMATS,
    TouchstoneFile,
    parse_touchstone,
    s11_to_y,
    serialize_touchstone,
    touchstone_to_trace,
    y_to_s11,
)


def test_parse_ri_hand_decoded():
    tf = parse_touchstone("# HZ S RI R 50\n1e9 0.5 -0.5\n")
    assert tf.frequencies[0] == 1e9
    assert tf.s11[0] == 0.5 - 0.5j
    assert tf.z0 == 50.0
    assert tf.fmt == "RI"
    assert tf.frequency_unit == "Hz"


def test_parse_ma_defaults():
    tf = parse_touchstone("# GHz S MA R 50\n1 1 0\n")
    assert tf.frequencies[0] == 1e9
    assert tf.s11[0] == 1 + 0j


def test_parse_defaults_when_fields_omitted():
    tf = parse_touchstone("#\n1 0.5 90\n")
    assert tf.frequency_unit == "GHz"
    assert tf.fmt == "MA"
    assert tf.z0 == 50.0
    assert tf.s11[0] == pytest.approx(0.5j, abs=1e-15)


def test_parse_tokens_any_order_any_case():
    tf = parse_touchstone("# r 75 ri s mhz\n1 0.1 0.2\n")
    assert tf.z0 == 75.0
    assert tf.fmt == "RI"
    assert tf.frequencies[0] == 1e6


def test_parse_db_format():
    tf = parse_touchstone("# hz s db r 50\n1e6 -6.0205999132796239 0\n")
    assert abs(tf.s11[0]) == pytest.approx(0.5, rel=1e-12)


def test_parse_comments_preserved():
    tf = parse_touchstone("! instrument: bench 3\n# ghz s ri r 50\n1 0 0 ! inline dropped\n")
    assert tf.comments == ("instrument: bench 3",)
    assert tf.s11[0] == 0j


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("# ghz s ri r 50\n1 0 0\n0.5 0 0\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("# ghz s ri r 50\n1 0\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("# ghz s xx r 50\n1 0 0\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(TouchstoneParseError):
        parse_touchstone("# ghz s ri r 50\n")
    with pytest.raises(TouchstoneParseError):
        parse_touchstone("1 0 0\n")
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("# ghz s y r 50\n1 0 0\n")
    assert "unsupported" in str(exc.value)


@pytest.mark.parametrize("row", ["1.1 nan 0", "1.1 0.5 inf", "1.1 -Infinity 0", "nan 0.5 0"])
def test_parse_rejects_non_finite_data(row):
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone(f"# ghz s ri r 50\n1 0.5 0\n{row}\n")
    assert "line 3" in str(exc.value)
    assert "non-finite" in str(exc.value)


def test_parse_rejects_overflowing_db_magnitude():
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("# ghz s db r 50\n1 -3 0\n1.1 7000 0\n")
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize("z0", ["nan", "inf", "0"])
def test_parse_rejects_bad_reference_impedance(z0):
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone(f"# ghz s ri r {z0}\n1 0.5 0\n")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("frequencies, s11, z0, why", [
    ([1e9, 2e9], [0.1, 0.2], math.nan, "reference impedance"),
    ([1e9, 2e9], [0.1, 0.2], math.inf, "reference impedance"),
    ([1e9, math.inf], [0.1, 0.2], 50.0, "frequencies"),
    ([1e9, math.nan], [0.1, 0.2], 50.0, "frequencies"),
    ([1e9, 2e9], [0.1, complex(math.nan, 0.0)], 50.0, "S11"),
])
def test_touchstone_file_refuses_non_finite_values(frequencies, s11, z0, why):
    # parse_touchstone refuses these too; this is the library caller's path
    with pytest.raises(InputError, match=why):
        TouchstoneFile(frequencies, s11, z0)


@pytest.mark.parametrize("changes, message", [
    ({"s11": [0.1]}, "frequency and S11 lengths differ"),
    ({"frequency_unit": "THz"}, "unknown frequency unit 'THz'"),
    ({"fmt": "ri"}, "unknown format 'ri'"),
])
def test_touchstone_file_refuses_what_a_file_cannot_hold(changes, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        TouchstoneFile(**{"frequencies": [1e9, 2e9], "s11": [0.1, 0.2], **changes})


@pytest.mark.parametrize("transform", [s11_to_y, y_to_s11])
@pytest.mark.parametrize("z0", [math.nan, math.inf])
def test_s11_transforms_refuse_non_finite_reference_impedance(transform, z0):
    with pytest.raises(InputError, match="reference impedance must be positive and finite"):
        transform(0.5 + 0j, z0)


def test_correction_that_overflows_is_refused():
    f = np.array([1e9, 2e9])
    short, open_std, load = (_touchstone(f, np.full(2, g)) for g in (-0.5, 0.5, 0.0))
    # |G| = 2 * 1e308: refused at its frequency, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorrectionError, match=r"^correction overflows at 1e\+09 Hz: "
                                                  r"corrected S11 is not finite$"):
            calibrate_file(_touchstone(f, [1e308, 0.1]), short, open_std, load)


def test_round_trip_all_formats_and_units():
    rng = np.random.default_rng(7)
    for fmt in ("RI", "MA", "DB"):
        for unit in ("Hz", "kHz", "MHz", "GHz"):
            n = 12
            f = np.sort(rng.uniform(1e6, 9e9, n))
            s = rng.uniform(0.05, 0.95, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
            tf = TouchstoneFile(
                frequencies=f, s11=s, z0=50.0, frequency_unit=unit, fmt=fmt,
                comments=("roundtrip check",),
            )
            back = parse_touchstone(serialize_touchstone(tf))
            assert back.fmt == fmt
            assert back.frequency_unit == unit
            assert back.comments == tf.comments
            np.testing.assert_allclose(back.frequencies, f, rtol=1e-12)
            np.testing.assert_allclose(back.s11, s, rtol=1e-12)
            if fmt == "RI":
                np.testing.assert_array_equal(back.s11, s)


def _parse_outcome(parse, text):
    """What a parser makes of text: its error, or the parsed file bit for bit."""
    try:
        tf = parse(text)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc), getattr(exc, "line", None)
    # int64 views compare every bit, signed zeros included
    return (tf.frequencies.view(np.int64).tolist(), tf.s11.view(np.int64).tolist(),
            tf.z0, tf.frequency_unit, tf.fmt, tf.comments)


_SPELLINGS = (repr, "{:.12e}".format, "{:.17g}".format, "{:g}".format, "{:+.6f}".format,
              "{:E}".format)


def _seeded_s1p(rng, fmt: str, unit: str, n: int = 60) -> list:
    """Lines of a valid .s1p file with varied spellings, comments and spacing."""
    f = np.cumsum(rng.uniform(0.01, 3.0, n)) * 10.0 ** rng.integers(-3, 10)
    a = rng.uniform(-60, 20, n) if fmt == "DB" else rng.uniform(-1.5, 1.5, n)
    b = rng.uniform(-720, 720, n)
    # exact zeros of either sign, integers and the angles where cos or sin is 0
    a[rng.integers(0, n, 6)] = rng.choice([0.0, -0.0, 1.0, -1.0], 6)
    b[rng.integers(0, n, 10)] = rng.choice([0.0, -0.0, 90.0, -90.0, 180.0, 270.0, 360.0], 10)
    tokens = rng.permutation(["S", fmt, unit, "R 50"]).tolist()
    tokens = [t.lower() if rng.random() < 0.5 else t for t in tokens]
    lines = ["! measured on a seeded bench", "!", f"  # {' '.join(tokens)}  "]
    for fi, ai, bi in zip(f.tolist(), a.tolist(), b.tolist()):
        spell = [_SPELLINGS[i] for i in rng.integers(0, len(_SPELLINGS), 2)]
        row = f"{fi!r}{' ' * rng.integers(1, 3)}{spell[0](ai)}\t{spell[1](bi)}"
        roll = rng.random()
        if roll < 0.1:
            row += " ! inline note"
        elif roll < 0.2:
            lines.append(rng.choice(["", "   ", "! between rows", "\t! indented comment"]))
        lines.append(row)
    return lines


@pytest.mark.parametrize("fmt", FORMATS)
def test_parse_matches_line_parser_bit_for_bit(fmt):
    rng = np.random.default_rng([11, FORMATS.index(fmt)])
    for unit in ("Hz", "kHz", "MHz", "GHz"):
        for newline in ("\n", "\r\n"):
            text = newline.join(_seeded_s1p(rng, fmt, unit)) + newline
            want = _parse_outcome(parse_touchstone_reference, text)
            assert isinstance(want[0], list), want
            assert _parse_outcome(parse_touchstone, text) == want
            assert _parse_outcome(parse_touchstone, text.encode("ascii")) == want


_BAD_TOKENS = ("nan", "-inf", "Infinity", "abc", "1e999", "7000", "6000", "0", "-1", "1,5",
               "1_0", "-0.0", "1e-320", "1e300", "0x10", "--1")
_BAD_LINES = ("# GHz S RI R 50", "# hz s db r 0", "# ghz s ma r", "# ghz s ri r x", "# mhz y ri",
              "#", "1 2", "1 2 3 4", "x y z", "5 1 1", "1e300 0 0", "! c", "", "  ! ", "0.5 1 1",
              "0 1 1", "-1 0 0",
              # characters str.splitlines breaks at, which end no Touchstone line
              "! c\x0c1 2 3", "1 1 1 ! c\x852 0 0", "5 1 1\u20283 1 1", "\x0b", "1 2\x1c3",
              "2 2 2 ! \x1d", "\x1e9 9 9\u2029")


def _mutate(rng, lines: list) -> list:
    """One seeded edit: a bad token, a dropped, repeated, swapped or inserted
    line, a dropped token, or a stray '!'."""
    lines = list(lines)
    i = int(rng.integers(0, len(lines)))
    op = rng.integers(0, 7)
    if op == 0:
        toks = lines[i].split() or [""]
        toks[rng.integers(0, len(toks))] = str(rng.choice(_BAD_TOKENS))
        lines[i] = " ".join(toks)
    elif op == 1:
        del lines[i]
    elif op == 2:
        lines.insert(i, lines[i])
    elif op == 3:
        j = int(rng.integers(0, len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 4:
        lines.insert(i, str(rng.choice(_BAD_LINES)))
    elif op == 5:
        toks = lines[i].split()
        if toks:
            del toks[rng.integers(0, len(toks))]
        lines[i] = " ".join(toks)
    else:
        k = int(rng.integers(0, len(lines[i]) + 1))
        lines[i] = lines[i][:k] + "!" + lines[i][k:]
    return lines or ["1 1 1"]


def test_parse_mutations_fail_as_the_line_parser_does():
    rng = np.random.default_rng(2024)
    kinds = set()
    for case in range(900):
        fmt = FORMATS[case % 3]
        unit = ("Hz", "kHz", "MHz", "GHz")[case // 3 % 4]
        lines = _seeded_s1p(rng, fmt, unit, n=8)
        for _ in range(rng.integers(1, 4)):
            lines = _mutate(rng, lines)
        text = ("\r\n" if case % 2 else "\n").join(lines) + "\n"
        want = _parse_outcome(parse_touchstone_reference, text)
        assert _parse_outcome(parse_touchstone, text) == want, text
        if not isinstance(want[0], list):
            kinds.add((want[0], want[1].split(": ", 1)[-1].split(" ")[0]))
    # the edits reach every kind of fault, not only the first check
    assert len(kinds) >= 12, kinds


def test_parse_earliest_faulty_line_wins():
    head = "# ghz s ri r 50\n1 0 0\n"
    cases = {
        "2 nan 0\n3 0\n": (3, "non-finite"),  # a value fault before a column fault
        "0.5 0 0\n# ghz s ri r 50\n": (3, "not strictly increasing"),
        "2 x 0\n1 0 0\n": (3, "non-numeric"),
        "2 0 0\n1 0 0\n3 x 0\n": (4, "not strictly increasing"),
        "2 0 0\n3 0\n4 x 0\n": (4, "expected 3 columns"),
        # a frequency that is not positive and finite in Hz, before the order check
        "-1 0 0\n": (3, "frequency -1.0 not positive and finite in Hz"),
        "0 0 0\n": (3, "frequency 0.0 not positive and finite in Hz"),
        "1e300 0 0\n": (3, "frequency 1e+300 not positive and finite in Hz"),
        # a lone CR ends a line as LF and CRLF do
        "2 0 0\r3 0\n": (4, "expected 3 columns"),
        "2 0 0\r\r\n3 0\n": (5, "expected 3 columns"),
    }
    # no other character ends a line: these run on into the comment they follow
    for brk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        cases[f"2 0 0 ! c{brk}\n3 0\n"] = (4, "expected 3 columns, found 2")
        cases[f"! note{brk}x\n2 x 0\n"] = (4, "non-numeric data '2 x 0'")
    for tail, (line, what) in cases.items():
        with pytest.raises(TouchstoneParseError) as exc:
            parse_touchstone(head + tail)
        assert exc.value.line == line and what in str(exc.value), repr(tail)


def test_parse_breaks_lines_only_at_lf_crlf_and_cr():
    # NEL and form feed sit inside a comment, not at the start of a data line
    tf = parse_touchstone("# ghz s ri r 50\n1 0.1 0.2 ! c\x852 0.3 0.4\n")
    assert tf.frequencies.tolist() == [1e9]
    tf = parse_touchstone("# ghz s ri r 50\n! note\x0c1.5 0.1 0.2\n1 0.1 0.2\n")
    assert tf.frequencies.tolist() == [1e9] and tf.comments == ("note\x0c1.5 0.1 0.2",)
    # the line of a byte that is not UTF-8 is counted by the same rule
    for text, line in ((b"#\r\n1 1 1\r\xff", 3), (b"#\r\r\xff", 3), (b"! \x0c\xc2\x85\n\xff", 2)):
        with pytest.raises(TouchstoneParseError) as exc:
            parse_touchstone(text)
        assert exc.value.line == line and "byte 0xff is not UTF-8" in str(exc.value), text


def test_s11_to_y_values():
    assert s11_to_y(0j, 50.0) == pytest.approx(0.02)
    assert s11_to_y(1 + 0j, 50.0) == 0
    assert s11_to_y(-0.5 + 0j, 50.0) == pytest.approx(0.06)
    with pytest.raises(ValueError):
        s11_to_y(-1 + 0j, 50.0)


def test_s11_y_inverse_property():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.01, 0.97, 200) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    np.testing.assert_allclose(y_to_s11(s11_to_y(s, 50.0), 50.0), s, rtol=1e-12)


def test_touchstone_to_trace():
    tf = parse_touchstone("# hz s ri r 50\n1e9 0 0\n2e9 0.5 0\n")
    tr = touchstone_to_trace(tf)
    assert tr.admittance[0] == pytest.approx(0.02)
    assert tr.frequencies[1] == 2e9


def test_error_box_identity_and_validation():
    box = ErrorBox(e00=0j, e11=0j, de=-1 + 0j)
    assert box.e10e01 == 1 + 0j
    assert apply_correction(box, 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)
    with pytest.raises(ValueError):
        ErrorBox(e00=0j, e11=1.5 + 0j, de=0j)


def test_osl_identity_fixture():
    f = np.array([1e9, 2e9])
    box = osl_solve(f, [-1, -1], [1, 1], [0, 0])
    assert box.e00.shape == box.e11.shape == box.de.shape == f.shape
    for i in range(f.size):
        assert box.e00[i] == pytest.approx(0, abs=1e-14)
        assert box.e11[i] == pytest.approx(0, abs=1e-14)
        assert box.e10e01[i] == pytest.approx(1, abs=1e-14)


def test_osl_round_trip_synthetic_box():
    rng = np.random.default_rng(3)
    f = np.linspace(1e9, 3e9, 17)
    e00 = 0.05 * np.exp(1j * rng.uniform(-math.pi, math.pi, f.size))
    e11 = 0.2 * np.exp(1j * rng.uniform(-math.pi, math.pi, f.size))
    e10e01 = 0.9 * np.exp(1j * rng.uniform(-0.2, 0.2, f.size))

    def forward(g, i):
        return e00[i] + e10e01[i] * g / (1.0 - e11[i] * g)

    ms = np.array([forward(-1 + 0j, i) for i in range(f.size)])
    mo = np.array([forward(1 + 0j, i) for i in range(f.size)])
    ml = np.array([forward(0j, i) for i in range(f.size)])
    box = osl_solve(f, ms, mo, ml)
    g_dut = 0.4 * np.exp(1j * rng.uniform(-math.pi, math.pi, f.size))
    corrected = apply_correction(box, [forward(g_dut[i], i) for i in range(f.size)])
    for i in range(f.size):
        assert box.e00[i] == pytest.approx(e00[i], rel=1e-11, abs=1e-12)
        assert box.e11[i] == pytest.approx(e11[i], rel=1e-11, abs=1e-12)
        assert corrected[i] == pytest.approx(g_dut[i], rel=1e-11)


def test_osl_degenerate_standards():
    f = np.array([1e9])
    with pytest.raises(CalibrationError):
        osl_solve(f, [0.5], [0.5], [0.0])


@pytest.mark.parametrize("f, short", [
    ([1e9, 2e9], [-1.0]),  # one standard is short of the grid
    ([[1e9, 2e9]], [[-1.0, -1.0]]),  # one shape, but not one axis
])
def test_osl_solve_refuses_arrays_off_one_shared_axis(f, short):
    with pytest.raises(InputError, match="^frequency and standard arrays must share one shape$"):
        osl_solve(f, short, np.ones_like(short), np.zeros_like(short))


def _random_box(seed, n):
    rng = np.random.default_rng(seed)
    e00 = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    e11 = rng.uniform(0.0, 0.3, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    e10e01 = rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    dut = 0.9 * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    return (lambda g: e00 + e10e01 * g / (1.0 - e11 * g)), dut


def _touchstone(f, s11):
    return TouchstoneFile(frequencies=f.copy(), s11=np.asarray(s11, dtype=complex),
                          z0=50.0, frequency_unit="Hz", fmt="RI")


def _calibrate_both(f, forward, dut):
    gammas = [np.full(f.shape, g, dtype=complex) for g in (-1, 1, 0)]  # short, open, load
    meas = [forward(g) for g in gammas]
    out = calibrate_file(_touchstone(f, forward(dut)), *(_touchstone(f, m) for m in meas))
    return out.s11, osl_correct_reference(meas, gammas, forward(dut))


def test_calibrate_file_bit_identical_to_per_point_loop():
    f = np.linspace(0.5e9, 3e9, 1601)
    for seed in range(20):
        got, want = _calibrate_both(f, *_random_box(seed, f.size))
        assert np.array_equal(got.view(float), want.view(float)), seed


def test_osl_degenerate_standards_names_frequency():
    f = np.array([1e9, 2e9, 3e9])
    with pytest.raises(CalibrationError, match="degenerate standards at 2e\\+09 Hz"):
        osl_solve(f, [-0.9, 0.5, -0.9], [0.9, 0.5, 0.9], [0.0, 0.0, 0.0])


def test_osl_singular_system_names_frequency():
    # at 100 GHz the open reads one ulp above the short, and the last LU
    # pivot of that frequency's system rounds to zero
    f = np.array([1e9, 1e11])
    ms, mo, ml = [-0.9, 0.5], [0.9, np.nextafter(0.5, 1)], [0.0, 0.1]
    with pytest.raises(CalibrationError, match="singular calibration system at 1e\\+11 Hz"):
        osl_solve(f, ms, mo, ml)


def test_osl_unphysical_box_names_frequency():
    f = np.array([1e9, 2e9])
    e11 = np.array([0.1, 1.5])
    forward = lambda g: 0.01 + 0.9 * g / (1.0 - e11 * g)
    with pytest.raises(CalibrationError, match="unphysical error box at 2e\\+09 Hz"):
        osl_solve(f, forward(-1.0), forward(1.0), forward(0.0))


def test_apply_correction_array_singularity():
    box = ErrorBox(e00=np.zeros(3, complex), e11=np.full(3, 0.5 + 0j), de=np.zeros(3, complex))
    with pytest.raises(CorrectionError, match="singular correction denominator"):
        apply_correction(box, [0.1, 0j, 0.2])


def test_apply_correction_directivity_only():
    box = ErrorBox(e00=0.3 + 0.1j, e11=0j, de=-(1 + 0j) + (0.3 + 0.1j) * 0j)
    assert apply_correction(box, 0.3 + 0.1j) == 0j


def test_apply_correction_singularity():
    box = ErrorBox(e00=0j, e11=0.5 + 0j, de=-0j)
    # e10e01 = -de = 0, and s = e00 makes the denominator zero
    with pytest.raises(CorrectionError):
        apply_correction(box, 0j)


def test_calibrate_file_identity_standards():
    text = "# ghz s ri r 50\n1 0.2 0.1\n2 0.3 -0.2\n"
    dut = parse_touchstone(text)
    mk = lambda v: TouchstoneFile(
        frequencies=dut.frequencies.copy(),
        s11=np.full(2, v, dtype=complex),
        z0=50.0,
        frequency_unit="GHz",
        fmt="RI",
    )
    out = calibrate_file(dut, mk(-1), mk(1), mk(0))
    np.testing.assert_allclose(out.s11, dut.s11, rtol=1e-12)


def test_calibrate_file_grid_mismatch():
    dut = parse_touchstone("# ghz s ri r 50\n1 0.2 0.1\n2 0.3 -0.2\n")
    other = parse_touchstone("# ghz s ri r 50\n1 0.2 0.1\n3 0.3 -0.2\n")
    with pytest.raises(CalibrationError):
        calibrate_file(dut, other, other, other)
