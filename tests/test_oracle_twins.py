"""tools/oracle_twins.py on a toy package: which oracle pairs with which twin, and how closely."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "oracle_twins.py"

AREA = '''
def area(w, h):
    """Rectangle area."""
    if w < 0 or h < 0:
        raise ValueError("negative side")
    return w * h
'''

ORACLES = AREA.replace("def area(", "def area_reference(") + '''

def perimeter_reference(w, h):
    return sum((w, h, w, h))


def lonely_reference():
    return 1
''' + AREA.replace('"""Rectangle area."""', '"""A same-name copy."""')

SRC = '''
def perimeter(w, h):
    """Rectangle perimeter."""
    if w < 0 or h < 0:
        raise ValueError("negative side")
    return 2 * (w + h)
''' + AREA


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True,
                          text=True, timeout=60)


def test_copies_read_one_and_rewrites_read_low(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "shapes.py").write_text(SRC)
    (tmp_path / "oracles.py").write_text(ORACLES)
    proc = _run(tmp_path / "oracles.py", tmp_path / "src")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # area_reference and area are one function (the docstring is left out);
    # perimeter_reference shares no statement with perimeter; lonely_reference
    # has no twin
    assert rows == [["1.00", "area", "shapes.py:area"],
                    ["1.00", "area_reference", "shapes.py:area"],
                    ["0.00", "perimeter_reference", "shapes.py:perimeter"]]


def test_gdsii_oracle_is_not_a_copy_of_the_reader():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    ratios = {name: float(ratio) for ratio, name, _ in map(str.split, proc.stdout.splitlines())}
    assert ratios["read_gdsii_reference"] < 0.5


def test_a_wrong_argument_count_is_a_usage_error():
    proc = _run("only-one")
    assert proc.returncode == 2 and proc.stderr.startswith("usage:")
