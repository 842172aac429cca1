#!/usr/bin/env python3
"""Write src/lambkit/data/lattice.json, the packaged material's master lattice.

    PYTHONPATH=src python3 tools/lattice_table.py

Each node j holds ln F at k*h = exp(j / 64) for one mode: the log of
solve_at_k's root on a unit-thickness plate of the packaged config's material,
or null where that raises SolverError.  Other materials, and the packaged one
past the table's edges, continue their nodes from the k*h -> 0 limits instead
(dispersion._solve_node); the table is the scan's, so it pins the reference
solver.  Re-run it after any change to solve_at_k or the packaged material:
tests/test_dispersion.py fails until the table again equals a fresh solve bit
for bit.
"""

import json
import math
import os

from lambkit import MODE_NAMES
from lambkit.config import load_config
from lambkit.dispersion import PlateSpec, solve_at_k
from lambkit.errors import SolverError

# k*h from 0.194 to 3.44: the catalog's 500-4500 nm pitches on plates from
# about 282 nm to 538 nm, with room for the cubic's 4-node stencil
J_MIN, J_MAX = -105, 79
PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "lambkit", "data", "lattice.json")


def node(material, mode: str, j: int):
    """ln F at node j, or None where solve_at_k finds no reliable root."""
    try:
        return math.log(solve_at_k(PlateSpec(material, 1.0), mode, math.exp(j / 64)))
    except SolverError:
        return None


def main() -> None:
    material = load_config().plate.material
    head = {"v_l": material.v_l, "v_t": material.v_t, "j_min": J_MIN}
    lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
    modes = [
        f"  {json.dumps(mode)}: "
        f"{json.dumps([node(material, mode, j) for j in range(J_MIN, J_MAX + 1)])}"
        for mode in MODE_NAMES
    ]
    text = "{\n" + "\n".join(lines) + '\n "ln_f": {\n' + ",\n".join(modes) + "\n }\n}\n"
    with open(PATH, "w") as fh:
        fh.write(text)
    print(f"wrote {PATH}: {len(MODE_NAMES)} x {J_MAX - J_MIN + 1} nodes")


if __name__ == "__main__":
    main()
