"""Decompose the representations in a seeded input file over the
rationals with thicklat.quiver_rep.decompose_dims.

    python decompose.py INPUT_FILE

Prints a JSON list with the sorted summand dimension vectors of each input.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction


def main(args: list[str]) -> int:
    from thicklat.linalg import QQ
    from thicklat.quiver_rep import FieldRep, decompose_dims, default_orientation
    from thicklat.root_system import DynkinType

    with open(args[0], encoding="utf-8") as handle:
        data = json.load(handle)
    quiver = default_orientation(DynkinType.parse(data["type"]))
    results = []
    for item in data["inputs"]:
        maps = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in mat)
            for mat in item["maps"]
        )
        rep = FieldRep(QQ, quiver, tuple(item["dim"]), maps)
        results.append([list(d) for d in decompose_dims(rep)])
    sys.stdout.write(json.dumps(results) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
