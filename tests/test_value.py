"""The value classes: equality, hashing, immutability, repr, constructors,
copies, and a cold import that leaves dataclasses and inspect unloaded."""
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thicklat.koszul import Poly, PolyRing, RationalPoint
from thicklat.linalg import QQ
from thicklat.quiver_rep import FieldRep, Quiver, TreeModule, default_orientation
from thicklat.root_system import DynkinType, build_root_system
from thicklat.spec_model import FinitePoset, FunctionLattice
from thicklat.thick_enum import BijectionReport

ROOT = Path(__file__).resolve().parents[1]

A2 = DynkinType("A", 2)
A2_QUIVER = default_orientation(A2)
POINT = FinitePoset(("p",), {("p", "p")})
REPORT = dict(
    quiver=A2_QUIVER, field_char=2, thick_count=5, nc_count=5,
    is_bijective=True, is_order_isomorphism=True, failures=(),
)


def fields(value) -> tuple:
    return tuple(inspect.signature(type(value)).parameters)


# Each case builds one value from fresh arguments, so two calls give equal
# values that are distinct objects; `other` differs in a compared field.
VALUES = {
    "DynkinType": (lambda: DynkinType("D", 4), lambda: DynkinType("D", 5)),
    "RootSystem": (
        lambda: build_root_system(DynkinType("A", 2)),
        lambda: build_root_system(DynkinType("A", 3)),
    ),
    "Quiver": (
        lambda: Quiver(A2, [(2, 1)]),
        lambda: Quiver(A2, [(1, 2)]),
    ),
    "TreeModule": (
        lambda: TreeModule(A2_QUIVER, (1, 1), (((1,),),)),
        lambda: TreeModule(A2_QUIVER, (1, 0), ((),)),
    ),
    "FieldRep": (
        lambda: FieldRep(QQ, A2_QUIVER, (1, 1), (((Fraction(1, 2),),),)),
        lambda: FieldRep(QQ, A2_QUIVER, (1, 1), (((Fraction(1, 3),),),)),
    ),
    "BijectionReport": (
        lambda: BijectionReport(**REPORT),
        lambda: BijectionReport(**dict(REPORT, failures=("x",))),
    ),
    "PolyRing": (lambda: PolyRing(["x", "y"]), lambda: PolyRing(["y", "x"])),
    "Poly": (
        lambda: Poly(PolyRing(("x",)), (((1,), 2), ((0,), 3))),
        lambda: Poly(PolyRing(("x",)), (((1,), 2),)),
    ),
    "RationalPoint": (
        lambda: RationalPoint([1, "1/2"]),
        lambda: RationalPoint([1, "1/3"]),
    ),
    "FinitePoset": (
        lambda: FinitePoset(["a", "b"], {("a", "a"), ("b", "b"), ("a", "b")}),
        lambda: FinitePoset(["a", "b"], {("a", "a"), ("b", "b")}),
    ),
    "FunctionLattice": (
        lambda: FunctionLattice(POINT, 2, (0, 1), (1,), (1, 1)),
        lambda: FunctionLattice(POINT, 2, (0, 1)),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values_and_hashes(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and b != other
    assert a != tuple(getattr(a, f) for f in fields(a))
    assert len({a, b, other}) == 2
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_set_or_deleted(name):
    value = VALUES[name][0]()
    for field in fields(value) + ("extra",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    assert value == VALUES[name][0]()


def test_constructors_and_repr():
    assert BijectionReport(**REPORT) == BijectionReport(*REPORT.values())
    lattice = FunctionLattice(poset=POINT)
    assert lattice.members == () and lattice.upper == ()
    assert repr(DynkinType("A", 2)) == "DynkinType(letter='A', rank=2)"
    assert repr(Quiver(dynkin=A2, arrows=[(2, 1)])) == (
        "Quiver(dynkin=DynkinType(letter='A', rank=2), arrows=((2, 1),))"
    )
    assert repr(FunctionLattice(POINT, 2, (1,))) == (
        "FunctionLattice(poset=FinitePoset(elements=('p',), "
        "leq=frozenset({('p', 'p')})), width=2, codes=(1,), targets=(), ends=())"
    )
    lattice = FunctionLattice(POINT, 2, (0, 1), (1,), (1, 1))
    assert lattice.members == ((0,), (1,)) and lattice.upper == ((1,), ())
    with pytest.raises(TypeError):
        DynkinType("A")


def import_cli(report: str):
    """Run `report`, an expression over the set `added` of modules that
    `import thicklat.cli` adds, in a fresh interpreter in the environment
    perfbench/run.py gives the CLI, and print it."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "THICKLAT_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    code = (
        "import sys; before = set(sys.modules); import thicklat.cli; "
        f"added = set(sys.modules) - before; print({report})"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    result = import_cli("' '.join(sorted({'dataclasses', 'inspect'} & added))")
    assert result.stdout == "\n"


# Every module that `import thicklat.cli` loads, on Python 3.11: the
# benchmark's setup_s times this import, so a new one should fail here
# first.
CLI_IMPORTS = (
    "__future__ _decimal _json argparse decimal fractions gettext json "
    "json.decoder json.encoder json.scanner numbers thicklat thicklat.cli "
    "thicklat.figures thicklat.koszul thicklat.linalg thicklat.quiver_rep "
    "thicklat.root_system thicklat.spec_model thicklat.thick_enum thicklat.value"
)


def test_cli_import_set_is_pinned():
    assert import_cli("' '.join(sorted(added))").stdout == CLI_IMPORTS + "\n"
