"""Heavier cross-checks, enabled with THICKLAT_LONG_TESTS=1."""
import itertools
import os
import random

import pytest

from thicklat.linalg import GF, QQ
from thicklat.quiver_rep import default_orientation, indecomposable_dims, tree_module
from thicklat.root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    catalan_number,
)
from thicklat.thick_enum import thick_masks, verify_bijection

from nc_oracle import assert_mask_lattice_matches_oracle, assert_masks_match_columns
from test_root_system import (
    assert_atoms_and_coatoms,
    assert_closed_forms,
    assert_factorizations_match_moved_roots_oracle,
    assert_order_matches_rank_oracle,
    lattice_mobius,
    nc_lattice,
    rank_sizes,
)
from test_quiver_rep import (
    assert_tree_modules_are_rigid_bricks,
    orientations,
    tree_module_digest,
)
from test_thick_enum import (
    assert_all_orders_agree,
    assert_closure_matches_fixed_point,
    assert_rank_table_is_the_euler_form,
)

long_tests = pytest.mark.skipif(
    os.environ.get("THICKLAT_LONG_TESTS") != "1",
    reason="set THICKLAT_LONG_TESTS=1 to run",
)


@long_tests
def test_e7_enumeration_count():
    dynkin = DynkinType.parse("E7")
    lattice = NcLattice(build_root_system(dynkin), default_orientation(dynkin))
    assert len(lattice) == catalan_number(dynkin) == 4160
    assert_atoms_and_coatoms(lattice)


@long_tests
def test_e8_rank_sizes_and_mobius_number_match_closed_forms():
    lattice = nc_lattice("E8")
    assert rank_sizes(lattice) == [1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1]
    assert lattice_mobius(lattice) == 17342
    assert_closed_forms(lattice)


@long_tests
def test_e6_order_matches_rank_oracle():
    assert_order_matches_rank_oracle(nc_lattice("E6"))


@long_tests
@pytest.mark.parametrize(
    "name,count", [("D5", 182), ("E6", 833), ("E7", 4160), ("E8", 25080)]
)
def test_large_thick_counts(name, count):
    quiver = default_orientation(DynkinType.parse(name))
    assert len(thick_masks(quiver)) == count


@long_tests
def test_e6_bijection():
    report = verify_bijection(default_orientation(DynkinType.parse("E6")), GF(2))
    assert report.ok
    assert report.thick_count == report.nc_count == 833


@long_tests
@pytest.mark.parametrize("name,count", [("E7", 4160), ("E8", 25080)])
def test_e7_and_e8_bijections(name, count):
    """With the field check of the Hom table at 63^2 and 120^2 ordered
    pairs."""
    report = verify_bijection(default_orientation(DynkinType.parse(name)), GF(2))
    assert report.ok
    assert report.thick_count == report.nc_count == count


@long_tests
@pytest.mark.parametrize("field", [GF(3), QQ], ids=lambda f: f"char{f.char}")
def test_e7_rank_built_hom_table_is_the_euler_form(field):
    assert_rank_table_is_the_euler_form(default_orientation(DynkinType.parse("E7")), field)


@long_tests
@pytest.mark.parametrize("name", ["E7", "E8"])
def test_exceptional_tree_modules(name):
    quiver = default_orientation(DynkinType.parse(name))
    roots = indecomposable_dims(quiver)
    assert len(roots) == {"E7": 63, "E8": 120}[name]
    for d in roots:
        module = tree_module(quiver, d)
        assert module.dim == d
        for mat in module.maps:
            assert all(x in (0, 1) for row in mat for x in row)


@long_tests
@pytest.mark.parametrize(
    "name,step,digest",
    [
        ("E6", 1, "564692287519c819619db9be321f1d212208b8b09f564dccd329563dab4cb770"),
        ("E7", 9, "c8d2b66e4e0026d3fe827ba9a07b9d4386883b4752ddc9234217ae4c11f67459"),
        ("E8", 9, "5de47152e5498c5da1d4fc5a5a38a01941275b57a01c12254cc6c7f690620f02"),
    ],
)
def test_exceptional_tree_modules_match_pinned_digests(name, step, digest):
    """Every orientation of E6 and every 9th of E7 and E8, as in
    test_quiver_rep.test_tree_modules_match_pinned_digests."""
    quivers = itertools.islice(orientations(name), 0, None, step)
    assert tree_module_digest(quivers) == digest


@long_tests
def test_every_e7_orientation_builds_rigid_bricks():
    for quiver in orientations("E7"):
        assert_tree_modules_are_rigid_bricks(quiver, GF(2))


@long_tests
def test_sampled_e8_orientations_build_rigid_bricks():
    every = list(orientations("E8"))
    for quiver in random.Random(8).sample(every, 8):
        assert_tree_modules_are_rigid_bricks(quiver, GF(2))


@long_tests
def test_e6_factorizations_match_moved_roots_oracle():
    assert_factorizations_match_moved_roots_oracle(nc_lattice("E6"))


@long_tests
def test_e6_every_admissible_order_gives_the_image():
    assert_all_orders_agree(default_orientation(DynkinType.parse("E6")), GF(2))


@long_tests
def test_e6_closure_matches_pairwise_fixed_point():
    assert_closure_matches_fixed_point(
        default_orientation(DynkinType.parse("E6")), GF(2)
    )


@long_tests
def test_every_e6_orientation_matches_matrix_walk():
    rs = build_root_system(DynkinType.parse("E6"))
    for quiver in orientations("E6"):
        assert_mask_lattice_matches_oracle(NcLattice(rs, quiver))


@long_tests
def test_sampled_e7_orientations_match_matrix_walk():
    rs = build_root_system(DynkinType.parse("E7"))
    for quiver in random.Random(7).sample(list(orientations("E7")), 4):
        assert_mask_lattice_matches_oracle(NcLattice(rs, quiver))


@long_tests
@pytest.mark.parametrize("name", ["E7", "E8"])
def test_cover_built_masks_match_root_columns(name):
    assert_masks_match_columns(nc_lattice(name))
