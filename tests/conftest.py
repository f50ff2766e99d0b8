"""Fixtures shared by the test modules."""
import pytest

from thicklat import quiver_rep, thick_enum


@pytest.fixture
def fresh_thick_caches():
    """The caches per quiver and field, from the tree modules and the Hom
    table to the thick side's, emptied before and after a test that
    times a cold enumeration or decomposition or changes what they
    hold."""
    caches = (
        quiver_rep.tree_module,
        quiver_rep.hom_table,
        thick_enum.thick_masks,
        thick_enum._perp_rows,
        thick_enum.quiver_lattice,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
