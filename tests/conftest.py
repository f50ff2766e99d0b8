"""Fixtures shared by the test modules."""
import pytest

from thicklat import quiver_rep, root_system, thick_enum


@pytest.fixture
def fresh_thick_caches():
    """The caches per quiver, from the tree modules, the Hom table, the
    Euler pairing and its perpendiculars to the thick side's, emptied before
    and after a test that times a cold enumeration or decomposition or
    changes what they hold."""
    caches = (
        quiver_rep.tree_module,
        quiver_rep.hom_table,
        root_system.euler_pairing,
        root_system.euler_perps,
        thick_enum.thick_masks,
        thick_enum.quiver_lattice,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
