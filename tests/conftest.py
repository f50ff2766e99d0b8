"""Fixtures shared by the test modules."""
import pytest

from thicklat import thick_enum


@pytest.fixture
def fresh_thick_caches():
    """The thick side's caches per quiver and field, emptied before and
    after a test that times a cold enumeration or changes what they
    hold."""
    caches = (thick_enum.thick_masks, thick_enum._perp_rows, thick_enum.quiver_lattice)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
