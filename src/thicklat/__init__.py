"""Exact lattices of thick subcategories for Dynkin quivers.

Noncrossing partition lattices for simply laced Weyl groups, quiver
representations with rigid 0/1 tree modules, enumeration of wide
subcategories with the order isomorphism onto noncrossing partitions,
lattices of monotone functions from finite posets, and Koszul homology
at rational points.  The package exports what the command line, the
README example and perfbench/decompose.py use; the other helpers stay in
their modules.
"""
from .figures import (
    FIGURE1_COVERS,
    FIGURE1_NODES,
    FIGURE2_COVERS,
    FIGURE2_NODES,
)
from .koszul import Poly, PolyRing, RationalPoint, koszul_homology
from .linalg import GF, QQ
from .quiver_rep import (
    FieldRep,
    Quiver,
    TreeModuleError,
    decompose_dims,
    default_orientation,
    tree_module,
)
from .root_system import (
    DynkinType,
    NcLattice,
    build_root_system,
    catalan_number,
    nc_to_set_partition,
)
from .spec_model import (
    FinitePoset,
    SizeGuardError,
    all_functions,
    monotone_functions,
    poset_antichain,
    poset_chain,
    poset_diamond,
    poset_point,
    smashing_count,
)
from .thick_enum import thick_masks, verify_bijection

__version__ = "0.1.0"

__all__ = [
    "DynkinType",
    "FIGURE1_COVERS",
    "FIGURE1_NODES",
    "FIGURE2_COVERS",
    "FIGURE2_NODES",
    "FieldRep",
    "FinitePoset",
    "GF",
    "NcLattice",
    "Poly",
    "PolyRing",
    "QQ",
    "Quiver",
    "RationalPoint",
    "SizeGuardError",
    "TreeModuleError",
    "all_functions",
    "build_root_system",
    "catalan_number",
    "decompose_dims",
    "default_orientation",
    "koszul_homology",
    "monotone_functions",
    "nc_to_set_partition",
    "poset_antichain",
    "poset_chain",
    "poset_diamond",
    "poset_point",
    "smashing_count",
    "thick_masks",
    "tree_module",
    "verify_bijection",
]
