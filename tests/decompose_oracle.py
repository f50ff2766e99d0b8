"""Krull-Schmidt by Fitting's lemma: the slow reference for
`decompose_dims`.

The library reads the multiplicities of a module's summands off its Hom
vector, dim Hom(M_beta, X) for each indecomposable M_beta, through the
unitriangular Hom table (see thicklat.quiver_rep).  This module keeps
the search it replaced, so the tests can compare the two: it solves
End(X), probes a deterministic stream of endomorphisms, splits X along
the stable kernel and image of the first one that is neither nilpotent
nor invertible, and recurses until every piece has a one dimensional
endomorphism ring.  It also keeps two helpers that only the tests use:
ext_dim, and morphism_from_coeffs, which combines basis morphisms.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from thicklat.linalg import mat_mul, nullspace, rref
from thicklat.quiver_rep import (
    DimVector,
    FieldRep,
    _sub_rep_on_bases,
    euler_form,
    hom_basis,
    hom_dim,
)


def ext_dim(m: FieldRep, n: FieldRep) -> int:
    """dim Ext1(m, n) = dim Hom(m, n) - <dim m, dim n>."""
    value = hom_dim(m, n) - euler_form(m.quiver, m.dim, n.dim)
    if value < 0:
        raise RuntimeError("negative Ext dimension; hereditary identity broken")
    return value


def morphism_from_coeffs(field, basis, coeffs):
    """Linear combination of basis elements that are tuples of matrices:
    hom_basis elements (one matrix per vertex) or ext_cocycle_basis
    elements (one per arrow)."""
    if not basis:
        raise ValueError("empty basis")
    nverts = len(basis[0])
    out = []
    for v in range(nverts):
        rows = len(basis[0][v])
        cols = len(basis[0][v][0]) if rows else 0
        mat = [[field.zero] * cols for _ in range(rows)]
        for c, elem in zip(coeffs, basis):
            if c == field.zero:
                continue
            bm = elem[v]
            for i in range(rows):
                for j in range(cols):
                    mat[i][j] = field.add(mat[i][j], field.mul(c, bm[i][j]))
        out.append(tuple(tuple(r) for r in mat))
    return tuple(out)


def _mat_power(field, mat, size, exponent):
    result = tuple(
        tuple(field.one if i == j else field.zero for j in range(size))
        for i in range(size)
    )
    base = mat
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(field, result, base)
        base = mat_mul(field, base, base)
        e >>= 1
    return result


def _column_space_basis(field, mat, size):
    cols = list(zip(*mat)) if mat else []
    if not cols:
        return []
    _, pivots = rref(field, mat)
    # pivots of the row-reduced matrix mark independent columns
    return [tuple(mat[r][c] for r in range(size)) for c in pivots]


def _fitting_split(rep: FieldRep, phi):
    """Try to split rep along the stable kernel/image of phi.

    Returns (kernel_rep, image_rep) or None when phi is nilpotent or
    invertible.
    """
    field = rep.field
    ker_bases = []
    im_bases = []
    ker_total = 0
    im_total = 0
    for v in range(rep.quiver.rank):
        size = rep.dim[v]
        if size == 0:
            ker_bases.append([])
            im_bases.append([])
            continue
        # by Fitting's lemma on the vertex space, phi_v^size has the
        # stable kernel and image of phi_v
        power = _mat_power(field, phi[v], size, size)
        kb = nullspace(field, power, ncols=size)
        ib = _column_space_basis(field, power, size)
        if len(kb) + len(ib) != size:
            raise RuntimeError("stable kernel and image do not fill the space")
        ker_bases.append(kb)
        im_bases.append(ib)
        ker_total += len(kb)
        im_total += len(ib)
    if ker_total == 0 or im_total == 0:
        return None
    return (
        _sub_rep_on_bases(rep, ker_bases),
        _sub_rep_on_bases(rep, im_bases),
    )


def _splitter_candidates(field, basis_size):
    """Deterministic stream of coefficient vectors to probe for a
    Fitting splitter: basis elements first, then everything."""
    for i in range(basis_size):
        vec = [field.zero] * basis_size
        vec[i] = field.one
        yield tuple(vec)
    if field.char:
        for combo in product(field.elements(), repeat=basis_size):
            yield tuple(combo)
    else:
        height = 1
        while height <= 64:
            values = [Fraction(k) for k in range(-height, height + 1)]
            for combo in product(values, repeat=basis_size):
                if max((abs(x) for x in combo), default=Fraction(0)) == height:
                    yield tuple(combo)
            height += 1


def decompose_dims(rep: FieldRep) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposable summands, sorted, with
    multiplicity.

    Splits along Fitting decompositions of endomorphisms until every
    piece has a one dimensional endomorphism ring.
    """
    if sum(rep.dim) == 0:
        return ()
    basis = hom_basis(rep, rep)
    if len(basis) == 1:
        return (rep.dim,)
    field = rep.field
    for coeffs in _splitter_candidates(field, len(basis)):
        if all(c == field.zero for c in coeffs):
            continue
        phi = morphism_from_coeffs(field, basis, coeffs)
        split = _fitting_split(rep, phi)
        if split is not None:
            left, right = split
            return tuple(
                sorted(decompose_dims(left) + decompose_dims(right))
            )
    raise RuntimeError("no Fitting splitter found for a decomposable module")
