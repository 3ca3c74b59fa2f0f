"""Structure of twisted Laurent (quantum torus) blocks at a root of unity.

From the skew pairing of the surviving torus generators this module derives
the paired/central generator frame: k pairs (h_i, g_i) with pairing
invariants d_i, p central monomials z_j, and the count t of those z_j whose
centrality does not extend to the ambient algebra.  The basis is chosen so
that the extending z's come last with exponent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import zlattice


class InadmissibleBlock(ValueError):
    """A pairing invariant of the torus block shares a factor with l."""


@dataclass
class TorusStructure:
    """Monomial frame of a torus block.

    basis is a unimodular m x m integer matrix whose rows are the exponent
    vectors (in torus coordinates) of h_1, g_1, ..., h_k, g_k, z_1, ..., z_p;
    the non-extending z's are z_1..z_t, the extending ones come last.
    """

    k: int
    p: int
    t: int
    ds: list
    basis: list

    @property
    def m(self):
        return 2 * self.k + self.p

    def z_rows(self):
        return self.basis[2 * self.k:]


def torus_structure(S_JJ, full_rows, l):
    """Derive the h/g/z frame of a torus block inside an ambient algebra.

    S_JJ is the skew q-exponent pairing among the m surviving generators;
    full_rows has one row per ambient generator holding its pairing against
    the survivors.  A monomial z^a is central in the block when S_JJ a = 0
    and extends to the ambient center when full_rows a = 0.
    """
    m = len(S_JJ)
    if not zlattice.is_skew(S_JJ):
        raise zlattice.NotSkew("torus pairing matrix must be skew")
    for row in full_rows:
        if len(row) != m:
            raise ValueError("ambient rows must pair against the survivors")
    form = zlattice.skew_normal_form(S_JJ)
    for d in form.ds:
        if gcd(l, d) != 1:
            raise InadmissibleBlock(
                "pairing invariant %d shares a factor with %d" % (d, l))
    k = form.k
    p = form.corank
    z_basis = [list(form.U[2 * k + i]) for i in range(p)]
    ext = zlattice.kernel_int(full_rows) if full_rows else \
        [list(r) for r in zlattice.identity(m)]
    # Kernel rows of full_rows lie inside the block kernel automatically.
    t = p - len(ext)
    if p:
        z_rows = _compatible_z_basis(z_basis, ext)
    else:
        z_rows = []
    basis = [list(form.U[i]) for i in range(2 * k)] + z_rows
    if basis:
        if abs(zlattice.det_int(basis)) != 1:
            raise ArithmeticError("torus frame is not unimodular")
    ts = TorusStructure(k=k, p=p, t=t, ds=list(form.ds), basis=basis)
    _check_structure(S_JJ, full_rows, ts)
    return ts


def _compatible_z_basis(z_basis, ext):
    """Rebase the block kernel so the ambient kernel is its tail segment.

    Both lattices are saturated, so the quotient is free and the ambient
    kernel sits inside the block kernel as a direct summand.
    """
    p = len(z_basis)
    s = len(ext)
    if s == 0:
        return [list(r) for r in z_basis]
    # Write each ambient kernel vector in block-kernel coordinates.
    C = []
    for v in ext:
        coords = zlattice.solve_int(zlattice.transpose(z_basis), list(v))
        if coords is None:
            raise ArithmeticError("ambient kernel escapes the block kernel")
        C.append(coords)
    U, D, V = zlattice.smith_normal_form(C)
    for i in range(s):
        if D[i][i] != 1:
            raise ArithmeticError("ambient kernel is not saturated in the block")
    # Rows of V^-1: the first s of them span the ambient kernel in
    # block-kernel coordinates; put them last.
    Vinv = _unimodular_inverse(V)
    order = list(range(s, p)) + list(range(s))
    W = [Vinv[i] for i in order]
    return zlattice.mat_mul(W, z_basis)


def _unimodular_inverse(V):
    n = len(V)
    U, D, Vv = zlattice.smith_normal_form(V)
    # V unimodular: U V Vv = I  =>  V^-1 = Vv U
    for i in range(n):
        if D[i][i] != 1:
            raise ValueError("matrix is not unimodular")
    return zlattice.mat_mul(Vv, U)


def _check_structure(S_JJ, full_rows, ts):
    B = zlattice.mat_mul(zlattice.mat_mul(ts.basis, S_JJ),
                         zlattice.transpose(ts.basis))
    m = ts.m
    for i in range(m):
        for j in range(m):
            expect = 0
            if i // 2 == j // 2 and i // 2 < ts.k:
                if j == i + 1:
                    expect = ts.ds[i // 2]
                elif j == i - 1:
                    expect = -ts.ds[i // 2]
            if B[i][j] != expect:
                raise ArithmeticError("torus frame does not normalize the pairing")
    for idx, row in enumerate(ts.z_rows()):
        image = zlattice.mat_vec(full_rows, row) if full_rows else []
        extending = all(x == 0 for x in image)
        if extending != (idx >= ts.t):
            raise ArithmeticError("z ordering does not separate extension")


def center_generators_eps(ts, l):
    """Center generators of the block inside the ambient order, and l-center.

    Returns (eps_center, l_center) as exponent vectors in torus coordinates.
    The ambient-center generators are the l-th powers of the h/g pairs and of
    the non-extending z's, together with the extending z's unpowered; the
    l-center takes l-th powers of everything.
    """
    eps_center = []
    l_center = []
    for i in range(2 * ts.k):
        row = ts.basis[i]
        eps_center.append([l * x for x in row])
        l_center.append([l * x for x in row])
    for j, row in enumerate(ts.z_rows()):
        l_center.append([l * x for x in row])
        if j < ts.t:
            eps_center.append([l * x for x in row])
        else:
            eps_center.append(list(row))
    return eps_center, l_center
