import pytest

from qorder.exactnum import cyclotomic_build
from qorder import fiber, strata


@pytest.fixture
def r3():
    return cyclotomic_build(3)


@pytest.fixture
def r5():
    return cyclotomic_build(5)


def make_character(r, values, witnesses=None):
    """Character from rational literals, wrapping them as cyclotomic scalars."""
    vv = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in values.items()}
    ww = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in (witnesses or {}).items()}
    return strata.Character(vv, ww)


# Dense matrices over the cyclotomic field, the references that the sparse
# and representation tests compare against.  A matrix is a list of rows.

def mat_eye(n, r):
    return [[r.one() if i == j else r.zero() for j in range(n)]
            for i in range(n)]


def mat_add_c(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale_c(A, c):
    return [[a if a.is_zero() else a * c for a in row] for row in A]


def mat_eq_c(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_is_zero(A):
    return all(a.is_zero() for row in A for a in row)


def mat_inv_c(A, r):
    n = len(A)
    ech, pivots = fiber.rref_c(
        [row + eye for row, eye in zip(A, mat_eye(n, r))])
    if pivots and pivots[-1] >= n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in ech]


def mat_pow_c(A, k, r):
    if k < 0:
        return mat_pow_c(mat_inv_c(A, r), -k, r)
    out = mat_eye(len(A), r)
    for _ in range(k):
        out = fiber.mat_mul_c(out, A, r)
    return out


def sp_from_dense(A):
    return [{j: a for j, a in enumerate(row) if a} for row in A]


def sp_to_dense(A, r):
    zero = r.zero()
    out = []
    for row in A:
        dense = [zero] * len(A)
        for j, a in row.items():
            dense[j] = a
        out.append(dense)
    return out
