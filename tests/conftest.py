import pytest

from qorder.exactnum import cyclotomic_build
from qorder import fiber, strata, torus


@pytest.fixture
def r3():
    return cyclotomic_build(3)


@pytest.fixture
def r5():
    return cyclotomic_build(5)


@pytest.fixture
def full_rows(monkeypatch):
    """The ambient rows of each stratum enumerated while the fixture is
    active, in order: every generator's q-exponents against the survivors,
    recorded as the stratum tail hands them to torus_structure."""
    rows = []
    real = torus.torus_structure

    def recorded(skew, full, l, targets=()):
        rows.append(full)
        return real(skew, full, l, targets)

    monkeypatch.setattr(torus, "torus_structure", recorded)
    return rows


def make_character(r, values, witnesses=None):
    """Character from rational literals, wrapping them as cyclotomic scalars."""
    vv = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in values.items()}
    ww = {k: (v if hasattr(v, "vec") else r.scalar(v))
          for k, v in (witnesses or {}).items()}
    return strata.Character(vv, ww)


def monomial_l_value(stratum, ctx, character, u):
    """Value of mono(u)^l, computable without witnesses."""
    val = ctx.root.one()
    for s_item, e in zip(stratum.survivors, u):
        if e:
            val = val * ctx.lcenter_value(s_item.label, character) ** e
    return val


def has_derived(model, stratum):
    """Whether some generator of the model is neither killed nor a survivor
    of the stratum, and so acts through the survivors."""
    named = set(stratum.killed_labels) | {s.label for s in stratum.survivors}
    return any(g not in named for g in model.presentation.gens)


# Dense matrices over the cyclotomic field, the references that the row
# dict product, scaled partial permutation and representation tests compare
# against.
# A matrix is a list of rows.

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


def pp_from_dense(A):
    """The scaled partial permutation (cols, vals) of a dense matrix with at
    most one nonzero entry per row."""
    cols, vals = [], []
    for row in A:
        hits = [(j, a) for j, a in enumerate(row) if a]
        assert len(hits) <= 1, "two entries in one row"
        j, a = hits[0] if hits else (None, None)
        cols.append(j)
        vals.append(a)
    return tuple(cols), tuple(vals)


def pp_to_dense(A, r):
    zero = r.zero()
    out = []
    for j, a in zip(*A):
        dense = [zero] * len(A[0])
        if j is not None:
            dense[j] = a
        out.append(dense)
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
