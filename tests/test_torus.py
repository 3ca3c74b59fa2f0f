import random

import pytest

from qorder import models, strata, torus
from qorder.exactnum import cyclotomic_build
from qorder.torus import (
    InadmissibleBlock,
    center_generators_eps,
    torus_structure,
)
from qorder.zlattice import det_int, hermite_rows, mat_vec, transpose, zeros


def test_full_pair_block():
    ts = torus_structure([[0, 1], [-1, 0]], [[0, 1], [-1, 0]], 3)
    assert (ts.k, ts.p, ts.t) == (1, 0, 0)
    assert ts.ds == [1]


def test_single_survivor_nonextending():
    # ambient row pairs nontrivially with the survivor, so z does not extend
    ts = torus_structure([[0]], [[1], [0]], 3)
    assert (ts.k, ts.p, ts.t) == (0, 1, 1)
    eps_c, l_c = center_generators_eps(ts, 3)
    assert eps_c == [[3]] and l_c == [[3]]


def test_everything_extends():
    ts = torus_structure([[0, 0], [0, 0]], [[0, 0], [0, 0]], 3)
    assert (ts.k, ts.p, ts.t) == (0, 2, 0)
    eps_c, l_c = center_generators_eps(ts, 3)
    assert sorted(eps_c) == [[0, 1], [1, 0]]
    assert sorted(l_c) == [[0, 3], [3, 0]]


def test_mixed_block():
    S = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    full = [r[:] for r in S] + [[2, 0, 1]]
    ts = torus_structure(S, full, 3)
    assert (ts.k, ts.p, ts.t) == (1, 1, 1)
    eps_c, l_c = center_generators_eps(ts, 3)
    # h^l, g^l, z_1^l all powered
    assert len(eps_c) == 3 and len(l_c) == 3


def test_partially_extending_split():
    # two central directions, only one of which extends
    S = zeros(2, 2)
    full = [[0, 0], [0, 0], [1, 0]]
    ts = torus_structure(S, full, 3)
    assert (ts.k, ts.p, ts.t) == (0, 2, 1)
    # the extending z comes last and pairs to zero with the ambient row
    assert mat_vec(full, ts.z_rows()[1]) == [0, 0, 0]
    assert mat_vec(full, ts.z_rows()[0]) != [0, 0, 0]
    eps_c, l_c = center_generators_eps(ts, 3)
    assert eps_c[-1] == ts.z_rows()[1]
    assert l_c[-1] == [3 * x for x in ts.z_rows()[1]]


def test_basis_unimodular_random():
    rng = random.Random(4)
    for _ in range(100):
        m = rng.randint(1, 5)
        S = zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                S[i][j] = rng.randint(-3, 3)
                S[j][i] = -S[i][j]
        extra = [[rng.randint(-3, 3) for _ in range(m)]
                 for _ in range(rng.randint(0, 2))]
        full = [r[:] for r in S] + extra
        try:
            ts = torus_structure(S, full, 7)
        except InadmissibleBlock:
            continue
        assert abs(det_int(ts.basis)) == 1
        assert 2 * ts.k + ts.p == m
        assert 0 <= ts.t <= ts.p


def test_t_invariant_under_generator_permutation():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(2, 5)
        S = zeros(m, m)
        for i in range(m):
            for j in range(i + 1, m):
                S[i][j] = rng.randint(-2, 2)
                S[j][i] = -S[i][j]
        extra = [[rng.randint(-2, 2) for _ in range(m)]]
        full = [r[:] for r in S] + extra
        try:
            base = torus_structure(S, full, 7)
        except InadmissibleBlock:
            continue
        perm = list(range(m))
        rng.shuffle(perm)
        S2 = [[S[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
        full2 = [[row[perm[j]] for j in range(m)] for row in full]
        try:
            other = torus_structure(S2, full2, 7)
        except InadmissibleBlock:
            continue
        assert (base.k, base.p, base.t) == (other.k, other.p, other.t)
        assert base.ds == other.ds


def test_inadmissible_block():
    with pytest.raises(InadmissibleBlock):
        torus_structure([[0, 2], [-2, 0]], [[0, 2], [-2, 0]], 2)


def test_non_unimodular_frame_raises(monkeypatch):
    # the frame inverse is the unimodularity check
    def doubled(z_basis, ext):
        return [[2 * x for x in row] for row in z_basis]

    monkeypatch.setattr(torus, "_compatible_z_basis", doubled)
    with pytest.raises(ArithmeticError, match="torus frame is not unimod"):
        torus_structure([[0]], [[0], [0]], 3)


def _targets(st):
    """The differences of the survivor exponent vectors of the terms of each
    derived sum, read from the stratum."""
    index = {item.label: a for a, item in enumerate(st.survivors)}
    out = []
    for _, terms in st.derived:
        vecs = []
        for _, factors in terms:
            vec = [0] * len(st.survivors)
            for label, e in factors:
                vec[index[label]] += e
            vecs.append(vec)
        out += [[a - b for a, b in zip(vecs[0], v)] for v in vecs[1:]]
    return out


def test_rebased_frame_matches_the_skew_normal_form(full_rows):
    """Every stratum of the quantum Weyl models with n <= 2, S entries in
    {-1, 0, 1} and exponents 1..3 at l = 2..5, against the frame built from
    the same pairing without targets: the rebase changes only the pair
    rows, puts every target on the diagonal, and keeps the center lattices;
    twisted strata have no target and keep their frame."""
    rebased = 0
    weyl = ([models.build_weyl([[0]], [a]) for a in (1, 2, 3)]
            + [models.build_weyl([[0, s], [-s, 0]], [a, b])
               for s in (-1, 0, 1) for a in (1, 2, 3) for b in (1, 2, 3)])
    twisted = [models.build_twisted(S, n_poly) for S, n_poly in (
        ([[0, 1], [-1, 0]], 2), ([[0, 2], [-2, 0]], 1),
        ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], 1),
        ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], 3))]
    for model in weyl + twisted:
        for l in (2, 3, 4, 5):
            if not model.admissibility(l):
                continue
            del full_rows[:]
            ctx = strata.enumerate_strata(model, cyclotomic_build(l))
            assert len(full_rows) == len(ctx.strata)
            for st, full in zip(ctx.strata, full_rows):
                ts = st.torus
                base = torus_structure(st.skew, full, l)
                targets = _targets(st)
                assert model in weyl or not targets
                assert (ts.k, ts.p, ts.t, ts.ds) == \
                    (base.k, base.p, base.t, base.ds)
                assert ts.z_rows() == base.z_rows()
                assert ts.normal_pairs == base.basis[:2 * base.k]
                for a in targets:
                    coords = mat_vec(transpose(ts.inverse), a)
                    assert all(x % l == 0 for x in coords[1:2 * ts.k:2]), \
                        (st.stratum_id, l, a)
                for mine, theirs in zip(center_generators_eps(ts, l),
                                        center_generators_eps(base, l)):
                    assert hermite_rows(mine) == hermite_rows(theirs)
                if not targets:
                    assert ts.basis == base.basis
                rebased += ts.basis != base.basis
    assert rebased > 0
