import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itertools import combinations
from math import gcd, lcm

from strathom import exact_linalg
from strathom.cli import main
from strathom.exact_linalg import (
    QQ,
    ZZ,
    ColumnLattice,
    ExactMatrix,
    PresolvedSolver,
    _prepare_int64,
    _snf_any,
    determinant,
    invariant_factors,
    inverse,
    kernel_basis,
    rank,
    smith_normal_form,
    subquotient,
)


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(rows, ring)


def check_snf(m):
    res = smith_normal_form(m)
    assert res.D == res.U @ m @ res.V
    assert determinant(res.U) in (1, -1)
    assert determinant(res.V) in (1, -1)
    diag = res.diagonal()
    for d in diag:
        assert d >= 0
    nz = [d for d in diag if d != 0]
    # zeros trail and consecutive entries divide
    assert diag[: len(nz)] == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D[i, j] == 0
    return res


# ---------------------------------------------------------------- snf


def test_snf_identity():
    res = check_snf(ExactMatrix.identity(2))
    assert res.diagonal() == [1, 1]


def test_snf_2x2_divisor_chain():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8, so D = diag(2, 4)
    m = M([[2, 4], [6, 8]])
    res = check_snf(m)
    assert res.diagonal() == [2, 4]


def test_snf_zero_matrix():
    res = check_snf(ExactMatrix.zeros(3, 3))
    assert res.diagonal() == [0, 0, 0]


def test_snf_rectangular():
    res = check_snf(M([[1, 2, 3], [4, 5, 6]]))
    assert res.diagonal() == [1, 3]


def test_snf_rejects_rationals():
    with pytest.raises(ValueError):
        smith_normal_form(M([[1]], QQ))


def test_q_kernel_and_solve_hold_fractions():
    # Smith transforms over Q used to start from the integer identity, so
    # kernel columns kept int entries and later divisions made floats
    m = M([[0, 2, 0]], QQ)
    k = kernel_basis(m)
    assert k.cols == 2
    assert _all_fractions(k.entries)
    x = PresolvedSolver(m).solve([Fraction(1, 3)])
    assert x == [0, Fraction(1, 6), 0]
    assert _all_fractions(x)


def test_invariant_factors_matches_snf():
    m = M([[2, 0], [0, 6], [0, 0]])
    assert invariant_factors(m) == [2, 6]


def test_snf_big_entries_no_overflow():
    big = 10 ** 30
    m = M([[big, 1], [0, big]])
    res = check_snf(m)
    assert res.diagonal() == [1, big * big]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2 ** 32),
)
def test_snf_random_properties(r, c, seed):
    rng = random.Random(seed)
    m = M([[rng.randint(-10, 10) for _ in range(c)] for _ in range(r)])
    res = check_snf(m)
    if r == c:
        det = determinant(m)
        prod = 1
        for d in res.diagonal():
            if d != 0:
                prod *= d
        if det != 0:
            assert prod == abs(det)


def _determinantal_divisors(m):
    """d_k = gcd of the k x k minors of m, for k = 1 .. rank (d_0 = 1)."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, determinant(m.submatrix(rows, cols)))
        if g == 0:
            break
        out.append(g)
    return out


def _planted(rows, cols, ones, ops):
    """diag(1, ..., 1, 2, 6, 0, ...) (`ones` ones) changed by the unit row
    and column operations ops = (on_rows, i, j, f): add f times line i to
    line j.  Its invariant factors are the nonzero planted diagonal."""
    planted = ([1] * ones + [2, 6])[:min(rows, cols)]
    a = [[0] * cols for _ in range(rows)]
    for t, d in enumerate(planted):
        a[t][t] = d
    for on_rows, i, j, f in ops:
        n = rows if on_rows else cols
        if i >= n or j >= n or i == j:
            continue
        if on_rows:
            a[j] = [x + f * y for x, y in zip(a[j], a[i])]
        else:
            for row in a:
                row[j] += f * row[i]
    return a, planted


# Small entries stay on the int64 path; entries near 2**40 force the
# object-dtype path (`_prepare_int64` refuses them).  Sparse +-1 matrices
# are mostly eliminated by unit pivots before the dense engine; planted
# matrices keep a core with the factors 2 and 6.
_SNF_ENTRIES = {"int64": st.integers(-6, 6),
                "object": st.integers(2 ** 40, 2 ** 40 + 6)
                | st.integers(-2 ** 40 - 6, -2 ** 40) | st.just(0),
                "sparse-units": st.sampled_from([0, 0, 0, 1, -1])}
_UNIT_OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 4),
                               st.integers(0, 4), st.sampled_from([1, -1, 2])),
                     max_size=4)


@settings(max_examples=160, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SNF_ENTRIES) + ["planted"]),
       st.integers(0, 5), st.integers(0, 5), st.sampled_from([1, 2, 6]))
def test_snf_matches_determinantal_divisors(data, path, r, c, scale):
    """Invariant factors s_k = d_k / d_(k-1), with d_k the gcd of the k x k
    minors; the transforms are unimodular and D = U M V."""
    if path == "planted":
        rows, planted = _planted(r, c, data.draw(st.integers(0, 5)),
                                 data.draw(_UNIT_OPS))
    else:
        rows = data.draw(st.lists(st.lists(_SNF_ENTRIES[path], min_size=c,
                                           max_size=c), min_size=r,
                                  max_size=r))
    m = ExactMatrix.from_rows([[scale * x for x in row] for row in rows],
                              ZZ, cols=c)
    if path == "object" and not m.is_zero():
        assert _prepare_int64(m) is None
    divisors = _determinantal_divisors(m)
    factors = [b // a for a, b in zip([1] + divisors, divisors)]
    assert invariant_factors(m) == factors
    if path == "planted" and scale == 1:
        assert factors == planted
    if r and c:
        res = smith_normal_form(m)
        assert res.D == res.U @ m @ res.V
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        diag = res.diagonal()
        assert diag == factors + [0] * (len(diag) - len(factors))


def _dense_factors(rows, c):
    """Nonzero diagonal of `_snf_core` on the dense object array."""
    a = np.zeros((len(rows), c), dtype=object)
    for i, row in enumerate(rows):
        a[i, :] = row
    return [d for d in exact_linalg._snf_core(a, False)[2] if d != 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 50), st.integers(0, 2 ** 32),
       st.booleans())
def test_unit_pivot_front_end_matches_dense_engine(r, c, seed, plant):
    """On sparse matrices of up to 40 x 50, mostly +-1 with a few entries
    of +-2..+-6, at most 10% nonzero, and some with planted factors:
    `invariant_factors` over Z equals the dense engine's nonzero diagonal,
    and over Q it is one Fraction(1) per unit of the Z rank of the
    row-scaled matrix."""
    rng = random.Random(seed)
    density = rng.uniform(0, 0.1)
    rows = [[(rng.choice([1, -1]) if rng.random() < 0.9
              else rng.choice([-1, 1]) * rng.randint(2, 6))
             if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)]
    if plant and r and c:
        # clear a few lines, put 2, 6, 12 on a new diagonal there, and mix
        # it in by unit row operations
        for d in [2, 6, 12][:min(r, c)]:
            i, j = rng.randrange(r), rng.randrange(c)
            rows[i] = [0] * c
            for row in rows:
                row[j] = 0
            rows[i][j] = d
        for _ in range(3):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                rows[j] = [x + rng.choice([1, -1]) * y
                           for x, y in zip(rows[j], rows[i])]
    factors = _dense_factors(rows, c)
    assert invariant_factors(ExactMatrix.from_rows(rows, ZZ, cols=c)) == factors
    dens = [rng.randint(1, 4) for _ in range(r)]
    q_rows = [[Fraction(x, d * rng.choice([1, 2])) for x in row]
              for row, d in zip(rows, dens)]
    scaled = [[x * lcm(*(y.denominator for y in row)) for x in row]
              for row in q_rows]
    got = invariant_factors(ExactMatrix.from_rows(q_rows, QQ, cols=c))
    assert got == [Fraction(1)] * len(_dense_factors(scaled, c))
    assert _all_fractions(got)


# ---------------------------------------------------------------- products

# Small and large fractions (numerators and denominators near 2**40) over
# Q; over Z, small entries, entries near 2**31 and entries up to 2**70 in
# absolute value, past every fixed-width integer type.
_SMALL_Q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_BIG_Q = st.builds(lambda s, n, d: Fraction(s * n, d),
                   st.sampled_from([1, -1]),
                   st.integers(2 ** 40 - 9, 2 ** 40 + 9),
                   st.integers(2 ** 40 - 9, 2 ** 40 + 9))
_Z_WIDE = st.one_of(
    st.integers(-4, 4),
    st.integers(2 ** 31 - 5, 2 ** 31 + 5),
    st.integers(-2 ** 31 - 5, -2 ** 31 + 5),
    st.integers(2 ** 62, 2 ** 70), st.integers(-2 ** 70, -2 ** 62))


def _all_fractions(xs):
    return all(type(x) is Fraction for x in xs)


# Denominators near 2**40: a row that mixes one with a small denominator
# scales to integers past 2**40, so its Smith reduction runs on Python ints.
_BIG_DEN_Q = st.builds(Fraction, st.integers(-3, 3),
                       st.integers(2 ** 40 - 9, 2 ** 40 + 9))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["int64", "object"]), st.integers(0, 5),
       st.integers(0, 5))
def test_q_snf_runs_on_the_integer_engine(data, path, r, c):
    """Over Q, D = U M V = diag(1, ..., 1, 0, ...) with as many ones as the
    row-scaled integer matrix has nonzero determinantal divisors; U and V
    are invertible, every entry is a Fraction, and the kernel basis has
    the complementary size."""
    entry = _SMALL_Q if path == "int64" else st.one_of(_SMALL_Q, _BIG_DEN_Q)
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    if path == "object" and r and c:
        rows[0][0] = Fraction(2 ** 41 + 1, 2 ** 40 + 1)
    m = ExactMatrix.from_rows(rows, QQ, cols=c)
    scaled = ExactMatrix.from_rows(
        [[x * lcm(*(y.denominator for y in row)) for x in row]
         for row in rows], ZZ, cols=c)
    assert (_prepare_int64(scaled) is None) == (path == "object" and r * c > 0)
    rk = len(_determinantal_divisors(scaled))
    U, V, D, _ = _snf_any(m, transforms=True)
    assert D == U @ m @ V
    assert D == ExactMatrix.from_rows(
        [[int(i == j < rk) for j in range(c)] for i in range(r)], QQ, cols=c)
    assert _all_fractions(U.entries + V.entries + D.entries)
    assert U @ inverse(U) == ExactMatrix.identity(r, QQ)
    assert V @ inverse(V) == ExactMatrix.identity(c, QQ)
    k = kernel_basis(m)
    assert k.cols == c - rk
    assert (m @ k).is_zero()


def test_every_smith_reduction_sees_integers(monkeypatch, capsys):
    """The one Smith engine is the integer one: over Q too, `_snf_core`
    receives int64 arrays or object arrays of Python ints, never Fractions."""
    seen = []
    real = exact_linalg._snf_core

    def spy(a, transforms):
        seen.append(a.dtype == np.int64 or (
            a.dtype == object and all(type(x) is int for x in a.flat)))
        return real(a, transforms)

    monkeypatch.setattr(exact_linalg, "_snf_core", spy)
    assert main(["formality", "n-points", "--n", "3", "--ring", "Q"]) == 0
    capsys.readouterr()
    calls = len(seen)
    k = kernel_basis(M([[Fraction(1, 3), Fraction(2 ** 41 + 1, 7), 0],
                        [Fraction(2, 3), 1, Fraction(-5, 2)]], QQ))
    assert k.cols == 1
    assert calls and len(seen) > calls and all(seen)


def _read_out(m, kind):
    """m.tolist(), once `entries`, `col` and m[i, j] agree with it and
    every entry read is of type kind."""
    rows = m.tolist()
    assert len(rows) == m.rows and all(len(row) == m.cols for row in rows)
    assert m.entries == [x for row in rows for x in row]
    cols = [m.col(j) for j in range(m.cols)]
    assert cols == [[row[j] for row in rows] for j in range(m.cols)]
    reads = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    assert reads == m.entries
    assert all(type(x) is kind
               for x in m.entries + reads + [x for c in cols for x in c])
    return rows


def _ref_product(a, b, r, k, c, zero):
    return [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
             for j in range(c)] for i in range(r)]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([(QQ, _SMALL_Q), (QQ, st.one_of(_SMALL_Q, _BIG_Q)),
                        (ZZ, _Z_WIDE)]), st.booleans())
def test_q_products_match_fraction_dot(data, r, k, c, ring_entry, cancel):
    """Every matrix operation equals a Python loop over `tolist()`, entry
    by entry and type by type (Fractions over Q, ints over Z).  With
    `cancel`, column 1 of A is minus column 0, row 1 of B is row 0 and
    the rest of A is zero, so every term of A B cancels in pairs; such a
    product, like A - A, must be `is_zero()` and equal to `zeros`."""
    ring, entry = ring_entry
    kind = Fraction if ring.is_field else int
    zero = ring.element(0)
    a = [[data.draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[data.draw(entry) for _ in range(c)] for _ in range(k)]
    v = [data.draw(entry) for _ in range(k)]
    planted = cancel and k >= 2
    if planted:
        for row in a:
            row[1:] = [-row[0]] + [0] * (k - 2)
        b[1] = list(b[0])
        v[1] = v[0]
    A = ExactMatrix.from_rows(a, ring, cols=k)
    B = ExactMatrix.from_rows(b, ring, cols=c)
    a, b = _read_out(A, kind), _read_out(B, kind)

    AB = A @ B
    assert AB.shape == (r, c)
    want = _ref_product(a, b, r, k, c, zero)
    assert _read_out(AB, kind) == want
    Av = A.matvec(v)
    assert Av == [sum((x * y for x, y in zip(row, v)), zero) for row in a]
    assert all(type(x) is kind for x in Av)
    if planted:
        assert AB.is_zero() and AB == ExactMatrix.zeros(r, c, ring)
        assert not any(Av)
    assert AB.is_zero() == all(x == 0 for row in want for x in row)

    A2 = ExactMatrix.from_rows(
        [[data.draw(entry) for _ in range(k)] for _ in range(r)], ring, cols=k)
    a2 = _read_out(A2, kind)
    s = data.draw(entry)
    for got, ref in ((A + A2, [[x + y for x, y in zip(p, q)]
                               for p, q in zip(a, a2)]),
                     (A - A2, [[x - y for x, y in zip(p, q)]
                               for p, q in zip(a, a2)]),
                     (-A, [[-x for x in p] for p in a]),
                     (A.scale(s), [[x * s for x in p] for p in a])):
        assert got.shape == (r, k)
        assert _read_out(got, kind) == ref
    for cancelled in (A - A, A + (-A), A.scale(0), (A - A) @ B):
        assert cancelled.is_zero()
        assert cancelled == ExactMatrix.zeros(*cancelled.shape, ring)
    assert (A == A2) == (a == a2)
    assert A == ExactMatrix.from_rows(a, ring, cols=k)
    assert (A + A2 - A2) == A
    assert (A == A.scale(2)) == (a == [[0] * k] * r)
    assert A != ExactMatrix.zeros(r, k + 1, ring)

    H = ExactMatrix.hstack([A, A2, A], ring=ring)
    assert H.shape == (r, 3 * k)
    assert _read_out(H, kind) == [p + q + p for p, q in zip(a, a2)]
    V = ExactMatrix.vstack([A, A2], ring=ring)
    assert V.shape == (2 * r, k)
    assert _read_out(V, kind) == a + a2
    js = data.draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    is_ = data.draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    assert _read_out(A.take_cols(js), kind) == [[p[j] for j in js] for p in a]
    assert _read_out(A.take_rows(is_), kind) == [a[i] for i in is_]
    assert (_read_out(A.submatrix(is_, js), kind)
            == [[a[i][j] for j in js] for i in is_])
    assert _read_out(ExactMatrix.zeros(r, c, ring), kind) == [[0] * c] * r
    assert _read_out(ExactMatrix.identity(r, ring), kind) == [
        [int(i == j) for j in range(r)] for i in range(r)]


def test_only_exact_linalg_imports_numpy():
    """numpy serves the dense Smith engine only: no other module of the
    package imports it."""
    importers = []
    for path in sorted(Path(exact_linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.append(path.name)
    assert importers == ["exact_linalg.py"]


def test_q_product_past_the_int64_bound():
    # scaled by 3 and 5, every term is 2**62 or more: int64 would wrap
    a, b = 2 ** 31, Fraction(2 ** 31, 3)
    A = M([[b, a]], QQ)
    B = M([[a], [Fraction(a, 5)]], QQ)
    want = Fraction(2 ** 62, 3) + Fraction(2 ** 62, 5)
    assert (A @ B).tolist() == [[want]]
    assert A.matvec([a, Fraction(a, 5)]) == [want]
    assert _all_fractions((A @ B).entries)


def test_q_product_zeros_are_fractions():
    # 1/2 * 2/3 - 1/3 * 1 cancels to zero
    A = M([[Fraction(1, 2), Fraction(1, 3)]], QQ)
    B = M([[Fraction(2, 3)], [-1]], QQ)
    assert (A @ B).tolist() == [[0]]
    assert _all_fractions((A @ B).entries)
    assert A.matvec([Fraction(2, 3), -1]) == [0]
    assert _all_fractions(A.matvec([Fraction(2, 3), -1]))


def test_q_product_with_empty_inner_dimension():
    A = ExactMatrix.zeros(3, 0, QQ)
    B = ExactMatrix.zeros(0, 2, QQ)
    assert A @ B == ExactMatrix.zeros(3, 2, QQ)
    assert _all_fractions((A @ B).entries)
    assert A.matvec([]) == [0, 0, 0]
    assert _all_fractions(A.matvec([]))


# ---------------------------------------------------------------- kernels


def test_kernel_of_identity_is_empty():
    assert kernel_basis(ExactMatrix.identity(3)).cols == 0


def test_kernel_of_difference():
    k = kernel_basis(M([[1, -1]]))
    assert k.cols == 1
    a, b = k.col(0)
    assert a == b and abs(a) == 1


def test_kernel_is_saturated():
    # [[2, -4]] has rational kernel (2, 1); the lattice generator must be
    # primitive, not an integer multiple like (4, 2)
    k = kernel_basis(M([[2, -4]]))
    assert k.cols == 1
    col = k.col(0)
    assert sorted(abs(x) for x in col) == [1, 2]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_rank_nullity(r, c, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
    for ring in (ZZ, QQ):
        m = M(rows, ring)
        k = kernel_basis(m)
        assert rank(m) + k.cols == c
        if k.cols:
            assert (m @ k).is_zero()


# ---------------------------------------------------------------- solving


def test_solve_identity():
    x = PresolvedSolver(ExactMatrix.identity(3)).solve([5, -1, 2])
    assert x == [5, -1, 2]


def test_solve_not_in_image_over_zz():
    assert PresolvedSolver(M([[2]])).solve([3]) is None


def test_solve_in_image_over_qq():
    from fractions import Fraction

    x = PresolvedSolver(M([[2]], QQ)).solve([3])
    assert x == [Fraction(3, 2)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_solve_round_trip(r, c, seed):
    rng = random.Random(seed)
    m = M([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
    x = [rng.randint(-4, 4) for _ in range(c)]
    b = m.matvec(x)
    sol = PresolvedSolver(m).solve(b)
    assert sol is not None
    assert m.matvec(sol) == b


def test_presolved_solver_reuse():
    m = M([[1, 2], [3, 4]])
    s = PresolvedSolver(m)
    for x in ([1, 0], [0, 1], [7, -7]):
        b = m.matvec(x)
        assert s.solve(b) == x


def test_solve_many_non_unit_invariant_factors():
    s = PresolvedSolver(M([[2, 0], [0, 6], [0, 0]]))
    b = M([[2, 1, 4, 0], [6, 6, 3, 0], [0, 0, 0, 1]])
    assert s.solve_many(b) == [[1, 1], None, None, None]
    assert s.solve_many(M([[2], [0], [0]]).scale(3)) == [[3, 0]]


def _check_against_lattice(m, B, got):
    """Each answer of `solve_many` against an oracle that uses no Smith
    form: None exactly when the column lies outside the lattice spanned by
    m's columns (`ColumnLattice`, by echelon form and xgcd), else m x = b."""
    lat = ColumnLattice(m.ring)
    for j in range(m.cols):
        lat.add(dict(enumerate(m.col(j))))
    assert len(got) == B.cols
    for j, x in enumerate(got):
        b = B.col(j)
        assert (x is None) == (not lat.contains(dict(enumerate(b))))
        if x is not None:
            assert m.matvec(x) == b


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_solve_many_empty_shapes(ring, shape):
    m = ExactMatrix.zeros(*shape, ring)
    s = PresolvedSolver(m)
    for cols in (0, 2):
        b = ExactMatrix.zeros(shape[0], cols, ring)
        _check_against_lattice(m, b, s.solve_many(b))
    if shape[0]:
        assert s.solve_many(ExactMatrix.identity(shape[0], ring)) == \
            [None] * shape[0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 6), st.integers(0, 2 ** 32))
def test_solve_many_matches_solve(ring, r, c, k, seed):
    """`solve_many` and `solve` against the lattice oracle, None included:
    half the right-hand sides are images M x, the others arbitrary."""
    rng = random.Random(seed)
    scale = rng.choice([1, 2, 3])
    m = ExactMatrix.from_rows(
        [[scale * rng.randint(-3, 3) for _ in range(c)] for _ in range(r)],
        ring, cols=c)
    cols = []
    for j in range(k):
        if j % 2:
            cols.append([rng.randint(-5, 5) for _ in range(r)])
        else:
            cols.append(m.matvec([ring.element(rng.randint(-3, 3))
                                  for _ in range(c)]))
    b = ExactMatrix.from_rows([[col[i] for col in cols] for i in range(r)],
                              ring, cols=k)
    s = PresolvedSolver(m)
    got = s.solve_many(b)
    _check_against_lattice(m, b, got)
    assert got == [s.solve(col) for col in cols]
    assert all(got[j] is not None for j in range(0, k, 2))
    kind = Fraction if ring.is_field else int
    assert all(type(x) is kind for x_s in got if x_s for x in x_s)


def test_inverse_unimodular():
    m = M([[2, 1], [1, 1]])
    mi = inverse(m)
    assert m @ mi == ExactMatrix.identity(2)


# ---------------------------------------------------------------- subquotients


def test_subquotient_free_rank_one():
    sq = subquotient(M([[1]]), ExactMatrix.zeros(1, 0))
    assert (sq.betti, sq.torsion) == (1, [])


def test_subquotient_z_mod_2():
    sq = subquotient(M([[1]]), M([[2]]))
    assert (sq.betti, sq.torsion) == (0, [2])


def test_subquotient_rejects_bad_image():
    with pytest.raises(ValueError, match="image not contained in kernel"):
        subquotient(M([[2], [0]]), M([[1], [1]]))
    # a saturated kernel, with the image outside its span
    with pytest.raises(ValueError, match="image not contained in kernel"):
        subquotient(M([[1], [0]]), M([[0], [1]]))


def test_subquotient_containment_depends_on_the_ring():
    # 1 is in the Q-span of 2 but not in the Z-span
    with pytest.raises(ValueError, match="image not contained in kernel"):
        subquotient(M([[2]]), M([[1]]))
    sq = subquotient(M([[2]], QQ), M([[1]], QQ))
    assert (sq.betti, sq.torsion) == (0, [])


def test_subquotient_lift_and_coordinates():
    # Z^2 / <(0, 3)> = Z + Z/3
    kernel = ExactMatrix.identity(2)
    image = M([[0], [3]])
    sq = subquotient(kernel, image)
    assert sq.betti == 1
    assert sq.torsion == [3]
    free, tors = sq.coordinates(sq.lift.col(0))
    assert free == [1] and tors == [0]
    free, tors = sq.coordinates([0, 3])
    assert free == [0] and tors == [0]
    free, tors = sq.coordinates([0, 1])
    assert free == [0] and tors != [0]


def test_coordinates_rejects_non_cocycle():
    sq = subquotient(M([[2], [2]]), ExactMatrix.zeros(2, 0))
    with pytest.raises(ValueError, match="not a cocycle"):
        sq.coordinates([1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_subquotient_zz_vs_qq(n, b, seed):
    rng = random.Random(seed)
    image_rows = [[3 * rng.randint(-2, 2) for _ in range(b)] for _ in range(n)]
    kz = ExactMatrix.identity(n, ZZ)
    kq = ExactMatrix.identity(n, QQ)
    sz = subquotient(kz, M(image_rows, ZZ))
    sq = subquotient(kq, M(image_rows, QQ))
    assert sq.torsion == []
    if not sz.torsion:
        assert sz.betti == sq.betti


# ---------------------------------------------------------------- lattices


def test_column_lattice_membership():
    lat = ColumnLattice(ZZ)
    lat.add({0: 2, 1: 0})
    lat.add({1: 3})
    assert lat.rank == 2
    assert lat.contains({0: 2, 1: 3})
    assert not lat.contains({0: 1})
    co = lat.coordinates({0: 4, 1: -3})
    assert co == {0: 2, 1: -1}


def test_column_lattice_gcd_combination():
    lat = ColumnLattice(ZZ)
    lat.add({0: 4})
    grew = lat.add({0: 6})
    assert grew
    assert lat.contains({0: 2})
    co = lat.coordinates({0: 2})
    assert co is not None
    assert 4 * co.get(0, 0) + 6 * co.get(1, 0) == 2


def test_column_lattice_coordinates_reconstruct():
    rng = random.Random(7)
    gens = [
        {i: rng.randint(-5, 5) for i in range(4)}
        for _ in range(6)
    ]
    lat = ColumnLattice(ZZ)
    for g in gens:
        lat.add(g)
    # any random integer combination is a member and reconstructs exactly
    for _ in range(20):
        cs = [rng.randint(-3, 3) for _ in gens]
        target = {}
        for c, g in zip(cs, gens):
            for k, v in g.items():
                target[k] = target.get(k, 0) + c * v
        target = {k: v for k, v in target.items() if v}
        co = lat.coordinates(target)
        assert co is not None
        rebuilt = {}
        for gi, c in co.items():
            for k, v in gens[gi].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * v
        rebuilt = {k: v for k, v in rebuilt.items() if v}
        assert rebuilt == target


def _combine(cs, gens):
    out = {}
    for c, g in zip(cs, gens):
        for k, v in g.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v != 0}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.sampled_from([ZZ, QQ]))
def test_split_projection_property(n, seed, ring):
    rng = random.Random(seed)
    # echelon vectors with +-1 pivots span a lattice whose pivots stay units
    # however it is generated; mix them into generators with integer
    # combinations that keep the span (add a multiple of another generator)
    pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
    gens = [{**{r: rng.randint(-3, 3) for r in range(p + 1, n)},
             p: rng.choice([1, -1])} for p in pivots]
    for _ in range(2 * len(gens)):
        if len(gens) > 1:
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = _combine([1, rng.randint(-3, 3)], [gens[i], gens[j]])
    gens += [_combine([rng.randint(-2, 2) for _ in gens], gens)
             for _ in range(rng.randint(0, 2))]
    gens = [{k: ring.element(v) for k, v in g.items()} for g in gens]
    lat = ColumnLattice(ring)
    for g in gens:
        lat.add(g)
    assert lat.rank == len(pivots)
    kept, P = lat.split_projection(n)
    assert len(kept) == n - len(pivots)
    for g in gens:
        dense = [g.get(i, ring.element(0)) for i in range(n)]
        assert all(x == 0 for x in P.matvec(dense))
    assert P.take_cols(kept) == ExactMatrix.identity(len(kept), ring)
    cs = [rng.randint(-4, 4) for _ in gens]
    v = _combine(cs, gens)
    co = lat.coordinates(v)
    assert co is not None
    assert _combine([co.get(g, 0) for g in range(len(gens))], gens) == v
