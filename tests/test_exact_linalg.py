import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    SnfResult,
    _snf_any,
    invariant_factors,
    inverse,
    kernel_basis,
    rank,
    smith_normal_form,
)


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(rows, ring)


def assert_exact(xs, ring, canonical=False):
    """The representation of ring values: every x is an int or, over QQ, a
    Fraction, never a float or any other type.  With `canonical` (values
    made by `element`, `div` or the Smith transforms) x is an int exactly
    when it is integral; arithmetic may leave an integral Fraction."""
    kinds = (int, Fraction) if ring.is_field else (int,)
    for x in xs:
        assert type(x) in kinds, f"{x!r} is a {type(x).__name__}"
        if canonical:
            assert (type(x) is int) == (x.denominator == 1), repr(x)


def determinant(M):
    """Exact determinant (fraction-free Bareiss; every division is exact)."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return M.ring.element(1)
    a = M.tolist()
    sign = 1
    prev = M.ring.element(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return M.ring.element(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = M.ring.div(num, prev)
        prev = a[k][k]
    return M.ring.element(sign) * a[n - 1][n - 1]


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


def test_snf_result_is_frozen_and_compares_by_value():
    """Two reductions of one matrix are equal records that refuse
    assignment.  The record hashes by value wherever its fields hash;
    ExactMatrix defines __eq__ and so does not."""
    a = smith_normal_form(M([[2, 4], [6, 8]]))
    b = smith_normal_form(M([[2, 4], [6, 8]]))
    assert a == b and a is not b
    with pytest.raises(AttributeError):
        a.D = b.D
    assert SnfResult(1, 2, 3) == SnfResult(1, 2, 3) != SnfResult(1, 2, 4)
    assert hash(SnfResult(1, 2, 3)) == hash(SnfResult(1, 2, 3))


def test_q_kernel_and_solve_hold_fractions():
    # integral values over Q are ints, so a true division of two of them
    # would make a float: kernels, solves and lattice coordinates must
    # divide by QQ.div and hold ints and Fractions only
    m = M([[0, 2, 0]], QQ)
    k = kernel_basis(m)
    assert k.cols == 2
    assert_exact(k.entries, QQ, canonical=True)
    x = PresolvedSolver(m).solve([Fraction(1, 3)])
    assert x == [0, Fraction(1, 6), 0]
    assert_exact(x, QQ)
    lat = ColumnLattice(QQ)
    lat.add(dict(enumerate(m.col(1))))
    co = lat.coordinates({0: 1})
    assert co == {0: Fraction(1, 2)}
    assert_exact(co.values(), QQ, canonical=True)


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


# Small entries, and wide ones near +-2**40 whose minors run far past 64
# bits.  Sparse +-1 matrices are mostly eliminated by unit pivots before
# the Smith engine; planted matrices keep a core with the factors 2 and 6.
_SNF_ENTRIES = {"small": st.integers(-6, 6),
                "wide": st.integers(2 ** 40, 2 ** 40 + 6)
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
    """Nonzero diagonal of `_snf_core` on the whole matrix, with no unit
    pivots eliminated first."""
    nonzero = {i: {j: x for j, x in enumerate(row) if x}
               for i, row in enumerate(rows) if any(row)}
    return [d for d in exact_linalg._snf_core(nonzero, len(rows), c,
                                              False)[2] if d != 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 50), st.integers(0, 2 ** 32),
       st.booleans())
def test_unit_pivot_front_end_matches_dense_engine(r, c, seed, plant):
    """On sparse matrices of up to 40 x 50, mostly +-1 with a few entries
    of +-2..+-6, at most 10% nonzero, and some with planted factors:
    `invariant_factors` over Z equals the nonzero diagonal of the Smith
    engine on the whole matrix, and over Q it is one 1 per unit of the Z
    rank of the row-scaled matrix."""
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
    assert_exact(got, QQ, canonical=True)


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


# Denominators near 2**40: a row that mixes one with a small denominator
# scales to integers past 2**40, so its Smith reduction runs on Python ints.
_BIG_DEN_Q = st.builds(Fraction, st.integers(-3, 3),
                       st.integers(2 ** 40 - 9, 2 ** 40 + 9))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["small", "wide"]), st.integers(0, 5),
       st.integers(0, 5))
def test_q_snf_runs_on_the_integer_engine(data, path, r, c):
    """Over Q, D = U M V = diag(1, ..., 1, 0, ...) with as many ones as the
    row-scaled integer matrix has nonzero determinantal divisors; U and V
    are invertible, every entry is canonical (an int when integral, else a
    Fraction), and the kernel basis has the complementary size."""
    entry = _SMALL_Q if path == "small" else st.one_of(_SMALL_Q, _BIG_DEN_Q)
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    if path == "wide" and r and c:
        rows[0][0] = Fraction(2 ** 41 + 1, 2 ** 40 + 1)
    m = ExactMatrix.from_rows(rows, QQ, cols=c)
    scaled = ExactMatrix.from_rows(
        [[x * lcm(*(y.denominator for y in row)) for x in row]
         for row in rows], ZZ, cols=c)
    rk = len(_determinantal_divisors(scaled))
    U, V, D, _ = _snf_any(m, transforms=True)
    assert D == U @ m @ V
    assert D == ExactMatrix.from_rows(
        [[int(i == j < rk) for j in range(c)] for i in range(r)], QQ, cols=c)
    assert_exact(U.entries + V.entries + D.entries, QQ, canonical=True)
    assert U @ inverse(U) == ExactMatrix.identity(r, QQ)
    assert V @ inverse(V) == ExactMatrix.identity(c, QQ)
    k = kernel_basis(m)
    assert k.cols == c - rk
    assert (m @ k).is_zero()


def test_every_smith_reduction_sees_integers(monkeypatch, capsys):
    """The one Smith engine is the integer one: over Q too, `_snf_core`
    receives rows of Python ints, never Fractions."""
    seen = []
    real = exact_linalg._snf_core

    def spy(rows, m, n, transforms):
        seen.append(all(type(x) is int for row in rows.values()
                        for x in row.values()))
        return real(rows, m, n, transforms)

    monkeypatch.setattr(exact_linalg, "_snf_core", spy)
    assert main(["formality", "n-points", "--n", "3", "--ring", "Q"]) == 0
    capsys.readouterr()
    calls = len(seen)
    k = kernel_basis(M([[Fraction(1, 3), Fraction(2 ** 41 + 1, 7), 0],
                        [Fraction(2, 3), 1, Fraction(-5, 2)]], QQ))
    assert k.cols == 1
    assert calls and len(seen) > calls and all(seen)


def test_q_snf_of_an_integral_fraction_gives_int_transforms(monkeypatch):
    """A product can leave an integral Fraction in a QQ matrix (4/3 * 3/2
    is stored as Fraction(4, 2)), which the all-int path of `_snf_any`
    must not take: `_snf_core` still sees ints only, U, V and D are
    int-typed, and they equal those of the all-int twin over QQ and of the
    same matrix over ZZ."""
    seen = []
    real = exact_linalg._snf_core

    def spy(rows, m, n, transforms):
        seen.extend(type(x) for row in rows.values() for x in row.values())
        return real(rows, m, n, transforms)

    monkeypatch.setattr(exact_linalg, "_snf_core", spy)
    m = M([[Fraction(4, 3), 1], [Fraction(2, 3), 1]], QQ) @ \
        M([[Fraction(3, 2), 0], [0, 1]], QQ)
    assert Fraction(4, 2) in m.columns[0].values()
    assert {type(x) for col in m.columns.values()
            for x in col.values()} == {int, Fraction}
    U, V, D, _ = _snf_any(m, transforms=True)
    assert set(seen) == {int}
    assert D == U @ m @ V == ExactMatrix.identity(2, QQ)
    assert all(type(x) is int for x in U.entries + V.entries + D.entries)
    twin = _snf_any(M([[2, 1], [1, 1]], QQ), transforms=True)
    over_z = _snf_any(M([[2, 1], [1, 1]]), transforms=True)
    assert (U.columns, V.columns) == (twin[0].columns, twin[1].columns) \
        == (over_z[0].columns, over_z[1].columns)


def _read_out(m, ring):
    """m.tolist(), once `entries`, `col` and m[i, j] agree with it and
    every entry read is exact (`assert_exact`)."""
    rows = m.tolist()
    assert len(rows) == m.rows and all(len(row) == m.cols for row in rows)
    assert m.entries == [x for row in rows for x in row]
    cols = [m.col(j) for j in range(m.cols)]
    assert cols == [[row[j] for row in rows] for j in range(m.cols)]
    reads = [m[i, j] for i in range(m.rows) for j in range(m.cols)]
    assert reads == m.entries
    assert_exact(m.entries + reads + [x for c in cols for x in c], ring)
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
    by entry, and every entry is exact (`assert_exact`).  With
    `cancel`, column 1 of A is minus column 0, row 1 of B is row 0 and
    the rest of A is zero, so every term of A B cancels in pairs; such a
    product, like A - A, must be `is_zero()` and equal to `zeros`."""
    ring, entry = ring_entry
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
    a, b = _read_out(A, ring), _read_out(B, ring)

    AB = A @ B
    assert AB.shape == (r, c)
    want = _ref_product(a, b, r, k, c, zero)
    assert _read_out(AB, ring) == want
    Av = A.matvec(v)
    assert Av == [sum((x * y for x, y in zip(row, v)), zero) for row in a]
    assert_exact(Av, ring)
    if planted:
        assert AB.is_zero() and AB == ExactMatrix.zeros(r, c, ring)
        assert not any(Av)
    assert AB.is_zero() == all(x == 0 for row in want for x in row)

    A2 = ExactMatrix.from_rows(
        [[data.draw(entry) for _ in range(k)] for _ in range(r)], ring, cols=k)
    a2 = _read_out(A2, ring)
    s = data.draw(entry)
    for got, ref in ((A + A2, [[x + y for x, y in zip(p, q)]
                               for p, q in zip(a, a2)]),
                     (A - A2, [[x - y for x, y in zip(p, q)]
                               for p, q in zip(a, a2)]),
                     (-A, [[-x for x in p] for p in a]),
                     (A.scale(s), [[x * s for x in p] for p in a])):
        assert got.shape == (r, k)
        assert _read_out(got, ring) == ref
    for cancelled in (A - A, A + (-A), A.scale(0), (A - A) @ B):
        assert cancelled.is_zero()
        assert cancelled == ExactMatrix.zeros(*cancelled.shape, ring)
    assert (A == A2) == (a == a2)
    assert A == ExactMatrix.from_rows(a, ring, cols=k)
    assert (A + A2 - A2) == A
    assert (A == A.scale(2)) == (a == [[0] * k] * r)
    assert A != ExactMatrix.zeros(r, k + 1, ring)

    js = data.draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    is_ = data.draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    assert _read_out(A.take_cols(js), ring) == [[p[j] for j in js] for p in a]
    assert _read_out(A.take_rows(is_), ring) == [a[i] for i in is_]
    assert (_read_out(A.submatrix(is_, js), ring)
            == [[a[i][j] for j in js] for i in is_])
    assert _read_out(ExactMatrix.zeros(r, c, ring), ring) == [[0] * c] * r
    assert _read_out(ExactMatrix.identity(r, ring), ring) == [
        [int(i == j) for j in range(r)] for i in range(r)]


def test_no_module_imports_numpy():
    """Every matrix, Smith engine included, is on Python ints and
    Fractions: no module of the package imports numpy."""
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
    assert importers == []


def test_q_product_past_the_int64_bound():
    # scaled by 3 and 5, every term is 2**62 or more: int64 would wrap
    a, b = 2 ** 31, Fraction(2 ** 31, 3)
    A = M([[b, a]], QQ)
    B = M([[a], [Fraction(a, 5)]], QQ)
    want = Fraction(2 ** 62, 3) + Fraction(2 ** 62, 5)
    assert (A @ B).tolist() == [[want]]
    assert A.matvec([a, Fraction(a, 5)]) == [want]
    assert_exact((A @ B).entries, QQ)


def test_q_product_zeros_are_fractions():
    # 1/2 * 2/3 - 1/3 * 1 cancels to zero, which is read as the int 0
    A = M([[Fraction(1, 2), Fraction(1, 3)]], QQ)
    B = M([[Fraction(2, 3)], [-1]], QQ)
    assert (A @ B).tolist() == [[0]]
    assert_exact((A @ B).entries, QQ, canonical=True)
    assert A.matvec([Fraction(2, 3), -1]) == [0]
    assert_exact(A.matvec([Fraction(2, 3), -1]), QQ, canonical=True)


def test_q_product_with_empty_inner_dimension():
    A = ExactMatrix.zeros(3, 0, QQ)
    B = ExactMatrix.zeros(0, 2, QQ)
    assert A @ B == ExactMatrix.zeros(3, 2, QQ)
    assert_exact((A @ B).entries, QQ, canonical=True)
    assert A.matvec([]) == [0, 0, 0]
    assert_exact(A.matvec([]), QQ, canonical=True)


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
        member = lat.echelon_coordinates(dict(enumerate(b))) is not None
        assert (x is None) == (not member)
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
    assert_exact([x for x_s in got if x_s for x in x_s], ring)


def test_inverse_unimodular():
    m = M([[2, 1], [1, 1]])
    mi = inverse(m)
    assert m @ mi == ExactMatrix.identity(2)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_inverse_returns_an_identity_as_it_is(ring, monkeypatch):
    """An identity comes back as the same object, with no `lattice_solve`;
    a unimodular matrix that is not the identity still goes through it,
    and a matrix that is not invertible still raises ValueError."""
    calls = []
    solve = exact_linalg.lattice_solve
    monkeypatch.setattr(exact_linalg, "lattice_solve",
                        lambda G, B: calls.append(G) or solve(G, B))
    for n in range(4):
        ident = ExactMatrix.identity(n, ring)
        assert inverse(ident) is ident
    assert calls == []
    for rows, inv in (([[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
                      ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
                      ([[1, 0], [0, -1]], [[1, 0], [0, -1]]),
                      ([[1, 1], [0, 1]], [[1, -1], [0, 1]])):
        m = M(rows, ring)
        assert inverse(m) == M(inv, ring)
        assert calls[-1] is m
    assert len(calls) == 4
    singular = [M([[1, 0], [0, 0]], ring), M([[1, 1], [1, 1]], ring)]
    if not ring.is_field:
        singular.append(M([[1, 0], [0, 2]]))
    for m in singular:
        with pytest.raises(ValueError,
                           match="^matrix is not invertible over the ring$"):
            inverse(m)
    with pytest.raises(ValueError, match="^inverse of non-square matrix$"):
        inverse(M([[1, 0]], ring))


def _smith_inverse(m):
    """Reference route for `inverse`: V U when D = U M V is the identity."""
    if m.rows == 0:
        return ExactMatrix.zeros(0, 0, m.ring)
    U, V, _, diag = _snf_any(m, transforms=True)
    if any(d != 1 for d in diag):
        raise ValueError("matrix is not invertible over the ring")
    return V @ U


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([ZZ, QQ]),
       st.sampled_from(["small", "planted", "singular"]), st.integers(0, 5),
       st.sampled_from([1, 2, 3]))
def test_lattice_inverse_matches_smith_route(data, ring, kind, n, den):
    """`inverse` by `ColumnLattice` equals V U from the Smith transforms, and
    raises the same error on singular input and, over Z, on input that is
    not unimodular: planted diagonals (1, ..., 1, 2, 6, 0, ...) under unit
    operations, random small entries (over Q divided by den), and random
    matrices with a repeated row."""
    if kind == "planted":
        rows, _ = _planted(n, n, data.draw(st.integers(0, n)),
                           data.draw(_UNIT_OPS))
    else:
        rows = [[data.draw(st.integers(-3, 3)) for _ in range(n)]
                for _ in range(n)]
        if kind == "singular" and n:
            rows[-1] = list(rows[0]) if n > 1 else [0]
    if ring.is_field:
        rows = [[Fraction(x, den) for x in row] for row in rows]
    m = ExactMatrix.from_rows(rows, ring, cols=n)
    try:
        want = _smith_inverse(m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            inverse(m)
        return
    got = inverse(m)
    assert got == want
    assert m @ got == ExactMatrix.identity(n, ring)
    assert_exact(got.entries, ring, canonical=True)


# ---------------------------------------------------------------- lattices


def test_column_lattice_membership():
    lat = ColumnLattice(ZZ)
    lat.add({0: 2, 1: 0})
    lat.add({1: 3})
    assert lat.rank == 2
    assert lat.echelon_coordinates({0: 2, 1: 3}) is not None
    assert lat.echelon_coordinates({0: 1}) is None
    co = lat.coordinates({0: 4, 1: -3})
    assert co == {0: 2, 1: -1}


def test_column_lattice_gcd_combination():
    lat = ColumnLattice(ZZ)
    lat.add({0: 4})
    grew = lat.add({0: 6})
    assert grew
    assert lat.echelon_coordinates({0: 2}) is not None
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


def _reduce_by_every_column(lat, vec):
    """Reference for `ColumnLattice.reduce`: walk every echelon column in
    pivot order and take off the multiple that clears its pivot row; stop
    at the first pivot row whose pivot does not divide the entry."""
    v = {k: lat.ring.element(x) for k, x in vec.items() if x != 0}
    out = {}
    for pr in sorted(lat.columns):
        cvec = lat.columns[pr][0]
        c = v.get(pr)
        if not c:
            continue
        if lat.ring.is_field:
            q = lat.ring.div(c, cvec[pr])
        else:
            q, r = divmod(c, cvec[pr])
            if r:
                return v, out, pr
        out[pr] = q
        exact_linalg._vec_axpy(v, cvec, -q)
    return v, out, None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([ZZ, QQ]))
def test_reduce_on_the_support_matches_every_column(seed, ring):
    """Sparse generators with non-unit entries (so that over ZZ the gcd
    step rewrites columns) and sparse queries, members and not: the
    remainder, its key order, the multiples and the row where a pivot
    does not divide equal the full walk's."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    lat = ColumnLattice(ring)
    gens = [{i: rng.choice([1, -1, 2, 3, -4]) for i in
             rng.sample(range(n), rng.randint(1, min(4, n)))}
            for _ in range(rng.randint(0, 8))]
    for g in gens:
        lat.add(g)
        assert all(pr == min(vec) for pr, (vec, _) in lat.columns.items())
    queries = [_combine([rng.randint(-2, 2) for _ in gens], gens)
               for _ in range(3)]
    queries += [{i: rng.randint(-3, 3) for i in
                 rng.sample(range(n), rng.randint(0, n))} for _ in range(3)]
    for vec in queries:
        got, want = lat.reduce(vec), _reduce_by_every_column(lat, vec)
        assert got == want
        assert list(got[0]) == list(want[0])
        assert list(got[1]) == list(want[1])
        assert_exact(got[0].values(), ring)
        assert_exact(got[1].values(), ring, canonical=True)


def _insert_by_own_walk(lat, vec):
    """Reference for `ColumnLattice.add`: the insertion that walked the
    pivots itself.  At the lowest row of the vector it reduces by the
    pivot there, recombines with the xgcd when the pivot does not divide,
    and stores the vector as it is when the row has no pivot; over ZZ a
    stored column with a negative pivot is negated, coordinates too."""
    ring, key = lat.ring, lat.ngens
    lat.ngens += 1
    vec = {k: ring.element(v) for k, v in vec.items() if v != 0}
    coords = {key: ring.element(1)}
    grew = False
    axpy = exact_linalg._vec_axpy

    def store(pr, vec, coords):
        sign = -1 if vec[pr] < 0 and not ring.is_field else 1
        lat.columns[pr] = ({k: sign * x for k, x in vec.items()},
                           {k: sign * x for k, x in coords.items()})

    while vec:
        pr = min(vec)
        if pr not in lat.columns:
            store(pr, vec, coords)
            return True
        cvec, ccoords = lat.columns[pr]
        p, c = cvec[pr], vec[pr]
        if ring.is_field or c % p == 0:
            q = ring.div(c, p)
            axpy(vec, cvec, -q)
            axpy(coords, ccoords, -q)
            continue
        g, x, y = exact_linalg._xgcd(p, c)
        newvec, newco, restvec, restco = {}, {}, {}, {}
        axpy(newvec, cvec, x)
        axpy(newvec, vec, y)
        axpy(newco, ccoords, x)
        axpy(newco, coords, y)
        axpy(restvec, vec, p // g)
        axpy(restvec, cvec, -(c // g))
        axpy(restco, coords, p // g)
        axpy(restco, ccoords, -(c // g))
        store(pr, newvec, newco)
        vec, coords = restvec, restco
        grew = True
    return grew


def _pivots(lat):
    return {pr: vec[pr] for pr, (vec, _) in lat.columns.items()}


def _planted_generators(rng, n, count):
    """Generators with planted non-unit leads, so that over ZZ the xgcd
    step runs."""
    gens = []
    for _ in range(count):
        lead = rng.randrange(n)
        g = {lead: rng.choice([2, 3, -4, 6])}
        g.update((i, rng.choice([1, -1, 2, -3, 5])) for i in
                 rng.sample(range(n), rng.randint(0, min(3, n))) if i != lead)
        gens.append(g)
    return gens


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([ZZ, QQ]))
@example(170, ZZ)  # a pivot whose sign differs after an xgcd step
def test_add_through_reduce_matches_the_own_walk(seed, ring):
    """After every insertion `add` reports the same growth, the same
    pivots and the same lattice as the insertion that walked the pivots
    itself, and every stored column is the combination of the generators
    its coordinates name; over ZZ every pivot is positive."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    lat, ref = ColumnLattice(ring), ColumnLattice(ring)
    gens = _planted_generators(rng, n, rng.randint(1, 9))
    for k, g in enumerate(gens):
        assert lat.add(g) == _insert_by_own_walk(ref, g)
        assert _pivots(lat) == _pivots(ref)
        assert ring.is_field or all(p > 0 for p in _pivots(lat).values())
        for one, other in ((lat, ref), (ref, lat)):
            assert all(other.echelon_coordinates(v) is not None
                       for v in one.basis_vectors())
        for vec, co in lat.columns.values():
            assert _combine([co.get(j, 0) for j in range(k + 1)],
                            gens[:k + 1]) == vec
    assert_exact([x for vec, co in lat.columns.values()
                  for x in (*vec.values(), *co.values())], ring)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
@example(170)
def test_pivots_over_z_do_not_depend_on_insertion_order(seed):
    """The same ZZ generators inserted in shuffled orders give the same
    {pivot row: pivot}: the Hermite diagonal of their lattice."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    gens = _planted_generators(rng, n, rng.randint(1, 9))
    seen = []
    for _ in range(4):
        lat = ColumnLattice(ZZ)
        for g in rng.sample(gens, len(gens)):
            lat.add(g)
        seen.append(_pivots(lat))
    assert all(p == seen[0] for p in seen)


# ---------------------------------------------------------------- representation


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ]),
       st.one_of(st.integers(-2 ** 70, 2 ** 70), _SMALL_Q, _BIG_Q),
       st.one_of(st.integers(-6, 6), _SMALL_Q).filter(bool))
@example(QQ, Fraction(3, 2), Fraction(3, 4))
@example(QQ, Fraction(6, 3), 4)
@example(ZZ, 7, 2)
def test_element_and_div_are_canonical(ring, a, b):
    """`element` and `div` give an int exactly when the value is integral;
    over ZZ a value with a denominator, or a quotient that b does not
    divide, raises ValueError."""
    if not ring.is_field and (a.denominator != 1 or b.denominator != 1):
        with pytest.raises(ValueError):
            ring.element(a if a.denominator != 1 else b)
        return
    x, y = ring.element(a), ring.element(b)
    assert (x, y) == (a, b)
    assert_exact([x, y], ring, canonical=True)
    if not ring.is_field and x % y:
        with pytest.raises(ValueError):
            ring.div(x, y)
        return
    q = ring.div(x, y)
    assert q * y == x
    assert_exact([q], ring, canonical=True)


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("x", [2.5, 0.1, 2.0, -0.0])
def test_element_refuses_floats(ring, x):
    # ZZ.element(2.5) used to round to 2, and QQ.element(0.1) to give
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        ring.element(x)
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[x, 1]], ring)


def test_true_division_only_in_coeff_ring_div():
    """No `/` or `/=` in the package outside `CoeffRing.div`: over QQ an
    integral value is an int, so a true division of two of them would
    bring floats back."""
    found = []
    for path in sorted(Path(exact_linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "CoeffRing":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "div":
                        allowed.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_private_definition_is_referenced():
    """Every underscore-private function, method and class of the package
    is named, as a `Name` or an `Attribute`, somewhere in the package
    outside its own definition, so that a refactor cannot leave a dead
    private helper behind."""
    trees = [ast.parse(path.read_text()) for path in
             sorted(Path(exact_linalg.__file__).parent.glob("*.py"))]
    defs, refs = [], []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defs.append(node)
            elif isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    dead = []
    for d in defs:
        inside = set(map(id, ast.walk(d)))
        if not any(name == d.name and id(node) not in inside
                   for name, node in refs):
            dead.append(f"{d.name} (line {d.lineno})")
    assert dead == []


def test_q_n_points_builds_few_fractions(monkeypatch, capsys):
    """Over Q the sphere models are integral, so the n-point pipeline runs
    on ints: `formality n-points --n 5 --ring Q` builds at most 2,000
    Fractions (16,175 when every value over Q was a Fraction)."""
    built = [0]
    real = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert main(["formality", "n-points", "--n", "5", "--ring", "Q"]) == 0
    capsys.readouterr()
    assert built[0] <= 2000
