"""Exact dense linear algebra over the integers and the rationals.

Everything downstream (complexes, quiver representations, dg algebras) is
built on the primitives in this module: Smith normal form with unimodular
transforms, saturated kernel lattices, exact solving, and presentations of
subquotient modules ker/im.

Matrices are dense numpy arrays.  Integer matrices use Python ints (object
dtype) so there is no fixed-width overflow; rational entries are
`fractions.Fraction` values.  Each ring-independent operation has one
integer path for both rings:

- Smith reduction runs on int64 arrays with explicit growth bounds and
  restarts on Python ints if a bound is ever at risk.  Over Q each row is
  scaled to integers by the lcm of its denominators first, and the
  invariant factors are divided out of U after.
- Sparse elimination of +-1 pivots of least Markowitz cost on a
  dict-of-rows copy (`eliminate_unit_pivots`) runs before the dense
  engine: invariant factors and ranks split off one factor 1 per pivot,
  and `chain_complex.cohomology` reduces a whole complex to its core.  The
  matrices met here are incidence-like, so the core is usually small or
  empty.  The other transforms (`kernel_basis`, `PresolvedSolver`,
  `inverse`, a direct `subquotient`) stay on the dense engine.  Hom
  spaces of thin representations skip `kernel_basis` altogether: see
  `quiver_rep.hom_space`, which solves them by a signed union-find.
- Products (`ExactMatrix.__matmul__` and `matvec`) scale each operand to
  integers by the least common denominator of its entries
  (`integer_scaling`; over Z that is the int64 view, with denominator 1,
  whenever the entries fit).  The integer product runs on int64 when
  max|a| * max|b| * (inner dimension) < 2**62, so that no sum can
  overflow, and on Python ints otherwise; over Q each entry is divided by
  the product of the two denominators once, at the end.
- Solving (`PresolvedSolver.solve_many`, which `solve` and `subquotient`
  call) is two products with the Smith transforms and one exact
  divisibility check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np


class CoeffRing:
    """Coefficient ring: arbitrary-precision integers or exact rationals."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("integers", "rationals"):
            raise ValueError(f"unknown coefficient ring {kind!r}")
        self.kind = kind

    @property
    def is_field(self) -> bool:
        return self.kind == "rationals"

    def element(self, x):
        """Coerce x into the ring, normalizing rationals."""
        if self.kind == "integers":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        return Fraction(x)

    def __repr__(self):
        return "ZZ" if self.kind == "integers" else "QQ"

    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)


ZZ = CoeffRing("integers")
QQ = CoeffRing("rationals")


def _as_object_array(rows: int, cols: int, data) -> np.ndarray:
    a = np.empty((rows, cols), dtype=object)
    if rows and cols:
        a[:, :] = data
    return a


class ExactMatrix:
    """Immutable dense matrix over a CoeffRing.

    The wrapped array has dtype=object with int or Fraction entries.  All
    arithmetic is exact; operations return new matrices.  Products run on
    the entries scaled to integers, through int64 numpy kernels when a
    bound on the result proves no overflow is possible; over Q the result
    is divided back into Fractions.
    """

    __slots__ = ("ring", "data", "_i64", "_scaled")

    def __init__(self, ring: CoeffRing, data: np.ndarray):
        self.ring = ring
        self.data = data
        self._i64 = None
        self._scaled = None

    def _int64_view(self):
        """(int64 array, max abs) when entries fit, else False; cached."""
        if self._i64 is None:
            if self.ring.is_field or self.rows == 0 or self.cols == 0:
                self._i64 = False
            else:
                try:
                    a = self.data.astype(np.int64)
                    self._i64 = (a, int(abs(a).max()))
                except (OverflowError, TypeError, ValueError):
                    self._i64 = False
        return self._i64

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ring: CoeffRing = ZZ,
                  cols: Optional[int] = None) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        a = np.empty((nrows, ncols), dtype=object)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                a[i, j] = ring.element(x)
        return cls(ring, a)

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: CoeffRing = ZZ) -> "ExactMatrix":
        a = _as_object_array(rows, cols, ring.element(0))
        return cls(ring, a)

    @classmethod
    def identity(cls, n: int, ring: CoeffRing = ZZ) -> "ExactMatrix":
        m = cls.zeros(n, n, ring)
        one = ring.element(1)
        for i in range(n):
            m.data[i, i] = one
        return m

    # -- shape / access -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def entries(self) -> list:
        """Entries in row-major order."""
        return list(self.data.reshape(-1))

    def __getitem__(self, ij):
        return self.data[ij]

    def col(self, j: int) -> list:
        return list(self.data[:, j])

    def tolist(self) -> list:
        return [list(r) for r in self.data]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(self.ring, self.data[np.ix_(rows, cols)].copy()
                           if len(rows) and len(cols)
                           else _as_object_array(len(rows), len(cols), 0))

    def take_cols(self, cols: Sequence[int]) -> "ExactMatrix":
        a = np.empty((self.rows, len(cols)), dtype=object)
        for k, j in enumerate(cols):
            a[:, k] = self.data[:, j]
        return ExactMatrix(self.ring, a)

    def take_rows(self, rows: Sequence[int]) -> "ExactMatrix":
        a = np.empty((len(rows), self.cols), dtype=object)
        for k, i in enumerate(rows):
            a[k, :] = self.data[i, :]
        return ExactMatrix(self.ring, a)

    # -- arithmetic ------------------------------------------------------

    def integer_scaling(self):
        """`integer_scaling` of the entries, as a matrix; cached, and over
        ZZ read off the cached int64 view when it exists (no second cache
        entry: every Z product operand goes through here).  The matrix must
        be nonempty."""
        fit = self._int64_view()
        if fit:
            return fit[0], 1, fit[1]
        if self._scaled is None:
            a, d, top = integer_scaling(self.data.reshape(-1))
            self._scaled = (a.reshape(self.shape), d, top)
        return self._scaled

    def _check_ring(self, other: "ExactMatrix"):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return ExactMatrix.zeros(self.rows, other.cols, self.ring)
        a, da, ta = self.integer_scaling()
        b, db, tb = other.integer_scaling()
        return ExactMatrix(self.ring, self._from_integers(
            _int_dot(a, b, ta * tb * self.cols), da * db))

    def _from_integers(self, a: np.ndarray, den: int) -> np.ndarray:
        """The integer array a, divided by den into Fractions over QQ, as
        an object array of ring elements."""
        return _unscale(a, den) if self.ring.is_field else a.astype(object)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_ring(other)
        return ExactMatrix(self.ring, self.data + other.data)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_ring(other)
        return ExactMatrix(self.ring, self.data - other.data)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.ring, -self.data)

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.element(c)
        return ExactMatrix(self.ring, self.data * c)

    def matvec(self, v: Sequence) -> list:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matvec")
        if self.rows == 0:
            return []
        if self.cols == 0:
            return [self.ring.element(0)] * self.rows
        a, da, ta = self.integer_scaling()
        vv, dv, tv = integer_scaling(v)
        return list(self._from_integers(_int_dot(a, vv, ta * tv * self.cols),
                                        da * dv))

    # -- predicates -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def is_zero(self) -> bool:
        return self.rows == 0 or self.cols == 0 or not (self.data != 0).any()

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.ring == other.ring
                and self.shape == other.shape
                and (self.rows == 0 or self.cols == 0
                     or bool((self.data == other.data).all())))

    def __repr__(self):
        return f"ExactMatrix({self.ring}, {self.tolist()})"

    @staticmethod
    def hstack(mats: Sequence["ExactMatrix"], rows: Optional[int] = None,
               ring: CoeffRing = ZZ) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zeros(rows or 0, 0, ring)
        r = mats[0].rows
        total = sum(m.cols for m in mats)
        a = np.empty((r, total), dtype=object)
        at = 0
        for m in mats:
            if m.rows != r:
                raise ValueError("hstack row mismatch")
            a[:, at:at + m.cols] = m.data
            at += m.cols
        return ExactMatrix(mats[0].ring, a)

    @staticmethod
    def vstack(mats: Sequence["ExactMatrix"], cols: Optional[int] = None,
               ring: CoeffRing = ZZ) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zeros(0, cols or 0, ring)
        c = mats[0].cols
        total = sum(m.rows for m in mats)
        a = np.empty((total, c), dtype=object)
        at = 0
        for m in mats:
            if m.cols != c:
                raise ValueError("vstack col mismatch")
            a[at:at + m.rows, :] = m.data
            at += m.rows
        return ExactMatrix(mats[0].ring, a)


def integer_scaling(values: Sequence):
    """(a, d, max|a|) with values = a / d: d is the least common denominator
    and a is an int64 array when its entries fit, else an object array of
    Python ints."""
    d = math.lcm(*(x.denominator for x in values)) if len(values) else 1
    nums = [x.numerator * (d // x.denominator) for x in values]
    top = max(map(abs, nums), default=0)
    return np.array(nums, dtype=np.int64 if top < 2 ** 63 else object), d, top


def _int_dot(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a.dot(b) for integer arrays, on int64 when bound (max|a| * max|b| *
    inner dimension) < 2**62, else on Python ints."""
    if bound < 2 ** 62:
        return a.dot(b)
    return a.astype(object).dot(b.astype(object))


_FRACTION_ZERO = Fraction(0)


def _unscale(a: np.ndarray, den: int) -> np.ndarray:
    """The object array of Fractions a / den, for an integer array a; every
    zero is the one shared Fraction(0)."""
    out = np.full(a.shape, _FRACTION_ZERO, dtype=object)
    nz = np.nonzero(a)
    out[nz] = [Fraction(x, den) for x in a[nz].tolist()]
    return out


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition D = U @ M @ V with U, V unimodular."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix

    def diagonal(self) -> list:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]


class _Overflow(Exception):
    pass


_INT64_SAFE = 2 ** 61


def _guard(*vals):
    for v in vals:
        if v >= _INT64_SAFE:
            raise _Overflow


def _snf_core(a: np.ndarray, transforms: bool):
    """In-place Smith reduction of the integer matrix a; returns (U, V,
    diag) or (None, None, diag).

    a may be int64 (raises _Overflow when entry growth gets near the limit)
    or object dtype holding Python ints.  The transforms are always kept in
    object dtype since their entries outgrow the working matrix.  Pivoting
    selects an entry of minimal nonzero absolute value, which keeps
    intermediate entries small, and row/column updates touch only the
    rows/columns with nonzero quotients (most, for the incidence-like
    matrices this package meets).
    """
    m, n = a.shape
    guarded = a.dtype != object
    if transforms:
        U = ExactMatrix.identity(m).data
        V = ExactMatrix.identity(n).data
    else:
        U = V = None
    t = 0
    while t < min(m, n):
        sub = a[t:, t:]
        nz = sub != 0
        if not nz.any():
            break
        # minimal |entry| pivot; any +-1 wins immediately
        absd = abs(sub)
        ones = nz & (absd == 1)
        if ones.any():
            i, j = np.unravel_index(int(np.argmax(ones)), ones.shape)
        else:
            big = absd.max() + 1
            masked = np.where(nz, absd, big)
            i, j = np.unravel_index(int(np.argmin(masked)), masked.shape)
        i += t
        j += t
        if i != t:
            a[[t, i], :] = a[[i, t], :]
            if transforms:
                U[[t, i], :] = U[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
            if transforms:
                V[:, [t, j]] = V[:, [j, t]]
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
            if transforms:
                U[t, :] = -U[t, :]
        p = a[t, t]

        col = a[t + 1:, t]
        if (col != 0).any():
            q = col // p
            nzq = np.nonzero(q)[0]
            if len(nzq):
                qq = q[nzq]
                ridx = nzq + (t + 1)
                if guarded:
                    _guard(int(abs(qq).max()) * max(int(abs(a[t, t:]).max()), 1)
                           + int(abs(a).max()))
                a[ridx, t:] -= qq[:, None] * a[t, t:][None, :]
                if transforms:
                    qo = qq.astype(object) if guarded else qq
                    U[ridx, :] -= qo[:, None] * U[t, :][None, :]
            if (a[t + 1:, t] != 0).any():
                continue  # remainders < pivot; re-pick pivot
        row = a[t, t + 1:]
        if (row != 0).any():
            q = row // p
            nzq = np.nonzero(q)[0]
            if len(nzq):
                qq = q[nzq]
                cidx = nzq + (t + 1)
                if guarded:
                    _guard(int(abs(qq).max()) * max(int(abs(a[t:, t]).max()), 1)
                           + int(abs(a).max()))
                a[t:, cidx] -= a[t:, t][:, None] * qq[None, :]
                if transforms:
                    qo = qq.astype(object) if guarded else qq
                    V[:, cidx] -= V[:, t][:, None] * qo[None, :]
            if (a[t, t + 1:] != 0).any():
                continue
        # pivot must divide the remaining block for the divisor chain
        rest = a[t + 1:, t + 1:]
        if rest.size and p != 1:
            bad = rest % p != 0
            if bad.any():
                i = t + 1 + int(np.argmax(bad.any(axis=1)))
                if guarded:
                    _guard(int(abs(a[t, t:]).max()) + int(abs(a[i, t:]).max()))
                a[t, t:] += a[i, t:]
                if transforms:
                    U[t, :] += U[i, :]
                continue
        t += 1
    diag = [a[i, i] for i in range(min(m, n))]
    return U, V, diag


def _prepare_int64(M: ExactMatrix) -> Optional[np.ndarray]:
    try:
        a = M.data.astype(np.int64)
    except (OverflowError, TypeError):
        return None
    if a.size and abs(a).max() >= 2 ** 40:
        return None
    return a


def eliminate_unit_pivots(a: np.ndarray, record: Optional[list] = None
                          ) -> Tuple[int, dict, dict]:
    """(k, rows, cols): the array a after the elimination of k +-1 pivots,
    as a dict of rows {col: x} of its nonzero entries plus the set of rows
    of each column.

    Sparse elimination (Dumas, Saunders and Villard 2001): the next pivot
    is a +-1 entry of least Markowitz cost (r - 1)(c - 1), with r and c the
    nonzero counts of its row and column.  Candidates wait in a heap and
    are checked again when popped, since fill-in moves costs and can turn
    entries into or out of units.  A pivot p at (i, j) clears its column by
    row operations and then its row by column operations that meet no other
    row, so row i and column j leave the matrix and every other entry
    becomes delta - alpha p beta (alpha column j, beta row i).  Fill-in
    runs on the entries as they are (Python ints or Fractions).  When
    `record` is a list, each pivot appends (i, j, p, row i as a dict with
    the pivot in it, [(r, alpha_r * p)] for the other rows r of column j).
    """
    rows: dict = {}
    cols: dict = {}
    ri, ci = np.nonzero(a)
    for i, j, x in zip(ri.tolist(), ci.tolist(), a[ri, ci].tolist()):
        rows.setdefault(i, {})[j] = x
        cols.setdefault(j, set()).add(i)
    heap = [((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, x in row.items()
            if x == 1 or x == -1]
    heapq.heapify(heap)
    k = 0
    while heap:
        cost, i, j = heapq.heappop(heap)
        row = rows.get(i)
        p = row.get(j) if row is not None else None
        if p != 1 and p != -1:
            continue
        now = (len(row) - 1) * (len(cols[j]) - 1)
        if now != cost:
            heapq.heappush(heap, (now, i, j))
            continue
        k += 1
        del rows[i]
        for c in row:
            cols[c].discard(i)
        if record is not None:
            record.append((i, j, p, row,
                           [(r, rows[r][j] * p) for r in cols[j]]))
        for r in cols.pop(j):
            target = rows[r]
            f = target.pop(j) * p
            for c, v in row.items():
                if c == j:
                    continue
                w = target.get(c, 0) - f * v
                if w == 0:
                    del target[c]
                    cols[c].discard(r)
                    continue
                if c not in target:
                    cols[c].add(r)
                target[c] = w
                if w == 1 or w == -1:
                    heapq.heappush(heap, (0, r, c))
            if not target:
                del rows[r]
    return k, rows, cols


def _unit_pivot_core(a: np.ndarray) -> Tuple[int, ExactMatrix]:
    """(k, C) with SNF(a) = diag(1, ..., 1) (+) SNF(C) and k ones, for the
    object array a of Python ints: `eliminate_unit_pivots` splits off one
    invariant factor 1 per pivot.  C holds the rows and columns that keep a
    nonzero entry, dense, as Python ints.
    """
    k, rows, cols = eliminate_unit_pivots(a)
    rkeys = sorted(rows)
    ckeys = sorted(c for c, rs in cols.items() if rs)
    pos = {c: t for t, c in enumerate(ckeys)}
    core = np.zeros((len(rkeys), len(ckeys)), dtype=object)
    for t, i in enumerate(rkeys):
        for c, x in rows[i].items():
            core[t, pos[c]] = x
    return k, ExactMatrix(ZZ, core)


def _smith_reduce(M: ExactMatrix, transforms: bool):
    """(U, V, reduced matrix, diag) of the integer matrix M by `_snf_core`:
    on int64 while the growth bounds hold, on Python ints after an
    overflow restart."""
    a = _prepare_int64(M)
    if a is not None:
        try:
            U, V, diag = _snf_core(a, transforms)
            return U, V, a.astype(object), [int(d) for d in diag]
        except _Overflow:
            pass
    a = np.empty(M.shape, dtype=object)
    a[:, :] = M.data
    U, V, diag = _snf_core(a, transforms)
    return U, V, a, diag


def _snf_any(M: ExactMatrix, transforms: bool):
    """(U, V, D, diag) with D = U M V, on the integer engine: int64 while
    the growth bounds hold, Python ints after an overflow restart.

    Over QQ row i is first scaled to integers by the lcm s_i of its
    denominators.  With D' = U' (S M) V over ZZ, the result is U = E U' S
    and D = E D' = diag(1, ..., 1, 0, ...), where E = diag(1/d_i) on the
    nonzero invariant factors d_i of D'; every entry is a Fraction.

    Without transforms the result is (None, None, None, factors), with
    factors the nonzero invariant factors (over QQ, one Fraction(1) per
    unit of rank).  The integer matrix then goes through
    `_unit_pivot_core` first, and only its residual core reaches
    `_snf_core`.
    """
    field = M.ring.is_field
    if field:
        s = [math.lcm(*(x.denominator for x in row)) for row in M.data]
        a = np.empty(M.shape, dtype=object)
        for i, row in enumerate(M.data):
            a[i] = [x.numerator * (s[i] // x.denominator) for x in row]
        M = ExactMatrix(ZZ, a)
    if not transforms:
        k, core = _unit_pivot_core(M.data)
        factors = [1] * k
        if core.rows:
            factors += [d for d in _smith_reduce(core, False)[3] if d != 0]
        return None, None, None, (
            [Fraction(1)] * len(factors) if field else factors)
    U, V, a, diag = _smith_reduce(M, True)
    if not field:
        return ExactMatrix(ZZ, U), ExactMatrix(ZZ, V), ExactMatrix(ZZ, a), diag
    r = sum(1 for d in diag if d != 0)
    D = ExactMatrix.zeros(*M.shape, QQ)
    D.data[range(r), range(r)] = Fraction(1)
    U = U * np.array(s, dtype=object)[None, :]
    for i in range(M.rows):
        U[i] = _unscale(U[i], diag[i] if i < r else 1)
    U, V = ExactMatrix(QQ, U), ExactMatrix(QQ, _unscale(V, 1))
    return U, V, D, [D[i, i] for i in range(len(diag))]


def smith_normal_form(M: ExactMatrix) -> SnfResult:
    """Smith normal form over ZZ: D = U M V, d_1 | d_2 | ..., d_i >= 0."""
    if M.ring.is_field:
        raise ValueError("smith_normal_form requires integer coefficients")
    U, V, D, _ = _snf_any(M, transforms=True)
    return SnfResult(U=U, D=D, V=V)


def invariant_factors(M: ExactMatrix) -> list:
    """Nonzero diagonal of the Smith form, without transforms: +-1 pivots
    are eliminated sparsely and only the residual core is reduced densely
    (`_unit_pivot_core`)."""
    return _snf_any(M, transforms=False)[3]


def rank(M: ExactMatrix) -> int:
    return len(invariant_factors(M))


def kernel_basis(M: ExactMatrix) -> ExactMatrix:
    """Basis of {x : Mx = 0} as matrix columns.

    Over ZZ the columns generate the full kernel lattice (saturated), via
    the trailing columns of the Smith transform V.
    """
    if M.cols == 0:
        return ExactMatrix.zeros(0, 0, M.ring)
    if M.rows == 0:
        return ExactMatrix.identity(M.cols, M.ring)
    _, V, _, diag = _snf_any(M, transforms=True)
    r = sum(1 for d in diag if d != 0)
    return V.take_cols(range(r, M.cols))


class PresolvedSolver:
    """Reusable exact solver for Mx = b built on one Smith decomposition."""

    def __init__(self, M: ExactMatrix):
        self.M = M
        self.ring = M.ring
        if M.rows and M.cols:
            U, V, D, diag = _snf_any(M, transforms=True)
            self.U, self.V = U, V
            self.diag = diag
        else:
            self.U = ExactMatrix.identity(M.rows, M.ring)
            self.V = ExactMatrix.identity(M.cols, M.ring)
            self.diag = []
        self.rank = sum(1 for d in self.diag if d != 0)

    def solve(self, b: Sequence) -> Optional[list]:
        """Coefficients x with Mx = b, or None if b is not in the image:
        `solve_many` on the one column b."""
        B = np.empty((len(b), 1), dtype=object)
        B[:, 0] = b
        return self.solve_many(ExactMatrix(self.ring, B))[0]

    def solve_many(self, B: ExactMatrix) -> List[Optional[list]]:
        """Coefficients x with Mx = b for every column b of B, or None for
        a column outside the image; the one solve path for both rings.

        With D = U M V, the rows of U B past the rank must vanish and the
        first `rank` rows must be divisible by the nonzero diagonal of D (a
        prefix of it; all ones over QQ).  V maps the quotients back.  Both
        tests are exact, so None means b is not in the image."""
        if B.rows != self.M.rows:
            raise ValueError("rhs length mismatch")
        r = self.rank
        C = (self.U @ B).data
        ok = ~(C[r:] != 0).any(axis=0)
        Y = ExactMatrix.zeros(self.M.cols, B.cols, self.ring)
        if r and B.cols:
            d = np.array(self.diag[:r], dtype=object)[:, None]
            if (d != 1).any():
                ok &= ~(C[:r] % d != 0).any(axis=0)
                C[:r] //= d
            Y.data[:r] = C[:r]
        X = self.V @ Y
        return [X.col(j) if ok[j] else None for j in range(B.cols)]


def inverse(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse; over ZZ requires M unimodular.

    M is invertible exactly when D = U M V is the identity (the Smith
    diagonal is 1 on its rank prefix over QQ and >= 0 over ZZ), and then
    the inverse is V U.
    """
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    if M.rows == 0:
        return ExactMatrix.zeros(0, 0, M.ring)
    U, V, _, diag = _snf_any(M, transforms=True)
    if any(d != 1 for d in diag):
        raise ValueError("matrix is not invertible over the ring")
    return V @ U


def determinant(M: ExactMatrix):
    """Exact determinant (fraction-free Bareiss over ZZ)."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n = M.rows
    if n == 0:
        return M.ring.element(1)
    a = [[x for x in row] for row in M.tolist()]
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
                if M.ring.is_field:
                    a[i][j] = num / prev
                else:
                    a[i][j] = num // prev
        prev = a[k][k]
    return M.ring.element(sign) * a[n - 1][n - 1]


class SubquotientModule:
    """Presentation of span(kernel_gens) / span(image_gens).

    betti/torsion are the module invariants; `lift` holds cocycle
    representatives of a basis of the free part, as ambient columns.
    """

    def __init__(self, solver: PresolvedSolver, rel_snf: SnfResult):
        ring = self.ring = solver.ring
        self._K = solver.M
        self._Usolve = solver
        diag = rel_snf.diagonal()
        k = self._K.cols
        self._r = sum(1 for d in diag if d != 0)
        self._diag = diag
        self._U = rel_snf.U
        self._Uinv = inverse(rel_snf.U) if k else ExactMatrix.zeros(0, 0, ring)
        self.betti = k - self._r
        self.torsion = [d for d in diag[:self._r] if d != 1]
        free_cols = self._Uinv.take_cols(range(self._r, k))
        self.lift = self._K @ free_cols
        self._proj: Optional[ExactMatrix] = None

    @property
    def is_zero(self) -> bool:
        return self.betti == 0 and not self.torsion

    def coordinates(self, x: Sequence):
        """Free-part and torsion coordinates of the class of x.

        Raises ValueError("not a cocycle") when x is outside the kernel span.
        """
        c = self._Usolve.solve(x)
        if c is None:
            raise ValueError("not a cocycle")
        y = self._U.matvec(c)
        free = y[self._r:]
        tors = [y[i] % self._diag[i]
                for i in range(self._r) if self._diag[i] != 1]
        return free, tors

    def projection_matrix(self) -> ExactMatrix:
        """Matrix sending an ambient cocycle to its free-part coordinates.

        Exists when the kernel basis spans a saturated lattice (always the
        case for kernels of integer matrices); applying it to a vector
        outside the kernel span is undefined, so callers must know their
        input is a cocycle.
        """
        if self._proj is None:
            s = self._Usolve
            rk = s.rank
            if rk < self._K.cols or any(d != 1 for d in s.diag[:rk]):
                raise ValueError("kernel basis is not saturated; "
                                 "no exact projection matrix")
            solve_mat = s.V.take_cols(range(rk)) @ s.U.take_rows(range(rk))
            free_rows = self._U.take_rows(range(self._r, self._K.cols))
            self._proj = free_rows @ solve_mat
        return self._proj


def subquotient(kernel_gens: ExactMatrix, image_gens: ExactMatrix) -> SubquotientModule:
    """Invariants and representatives of span(kernel_gens)/span(image_gens)."""
    ring = kernel_gens.ring
    solver = PresolvedSolver(kernel_gens)
    rel = np.empty((kernel_gens.cols, image_gens.cols), dtype=object)
    for j, c in enumerate(solver.solve_many(image_gens)):
        if c is None:
            raise ValueError("image not contained in kernel")
        rel[:, j] = c
    # the module keeps the solver: free the int views its one solve cached
    for m in (solver.U, solver.V):
        m._i64 = m._scaled = None
    U, V, D, _ = _snf_any(ExactMatrix(ring, rel), transforms=True)
    return SubquotientModule(solver, SnfResult(U=U, D=D, V=V))


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _vec_axpy(dst: dict, src: dict, c):
    if c == 0:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w == 0:
            dst.pop(k, None)
        else:
            dst[k] = w


class ColumnLattice:
    """Column span over the ring in echelon form, with membership queries.

    Vectors are sparse dicts {row: value}.  Each inserted generator carries a
    coordinate dict so that membership queries can report coordinates in the
    original generators.  Over ZZ membership means exact lattice membership,
    not rational span membership.

    `reduce` is the one reduction against the echelon columns; the
    coordinate queries read its result.  When every pivot is a unit,
    `split_projection` gives the matrix that projects along the lattice onto
    the coordinate directions away from the pivot rows, so quotients by the
    lattice (dg quotients, representation cokernels) are matrix algebra.
    """

    def __init__(self, ring: CoeffRing):
        self.ring = ring
        self.cols: list = []  # (pivot_row, vec dict, coords dict), sorted
        self.ngens = 0

    @property
    def rank(self) -> int:
        return len(self.cols)

    def add(self, vec: dict, coord_key=None) -> bool:
        """Insert a generator; returns True when the lattice grew.

        Each stored column keeps coordinates expressing it as a combination
        of the original generators, so coordinate queries stay exact.
        """
        key = coord_key if coord_key is not None else self.ngens
        self.ngens += 1
        vec = {k: self.ring.element(v) for k, v in vec.items() if v != 0}
        coords = {key: self.ring.element(1)}  # vec == sum coords[g] * gen_g
        grew = False
        field = self.ring.is_field
        while vec:
            pr = min(vec)
            idx = None
            for s, (r0, _, _) in enumerate(self.cols):
                if r0 == pr:
                    idx = s
                    break
                if r0 > pr:
                    break
            if idx is None:
                pos = 0
                while pos < len(self.cols) and self.cols[pos][0] < pr:
                    pos += 1
                self.cols.insert(pos, (pr, vec, coords))
                return True
            r0, cvec, ccoords = self.cols[idx]
            p = cvec[pr]
            c = vec[pr]
            if field:
                q = c / p
                _vec_axpy(vec, cvec, -q)
                _vec_axpy(coords, ccoords, -q)
                continue
            q, r = divmod(c, p)
            if r == 0:
                _vec_axpy(vec, cvec, -q)
                _vec_axpy(coords, ccoords, -q)
                continue
            # combine columns so the pivot becomes gcd(p, c); the 2x2 change
            # of generators [[x, y], [-c/g, p/g]] has determinant 1
            g, x, y = _xgcd(p, c)
            newvec = {}
            _vec_axpy(newvec, cvec, x)
            _vec_axpy(newvec, vec, y)
            newco = {}
            _vec_axpy(newco, ccoords, x)
            _vec_axpy(newco, coords, y)
            restvec = {}
            _vec_axpy(restvec, vec, p // g)
            _vec_axpy(restvec, cvec, -(c // g))
            restco = {}
            _vec_axpy(restco, coords, p // g)
            _vec_axpy(restco, ccoords, -(c // g))
            self.cols[idx] = (pr, newvec, newco)
            vec, coords = restvec, restco
            grew = True
        return grew

    def reduce(self, vec: dict) -> Optional[tuple]:
        """(remainder, {echelon column index: multiple taken off}), or None
        when over ZZ a pivot does not divide the entry it meets.  The
        remainder is zero at every pivot row."""
        v = {k: self.ring.element(x) for k, x in vec.items() if x != 0}
        out: dict = {}
        field = self.ring.is_field
        for idx, (pr, cvec, _) in enumerate(self.cols):
            c = v.get(pr)
            if not c:
                continue
            p = cvec[pr]
            if field:
                q = c / p
            else:
                q, r = divmod(c, p)
                if r != 0:
                    return None
            out[idx] = q
            _vec_axpy(v, cvec, -q)
        return v, out

    def contains(self, vec: dict) -> bool:
        return self.echelon_coordinates(vec) is not None

    def echelon_coordinates(self, vec: dict) -> Optional[dict]:
        """Coordinates of vec in the echelon basis columns, or None."""
        red = self.reduce(vec)
        return None if red is None or red[0] else red[1]

    def coordinates(self, vec: dict) -> Optional[dict]:
        """Coordinates of vec in the original generators, or None."""
        co = self.echelon_coordinates(vec)
        if co is None:
            return None
        coords: dict = {}
        for idx, q in co.items():
            _vec_axpy(coords, self.cols[idx][2], q)
        return coords

    def split_projection(self, dim: int) -> Tuple[list, ExactMatrix]:
        """(kept rows, P): the rows of R^dim away from the pivots, and P,
        of shape len(kept) x dim, sending v to the kept entries of its
        remainder.  Raises ValueError("pivot p") at the first pivot p that
        is not a unit, which over ZZ is when the quotient has torsion."""
        field = self.ring.is_field
        pivots = set()
        for pr, cvec, _ in self.cols:
            if not field and cvec[pr] not in (1, -1):
                raise ValueError(f"pivot {cvec[pr]}")
            pivots.add(pr)
        kept = [i for i in range(dim) if i not in pivots]
        pos = {i: k for k, i in enumerate(kept)}
        P = ExactMatrix.zeros(len(kept), dim, self.ring)
        for j in range(dim):
            for i, c in self.reduce({j: 1})[0].items():
                P.data[pos[i], j] = c
        return kept, P

    def basis_vectors(self) -> list:
        return [dict(c[1]) for c in self.cols]
