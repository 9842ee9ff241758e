"""Exact sparse linear algebra over the integers and the rationals.

Everything downstream (complexes, quiver representations, dg algebras) is
built on the primitives in this module: Smith normal form with unimodular
transforms, saturated kernel lattices, exact solving, and presentations of
subquotient modules ker/im.

An `ExactMatrix` stores its nonzero entries by column, {j: {i: x}}, as
Python ints over Z (so there is no fixed-width overflow) and as
`fractions.Fraction` values over Q.  The matrices met here are
incidence-like and almost all zero, so every operation walks the stored
entries only:

- Products (`ExactMatrix.__matmul__` and `matvec`) multiply each stored
  entry of the right operand into one stored column of the left operand,
  as in LinBox's sparse black-box products (Dumas et al. 2002, "LinBox: A
  Generic Library for Exact Linear Algebra"); sums, stacks and slices
  move stored entries only.
- Smith reduction is the one dense step, and the only place numpy is used:
  `_smith_reduce` densifies its input onto int64 arrays with explicit
  growth bounds, restarts on Python ints if a bound is ever at risk, and
  hands U and V back sparse.  Over Q each row is scaled to integers by the
  lcm of its denominators first, and the invariant factors are divided out
  of U as it is converted back.
- Sparse elimination of +-1 pivots of least Markowitz cost on a
  dict-of-rows copy (`eliminate_unit_pivots`) runs before the dense
  engine: invariant factors and ranks split off one factor 1 per pivot,
  and `chain_complex.cohomology` reduces a whole complex to its core.  The
  core is usually small or empty.  The other transforms (`kernel_basis`,
  `PresolvedSolver`, `inverse`, a direct `subquotient`) stay on the dense
  engine.  Hom spaces of thin representations skip `kernel_basis`
  altogether: see `quiver_rep.hom_space`, which solves them by a signed
  union-find.
- Solving (`PresolvedSolver.solve_many`, which `solve` and `subquotient`
  call) is two products with the Smith transforms and one exact
  divisibility check.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

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
            if type(x) is int:
                return x
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                return int(x)
            return int(x)
        return x if type(x) is Fraction else Fraction(x)

    def __repr__(self):
        return "ZZ" if self.kind == "integers" else "QQ"

    def __eq__(self, other):
        return isinstance(other, CoeffRing) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)


ZZ = CoeffRing("integers")
QQ = CoeffRing("rationals")


class ExactMatrix:
    """Immutable sparse matrix over a CoeffRing.

    `columns` holds the nonzero entries by column, {j: {i: x}}, with ints
    over ZZ and Fractions over QQ; no stored entry is zero and no stored
    column is empty.  It and the row view `by_rows()` are the readers, and
    nobody mutates them.  Every other read (`m[i, j]`, `col`, `tolist`,
    `entries`) gives ring.element(0) where nothing is stored.  Matrices are
    built by `from_entries` (or `from_rows`, `zeros`, `identity`); all
    arithmetic is exact and returns new matrices.  Stored columns may be
    shared between matrices.
    """

    __slots__ = ("ring", "rows", "cols", "columns")

    # bench/spans.py::_matmul_path still reads the int64 view that products
    # used to cache on their operands; there is none, so every product
    # counts as one on Python ints.  Kept until the next benchmark change.
    _i64 = None

    def __init__(self, ring: CoeffRing, rows: int, cols: int, columns: dict):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.columns = columns

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple],
                     ring: CoeffRing = ZZ) -> "ExactMatrix":
        """The rows x cols matrix whose (i, j) entry is the sum of the x,
        coerced into the ring, of the given (i, j, x)."""
        store: dict = {}
        element = ring.element
        for i, j, x in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {(rows, cols)}")
            if x:
                x = element(x)
                col = store.setdefault(j, {})
                x += col.get(i, 0)
                if x:
                    col[i] = x
                elif i in col:
                    del col[i]
        return cls(ring, rows, cols, {j: c for j, c in store.items() if c})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ring: CoeffRing = ZZ,
                  cols: Optional[int] = None) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else (cols if cols is not None else 0)
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls.from_entries(nrows, ncols, (
            (i, j, ring.element(x)) for i, row in enumerate(rows)
            for j, x in enumerate(row)), ring)

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: CoeffRing = ZZ) -> "ExactMatrix":
        return cls(ring, rows, cols, {})

    @classmethod
    def identity(cls, n: int, ring: CoeffRing = ZZ) -> "ExactMatrix":
        one = ring.element(1)
        return cls(ring, n, n, {i: {i: one} for i in range(n)})

    # -- shape / access -------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def by_rows(self) -> dict:
        """The nonzero entries by row, {i: {j: x}}."""
        out: dict = {}
        for j, col in self.columns.items():
            for i, x in col.items():
                out.setdefault(i, {})[j] = x
        return out

    @property
    def entries(self) -> list:
        """Entries in row-major order."""
        return [x for row in self.tolist() for x in row]

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside {self.shape}")
        x = self.columns.get(j, {}).get(i)
        return self.ring.element(0) if x is None else x

    def col(self, j: int) -> list:
        out = [self.ring.element(0)] * self.rows
        for i, x in self.columns.get(j, {}).items():
            out[i] = x
        return out

    def tolist(self) -> list:
        zero = self.ring.element(0)
        out = [[zero] * self.cols for _ in range(self.rows)]
        for j, col in self.columns.items():
            for i, x in col.items():
                out[i][j] = x
        return out

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        return self.take_cols(cols).take_rows(rows)

    def take_cols(self, cols: Sequence[int]) -> "ExactMatrix":
        out = {}
        for k, j in enumerate(cols):
            if not 0 <= j < self.cols:
                raise IndexError(f"column {j} outside {self.cols} columns")
            col = self.columns.get(j)
            if col:
                out[k] = col
        return ExactMatrix(self.ring, self.rows, len(cols), out)

    def take_rows(self, rows: Sequence[int]) -> "ExactMatrix":
        where: dict = {}
        for k, i in enumerate(rows):
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} outside {self.rows} rows")
            where.setdefault(i, []).append(k)
        out = {}
        for j, col in self.columns.items():
            kept = {k: x for i, x in col.items() for k in where.get(i, ())}
            if kept:
                out[j] = kept
        return ExactMatrix(self.ring, len(rows), self.cols, out)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "ExactMatrix"):
        if self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        left = self.columns
        out = {}
        for j, bcol in other.columns.items():
            acc: dict = {}
            get = acc.get
            for k, b in bcol.items():
                acol = left.get(k)
                if acol:
                    for i, a in acol.items():
                        acc[i] = get(i, 0) + a * b
            col = {i: x for i, x in acc.items() if x}
            if col:
                out[j] = col
        return ExactMatrix(self.ring, self.rows, other.cols, out)

    def _plus(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        self._check_ring(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} and {other.shape}")
        entries = [(i, j, x) for j, col in self.columns.items()
                   for i, x in col.items()]
        entries += [(i, j, -x if sign < 0 else x)
                    for j, col in other.columns.items() for i, x in col.items()]
        return ExactMatrix.from_entries(self.rows, self.cols, entries,
                                        self.ring)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = self.ring.element(c)
        if not c:
            return ExactMatrix.zeros(self.rows, self.cols, self.ring)
        return ExactMatrix(self.ring, self.rows, self.cols, {
            j: {i: x * c for i, x in col.items()}
            for j, col in self.columns.items()})

    def matvec(self, v: Sequence) -> list:
        if self.cols != len(v):
            raise ValueError("shape mismatch in matvec")
        return (self @ ExactMatrix.from_entries(len(v), 1, (
            (j, 0, x) for j, x in enumerate(v)), self.ring)).col(0)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.columns

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.ring == other.ring
                and self.shape == other.shape
                and self.columns == other.columns)

    def __repr__(self):
        return f"ExactMatrix({self.ring}, {self.tolist()})"

    @staticmethod
    def hstack(mats: Sequence["ExactMatrix"], rows: Optional[int] = None,
               ring: CoeffRing = ZZ) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zeros(rows or 0, 0, ring)
        r = mats[0].rows
        out = {}
        at = 0
        for m in mats:
            if m.rows != r:
                raise ValueError("hstack row mismatch")
            for j, col in m.columns.items():
                out[at + j] = col
            at += m.cols
        return ExactMatrix(mats[0].ring, r, at, out)

    @staticmethod
    def vstack(mats: Sequence["ExactMatrix"], cols: Optional[int] = None,
               ring: CoeffRing = ZZ) -> "ExactMatrix":
        mats = list(mats)
        if not mats:
            return ExactMatrix.zeros(0, cols or 0, ring)
        c = mats[0].cols
        out: dict = {}
        at = 0
        for m in mats:
            if m.cols != c:
                raise ValueError("vstack col mismatch")
            for j, col in m.columns.items():
                out.setdefault(j, {}).update(
                    (at + i, x) for i, x in col.items())
            at += m.rows
        return ExactMatrix(mats[0].ring, at, c, out)


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
        U = np.identity(m, dtype=object)
        V = np.identity(n, dtype=object)
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


def _dense(M: ExactMatrix, dtype) -> np.ndarray:
    """The integer matrix M as an array of the given dtype."""
    a = np.zeros(M.shape, dtype=dtype)
    for j, col in M.columns.items():
        for i, x in col.items():
            a[i, j] = x
    return a


def _prepare_int64(M: ExactMatrix) -> Optional[np.ndarray]:
    """M as an int64 array, or None when an entry reaches 2**40."""
    if any(abs(x) >= 2 ** 40 for col in M.columns.values()
           for x in col.values()):
        return None
    return _dense(M, np.int64)


def _from_dense(a: np.ndarray, ring: CoeffRing,
                den: Optional[list] = None) -> ExactMatrix:
    """The integer array a as a matrix over ring; over QQ each entry of row
    i becomes the Fraction x / den[i] (x / 1 without den)."""
    rs, cs = np.nonzero(a)
    rs, cs, xs = rs.tolist(), cs.tolist(), a[rs, cs].tolist()
    if ring.is_field:
        xs = [Fraction(x, den[i] if den else 1) for i, x in zip(rs, xs)]
    cols: dict = {}
    for i, j, x in zip(rs, cs, xs):
        cols.setdefault(j, {})[i] = x
    return ExactMatrix(ring, a.shape[0], a.shape[1], cols)


def eliminate_unit_pivots(M: ExactMatrix, record: Optional[list] = None,
                          keep=None) -> Tuple[int, dict, dict]:
    """(k, rows, cols): M after the elimination of k +-1 pivots, as a dict
    of rows {col: x} of its nonzero entries plus the set of rows of each
    column.  With `keep`, only the columns j in keep are read; the others
    count as zero.

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
    for j, col in M.columns.items():
        if keep is None or j in keep:
            cols[j] = set(col)
            for i, x in col.items():
                rows.setdefault(i, {})[j] = x
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


def _unit_pivot_core(M: ExactMatrix) -> Tuple[int, ExactMatrix]:
    """(k, C) with SNF(M) = diag(1, ..., 1) (+) SNF(C) and k ones, for the
    integer matrix M: `eliminate_unit_pivots` splits off one invariant
    factor 1 per pivot.  C holds the rows and columns that keep a nonzero
    entry.
    """
    k, rows, cols = eliminate_unit_pivots(M)
    rpos = {i: t for t, i in enumerate(sorted(rows))}
    cpos = {c: t for t, c in enumerate(sorted(c for c, rs in cols.items()
                                              if rs))}
    core: dict = {}
    for i, row in rows.items():
        for c, x in row.items():
            core.setdefault(cpos[c], {})[rpos[i]] = x
    return k, ExactMatrix(ZZ, len(rpos), len(cpos), core)


def _smith_reduce(M: ExactMatrix, transforms: bool):
    """(U, V, reduced matrix, diag) of the integer matrix M by `_snf_core`,
    as arrays: on int64 while the growth bounds hold, on Python ints after
    an overflow restart."""
    a = _prepare_int64(M)
    if a is not None:
        try:
            U, V, diag = _snf_core(a, transforms)
            return U, V, a, [int(d) for d in diag]
        except _Overflow:
            pass
    a = _dense(M, object)
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
        by_row = M.by_rows()
        s = [math.lcm(*(x.denominator for x in by_row.get(i, {}).values()))
             for i in range(M.rows)]
        M = ExactMatrix(ZZ, M.rows, M.cols, {
            j: {i: x.numerator * (s[i] // x.denominator)
                for i, x in col.items()}
            for j, col in M.columns.items()})
    if not transforms:
        k, core = _unit_pivot_core(M)
        factors = [1] * k
        if core.rows:
            factors += [d for d in _smith_reduce(core, False)[3] if d != 0]
        return None, None, None, (
            [Fraction(1)] * len(factors) if field else factors)
    U, V, a, diag = _smith_reduce(M, True)
    if not field:
        return (_from_dense(U, ZZ), _from_dense(V, ZZ), _from_dense(a, ZZ),
                diag)
    r = sum(1 for d in diag if d != 0)
    one = Fraction(1)
    D = ExactMatrix(QQ, M.rows, M.cols, {i: {i: one} for i in range(r)})
    U = _from_dense(U * np.array(s, dtype=object)[None, :], QQ,
                    [diag[i] if i < r else 1 for i in range(M.rows)])
    return U, _from_dense(V, QQ), D, [D[i, i] for i in range(len(diag))]


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
            self.U, self.V, _, self.diag = _snf_any(M, transforms=True)
        else:
            self.U = ExactMatrix.identity(M.rows, M.ring)
            self.V = ExactMatrix.identity(M.cols, M.ring)
            self.diag = []
        self.rank = sum(1 for d in self.diag if d != 0)

    def solve(self, b: Sequence) -> Optional[list]:
        """Coefficients x with Mx = b, or None if b is not in the image:
        `solve_many` on the one column b."""
        B = ExactMatrix.from_entries(len(b), 1, (
            (i, 0, x) for i, x in enumerate(b)), self.ring)
        return self.solve_many(B)[0]

    def solve_many(self, B: ExactMatrix) -> List[Optional[list]]:
        """Coefficients x with Mx = b for every column b of B, or None for
        a column outside the image; the one solve path for both rings.

        With D = U M V, the rows of U B past the rank must vanish and the
        first `rank` rows must be divisible by the nonzero diagonal of D (a
        prefix of it; all ones over QQ).  V maps the quotients back.  Both
        tests are exact, so None means b is not in the image."""
        if B.rows != self.M.rows:
            raise ValueError("rhs length mismatch")
        r, diag = self.rank, self.diag
        ok = [True] * B.cols
        Y = {}
        for j, col in (self.U @ B).columns.items():
            y = {}
            for i, x in col.items():
                if i >= r:
                    break
                d = diag[i]
                if d != 1:
                    x, rem = divmod(x, d)
                    if rem:
                        break
                y[i] = x
            else:
                Y[j] = y
                continue
            ok[j] = False
        X = self.V @ ExactMatrix(self.ring, self.M.cols, B.cols, Y)
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
    sols = solver.solve_many(image_gens)
    if None in sols:
        raise ValueError("image not contained in kernel")
    rel = ExactMatrix.from_entries(kernel_gens.cols, image_gens.cols, (
        (i, j, x) for j, c in enumerate(sols) for i, x in enumerate(c)), ring)
    U, V, D, _ = _snf_any(rel, transforms=True)
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
        return kept, ExactMatrix.from_entries(len(kept), dim, (
            (pos[i], j, c) for j in range(dim)
            for i, c in self.reduce({j: 1})[0].items()), self.ring)

    def basis_vectors(self) -> list:
        return [dict(c[1]) for c in self.cols]
