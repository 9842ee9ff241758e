"""Exact sparse linear algebra over the integers and the rationals.

Everything downstream (complexes, quiver representations, dg algebras) is
built on the primitives in this module: Smith normal form with unimodular
transforms, saturated kernel lattices and exact solving.

An `ExactMatrix` stores its nonzero entries by column, {j: {i: x}}, as
Python ints (so there is no fixed-width overflow); over Q a value with a
denominator is a `fractions.Fraction` and an integral one stays an int, as
in FLINT's fmpz/fmpq (Hart 2010), so integral data run on int arithmetic.
The matrices met here are incidence-like and almost all zero, so every
operation walks the stored entries only:

- Products (`ExactMatrix.__matmul__` and `matvec`) multiply each stored
  entry of the right operand into one stored column of the left operand,
  as in LinBox's sparse black-box products (Dumas et al. 2002, "LinBox: A
  Generic Library for Exact Linear Algebra"); sums and slices
  move stored entries only.
- Smith reduction (`_snf_core`) is sparse too: it eliminates on a dict of
  rows of Python ints, so there are no growth bounds, no overflow restart
  and no numpy, and it hands U back by rows and V by columns.  Over Q each
  row is scaled to integers by the lcm of its denominators first, and the
  invariant factors are divided out of U as it is converted back.
- Sparse elimination of +-1 pivots of least Markowitz cost on a
  dict-of-rows copy (`eliminate_unit_pivots`) runs before the Smith
  engine: invariant factors and ranks split off one factor 1 per pivot,
  and `chain_complex.cohomology` reduces a whole complex to its core.
  Every Smith transform is read from a `PresolvedSolver`: kernels
  (`kernel_basis`, trailing columns of V) and the cohomology of the
  reduced core (`chain_complex.CohomologyModule`).
- Every solve with a unique answer (`inverse`, and `lattice_solve`, which
  also reads the Hom coordinates of `quiver_rep.hom_coordinates` on pairs
  whose generator the union-find does not give) reads coordinates in a
  `ColumnLattice`.  `ColumnLattice.reduce` is the one reduction of a
  vector against echelon pivots: queries read it, and `add` inserts
  through it.  Hom spaces of thin representations need no kernel: see
  `quiver_rep.hom_space`.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple


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
        """x in the ring: an int, or over QQ a Fraction when x is not
        integral.  A float raises TypeError, since it may be rounded."""
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator
            if self.kind == "integers":
                raise ValueError(f"{x} is not an integer")
            return x
        return operator.index(x)

    def div(self, a, b):
        """The exact quotient a / b, an int when it is integral; over ZZ, b
        must divide a."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            if not r:
                return q
            if self.kind == "integers":
                raise ValueError(f"{b} does not divide {a}")
            return Fraction(a, b)
        q = a / b
        return q.numerator if q.denominator == 1 else q

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

    `columns` holds the nonzero entries by column, {j: {i: x}}: ints, and
    over QQ also Fractions, which arithmetic may leave integral; no stored
    entry is zero and no stored column is empty.  It and the row view
    `by_rows()` are the readers, and nobody mutates them.  Every other read
    (`m[i, j]`, `col`, `tolist`, `entries`) gives ring.element(0), the int
    0, where nothing is stored.  Matrices are built by `from_entries` (or
    `from_rows`, `zeros`, `identity`); all arithmetic is exact and returns
    new matrices.  Stored columns may be shared between matrices.
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


class SnfResult(NamedTuple):
    """Smith decomposition D = U @ M @ V with U, V unimodular."""

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix

    def diagonal(self) -> list:
        n = min(self.D.rows, self.D.cols)
        return [self.D[i, i] for i in range(n)]


def _snf_core(rows: dict, m: int, n: int, transforms: bool):
    """Smith reduction of the m x n integer matrix whose nonzero entries
    are `rows`, {i: {j: x}} of Python ints with no empty row, reduced in
    place.  Returns (U, V, diag) with diag the diagonal of D = U M V, U by
    rows {i: {k: x}} and V by columns {j: {k: x}}; without transforms, U
    and V are None.

    Sparse elimination on the stored entries (Dumas, Saunders and Villard
    2001): there is no fixed-width arithmetic, so no growth bounds and
    nothing to restart.  At step t the pivot is the entry of least |x| in
    the trailing block, the first in row-major order among equals, so a
    +-1 in row t wins without a scan.  Row operations with floor-division
    quotients clear the pivot's column, then column operations its row; a
    remainder left in either is re-picked as the next pivot.  When the
    pivot p does not divide the rest of the block, the first row with an
    entry that p does not divide is added to the pivot row and the step
    starts again, so that d_1 | d_2 | ....
    """
    U = {i: {i: 1} for i in range(m)} if transforms else None
    V = {j: {j: 1} for j in range(n)} if transforms else None
    diag = []
    t = 0
    while t < min(m, n) and rows:
        units = [j for j, x in rows.get(t, {}).items() if x == 1 or x == -1]
        if units:  # row t is the first row of the block
            i, j = t, min(units)
        else:
            _, i, j = min((abs(x), i, j) for i, row in rows.items()
                          for j, x in row.items())
        if i != t:
            pivot, other = rows.pop(i), rows.pop(t, None)
            rows[t] = pivot
            if other:
                rows[i] = other
            if transforms:
                U[t], U[i] = U[i], U[t]
        if j != t:
            for row in rows.values():
                x, y = row.pop(t, None), row.pop(j, None)
                if y is not None:
                    row[t] = y
                if x is not None:
                    row[j] = x
            if transforms:
                V[t], V[j] = V[j], V[t]
        pivot = rows[t]
        if pivot[t] < 0:
            for c in pivot:
                pivot[c] = -pivot[c]
            if transforms:
                U[t] = {k: -x for k, x in U[t].items()}
        p = pivot[t]
        below = [r for r, row in rows.items() if r != t and t in row]
        for r in below:
            row = rows[r]
            q = row[t] // p
            if q:
                _vec_axpy(row, pivot, -q)
                if transforms:
                    _vec_axpy(U[r], U[t], -q)
                if not row:
                    del rows[r]
        if any(t in rows.get(r, ()) for r in below):
            continue  # remainders < p; re-pick the pivot
        for c, x in list(pivot.items()):
            q, rest = divmod(x, p)
            if c != t and q:
                if rest:
                    pivot[c] = rest
                else:
                    del pivot[c]
                if transforms:
                    _vec_axpy(V[c], V[t], -q)
        if len(pivot) > 1:
            continue
        if p != 1:
            bad = min((r for r, row in rows.items()
                       if r != t and any(x % p for x in row.values())),
                      default=None)
            if bad is not None:
                _vec_axpy(pivot, rows[bad], 1)
                if transforms:
                    _vec_axpy(U[t], U[bad], 1)
                continue
        diag.append(p)
        del rows[t]
        t += 1
    return U, V, diag + [0] * (min(m, n) - len(diag))


def _matrix(entries: Iterable[tuple], rows: int, cols: int, ring: CoeffRing,
            den: Optional[list] = None) -> ExactMatrix:
    """The nonzero integer entries (i, j, x) as a rows x cols matrix over
    ring, stored in row-major order; with den (over QQ) entry x of row i
    becomes ring.div(x, den[i])."""
    out: dict = {}
    for i, j, x in sorted(entries):
        out.setdefault(j, {})[i] = ring.div(x, den[i]) if den else x
    return ExactMatrix(ring, rows, cols, out)


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


def _unit_pivot_core(M: ExactMatrix) -> Tuple[int, dict, int, int]:
    """(k, C, r, c) with SNF(M) = diag(1, ..., 1) (+) SNF(C) and k ones,
    for the integer matrix M: `eliminate_unit_pivots` splits off one
    invariant factor 1 per pivot.  C is the r x c core by rows, on the rows
    and columns that keep a nonzero entry.
    """
    k, rows, cols = eliminate_unit_pivots(M)
    rpos = {i: t for t, i in enumerate(sorted(rows))}
    cpos = {c: t for t, c in enumerate(sorted(c for c, rs in cols.items()
                                              if rs))}
    core = {rpos[i]: {cpos[c]: x for c, x in row.items()}
            for i, row in rows.items()}
    return k, core, len(rpos), len(cpos)


def _snf_any(M: ExactMatrix, transforms: bool):
    """(U, V, D, diag) with D = U M V, by `_snf_core` on Python ints.

    Over QQ row i is first scaled to integers by the lcm s_i of its
    denominators (s = 1 and the same columns when every entry is an int;
    an integral Fraction left by arithmetic takes the scaling path).  With
    D' = U' (S M) V over ZZ, the result is U = E U' S and D = E D' =
    diag(1, ..., 1, 0, ...), where E = diag(1/d_i) on the nonzero invariant
    factors d_i of D'; an entry is an int when integral and a Fraction
    otherwise, and D holds the int 1.

    Without transforms the result is (None, None, None, factors), with
    factors the nonzero invariant factors (over QQ, one 1 per unit of
    rank).  The integer matrix then goes through
    `_unit_pivot_core` first, and only its residual core reaches
    `_snf_core`.
    """
    field = M.ring.is_field
    if field and all(type(x) is int for col in M.columns.values()
                     for x in col.values()):
        s = [1] * M.rows
        M = ExactMatrix(ZZ, M.rows, M.cols, M.columns)
    elif field:
        by_row = M.by_rows()
        s = [math.lcm(*(x.denominator for x in by_row.get(i, {}).values()))
             for i in range(M.rows)]
        M = ExactMatrix(ZZ, M.rows, M.cols, {
            j: {i: x.numerator * (s[i] // x.denominator)
                for i, x in col.items()}
            for j, col in M.columns.items()})
    if not transforms:
        k, core, r, c = _unit_pivot_core(M)
        factors = [1] * k + [d for d in _snf_core(core, r, c, False)[2] if d]
        return None, None, None, [1] * len(factors) if field else factors
    U, V, diag = _snf_core(M.by_rows(), M.rows, M.cols, True)
    r = sum(1 for d in diag if d != 0)
    V = _matrix(((k, j, x) for j, col in V.items() for k, x in col.items()),
                M.cols, M.cols, QQ if field else ZZ)
    if not field:
        U = _matrix(((i, k, x) for i, row in U.items()
                     for k, x in row.items()), M.rows, M.rows, ZZ)
        D = ExactMatrix(ZZ, M.rows, M.cols,
                        {i: {i: diag[i]} for i in range(r)})
        return U, V, D, diag
    D = ExactMatrix(QQ, M.rows, M.cols, {i: {i: 1} for i in range(r)})
    U = _matrix(((i, k, x * s[k]) for i, row in U.items()
                 for k, x in row.items()), M.rows, M.rows, QQ,
                [diag[i] if i < r else 1 for i in range(M.rows)])
    return U, V, D, [D[i, i] for i in range(len(diag))]


def smith_normal_form(M: ExactMatrix) -> SnfResult:
    """Smith normal form over ZZ: D = U M V, d_1 | d_2 | ..., d_i >= 0."""
    if M.ring.is_field:
        raise ValueError("smith_normal_form requires integer coefficients")
    U, V, D, _ = _snf_any(M, transforms=True)
    return SnfResult(U=U, D=D, V=V)


def invariant_factors(M: ExactMatrix) -> list:
    """Nonzero diagonal of the Smith form, without transforms: +-1 pivots
    are eliminated first and only the residual core reaches `_snf_core`
    (`_unit_pivot_core`)."""
    return _snf_any(M, transforms=False)[3]


def rank(M: ExactMatrix) -> int:
    return len(invariant_factors(M))


def kernel_basis(M: ExactMatrix) -> ExactMatrix:
    """Basis of {x : Mx = 0} as matrix columns.

    Over ZZ the columns generate the full kernel lattice (saturated), via
    the trailing columns of the Smith transform V.
    """
    s = PresolvedSolver(M)
    return s.V.take_cols(range(s.rank, M.cols))


class PresolvedSolver:
    """One Smith decomposition D = U M V (`_snf_any`) with its rank: the
    transforms that kernels and `chain_complex.cohomology` read, and an
    exact solver for Mx = b."""

    def __init__(self, M: ExactMatrix):
        self.M = M
        self.ring = M.ring
        self.U, self.V, _, self.diag = _snf_any(M, transforms=True)
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

    Column j of the inverse is the coordinates of e_j in the lattice of the
    columns of M (`lattice_solve`), and M is invertible over the ring
    exactly when every e_j lies in that lattice.  An identity M, checked
    column by column, is its own inverse and comes back as it is.
    """
    if M.rows != M.cols:
        raise ValueError("inverse of non-square matrix")
    if len(M.columns) == M.cols and all(
            col == {j: 1} for j, col in M.columns.items()):
        return M
    X = lattice_solve(M, ExactMatrix.identity(M.rows, M.ring))
    if X is None:
        raise ValueError("matrix is not invertible over the ring")
    return X


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


def _combine(x, a: dict, y, b: dict) -> dict:
    """x a + y b, without zeros."""
    out: dict = {}
    _vec_axpy(out, a, x)
    _vec_axpy(out, b, y)
    return out


class ColumnLattice:
    """Column span over the ring in echelon form, with membership queries.

    Vectors are sparse dicts {row: value}.  `columns` holds the echelon
    basis by pivot row, {pivot row: (vec dict, coords dict)}: the pivot row
    is the lowest row of vec, and coords express vec as a combination of
    the original generators, so that membership queries can report
    coordinates in them.  Over ZZ membership means exact lattice
    membership, not rational span membership, and every pivot is positive:
    the pivots are then the Hermite diagonal, whatever the insertion order.

    `reduce` is the one reduction against the echelon columns; `add` and
    the coordinate queries read its result.  When every pivot is a unit, the
    coordinate directions away from the pivot rows (`kept_rows`) span a
    complement, and `split_projection` gives the matrix that projects along
    the lattice onto them, so quotients by the lattice (dg quotients,
    representation cokernels) are matrix algebra.
    """

    def __init__(self, ring: CoeffRing):
        self.ring = ring
        self.columns: dict = {}
        self.ngens = 0

    @property
    def rank(self) -> int:
        return len(self.columns)

    def add(self, vec: dict, coord_key=None) -> bool:
        """Insert a generator; returns True when the lattice grew.

        The generator is reduced (`reduce`); a remainder whose lowest row
        has no pivot becomes a new column, and at a pivot p that does not
        divide the entry c it meets, the two columns are combined so that
        the pivot becomes gcd(p, c), and the rest is reduced again.
        """
        key = coord_key if coord_key is not None else self.ngens
        self.ngens += 1
        coords = {key: self.ring.element(1)}  # vec == sum coords[g] * gen_g
        grew = False
        while True:
            vec, out, stuck = self.reduce(vec)
            for pr, q in out.items():
                _vec_axpy(coords, self.columns[pr][1], -q)
            if not vec:
                return grew
            pr = min(vec)
            if pr != stuck:
                self._store(pr, vec, coords)
                return True
            # the 2x2 change of generators [[x, y], [-c/g, p/g]] has
            # determinant 1
            cvec, ccoords = self.columns[pr]
            p, c = cvec[pr], vec[pr]
            g, x, y = _xgcd(p, c)
            self._store(pr, _combine(x, cvec, y, vec),
                        _combine(x, ccoords, y, coords))
            vec, coords = (_combine(p // g, vec, -(c // g), cvec),
                           _combine(p // g, coords, -(c // g), ccoords))
            grew = True

    def _store(self, pr: int, vec: dict, coords: dict):
        if vec[pr] < 0 and not self.ring.is_field:
            vec = {k: -x for k, x in vec.items()}
            coords = {k: -x for k, x in coords.items()}
        self.columns[pr] = (vec, coords)

    def reduce(self, vec: dict) -> tuple:
        """(remainder, {pivot row: multiple taken off}, stuck), with stuck
        the first pivot row whose pivot, over ZZ, does not divide the entry
        it meets, where the reduction stops, or None; the remainder of a
        reduction that does not stop is zero at every pivot row.  Only the
        pivots met are visited, in pivot order: a heap starts with the
        pivot rows of the vector's support and gets those of each column
        taken off."""
        v = {k: self.ring.element(x) for k, x in vec.items() if x != 0}
        out: dict = {}
        field = self.ring.is_field
        columns = self.columns
        heap = [k for k in v if k in columns]
        heapq.heapify(heap)
        queued = set(heap)
        while heap:
            pr = heapq.heappop(heap)
            c = v.get(pr)
            if not c:
                continue
            cvec = columns[pr][0]
            p = cvec[pr]
            if field:
                q = self.ring.div(c, p)
            else:
                q, r = divmod(c, p)
                if r != 0:
                    return v, out, pr
            out[pr] = q
            _vec_axpy(v, cvec, -q)
            for k in cvec:
                if k in columns and k not in queued:
                    queued.add(k)
                    heapq.heappush(heap, k)
        return v, out, None

    def echelon_coordinates(self, vec: dict) -> Optional[dict]:
        """Coordinates of vec in the echelon columns, by pivot row, or
        None."""
        rest, out, _ = self.reduce(vec)
        return None if rest else out

    def coordinates(self, vec: dict) -> Optional[dict]:
        """Coordinates of vec in the original generators, or None."""
        co = self.echelon_coordinates(vec)
        if co is None:
            return None
        coords: dict = {}
        for pr, q in co.items():
            _vec_axpy(coords, self.columns[pr][1], q)
        return coords

    def kept_rows(self, dim: int) -> list:
        """The rows of R^dim away from the pivots: their unit vectors span
        a complement of the lattice.  Raises ValueError("pivot p") at the
        first pivot p that is not a unit, which over ZZ is when the quotient
        has torsion and no such complement exists."""
        if not self.ring.is_field:
            for pr in sorted(self.columns):
                p = self.columns[pr][0][pr]
                if p != 1:
                    raise ValueError(f"pivot {p}")
        return [i for i in range(dim) if i not in self.columns]

    def split_projection(self, dim: int) -> Tuple[list, ExactMatrix]:
        """(kept rows, P): `kept_rows(dim)`, and P, of shape len(kept) x dim,
        sending v to the kept entries of its remainder."""
        kept = self.kept_rows(dim)
        pos = {i: k for k, i in enumerate(kept)}
        return kept, ExactMatrix.from_entries(len(kept), dim, (
            (pos[i], j, c) for j in range(dim)
            for i, c in self.reduce({j: 1})[0].items()), self.ring)

    def basis_vectors(self) -> list:
        """The echelon columns in pivot-row order."""
        return [dict(self.columns[pr][0]) for pr in sorted(self.columns)]


def lattice_solve(G: ExactMatrix, B: ExactMatrix) -> Optional[ExactMatrix]:
    """X with G X = B: the coordinates of each column of B in a
    `ColumnLattice` of the columns of G, or None when one is outside their
    lattice; X is unique when the columns are independent.  Rows are read
    last to first: a Smith kernel column is e_c plus multiples of pivot
    columns left of c, so it usually enters the lattice unreduced."""
    last = G.rows - 1
    lat = ColumnLattice(G.ring)
    for j in range(G.cols):
        lat.add({last - i: x for i, x in G.columns.get(j, {}).items()})
    entries = []
    for j, col in B.columns.items():
        co = lat.coordinates({last - i: x for i, x in col.items()})
        if co is None:
            return None
        entries.extend((i, j, x) for i, x in co.items())
    return ExactMatrix.from_entries(G.cols, B.cols, entries, G.ring)
