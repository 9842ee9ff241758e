"""Finitely generated dg algebras with explicit structure constants.

An algebra stores a graded labeled basis, a unit, a degree +1 differential
per degree, and sparse structure constants per degree pair.  Elements are
(degree, {basis index: coefficient}) pairs.  Sub-algebras, two-sided ideals
and quotients all work with exact lattice membership over the PID, not with
rational span membership, so every verified identity holds integrally.

Single products of sparse elements walk the structure-constant dicts
(`DgAlgebra.multiply`).  Batched products -- every x_s * y_t for the
columns of two matrices, optionally followed by a linear map P -- go through
one bilinear kernel, `DgAlgebra.product_blocks`.  It reads the structure
constants of a degree pair in coordinate form, the arrays (k, i, j, c) of
the nonzero entries e_i * e_j = sum c e_k, built on first use and cached.
With K = P[:, k] * c, the products of column s of X with every column of Y
form one matrix product, (K * X[i, s]) @ Y[j, :].  The arithmetic is on
integers: over Q each operand is first scaled by the least common
denominator of its entries, and each block is divided by the product of
those denominators at the end.  It runs on int64 when
max|P| * max|c| * max|X| * max|Y| * nnz < 2**62 (of the scaled entries), so
that no sum can overflow, and on object dtype (Python ints) otherwise.  The
cohomology product, its perturbed-section re-check, the quotient's
structure constants, the unit, Leibniz and associativity laws of
`validate_dg_algebra`, and the multiplicativity checks of
`DgMorphism.validate` and `verify_formality_chain` all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .chain_complex import (
    ChainComplex,
    ChainMap,
    CohomologyProfile,
    cohomology,
    is_quasi_iso,
    QuasiIsoReport,
)
from .exact_linalg import (
    CoeffRing,
    ColumnLattice,
    ExactMatrix,
    _unscale,
    _vec_axpy,
    integer_scaling,
    inverse,
)

Element = Tuple[int, Dict[int, object]]  # (degree, sparse coefficients)
Table = Dict[Tuple[int, int], dict]      # (i, j) -> {k: c}: e_i * e_j


def _sparse_product(table: Optional[Table], c1: dict, c2: dict) -> dict:
    """Sparse coefficients of x * y under one degree pair's table."""
    out: dict = {}
    if not table:
        return out
    if len(c1) * len(c2) > len(table):
        # dense operands: walking the sparse table is cheaper
        for (i, j), prod in table.items():
            a = c1.get(i)
            if not a:
                continue
            b = c2.get(j)
            if b:
                _vec_axpy(out, prod, a * b)
    else:
        for i, a in c1.items():
            for j, b in c2.items():
                prod = table.get((i, j))
                if prod:
                    _vec_axpy(out, prod, a * b)
    return out


def _table(blocks: Iterator[np.ndarray]) -> Table:
    """{(s, t): {k: v}} for the nonzero entries v = block_s[k, t] of
    `DgAlgebra.product_blocks` output."""
    table: Table = {}
    for s, block in enumerate(blocks):
        ts, ks = np.nonzero(block.T)
        for t, k, v in zip(ts.tolist(), ks.tolist(),
                           block.T[ts, ks].tolist()):
            table.setdefault((s, t), {})[k] = v
    return table


def _sparse_from_list(xs) -> dict:
    return {i: x for i, x in enumerate(xs) if x != 0}


def _dense(coeffs: dict, n: int, ring: CoeffRing) -> list:
    out = [ring.element(0)] * n
    for i, c in coeffs.items():
        out[i] = ring.element(c)
    return out


class DgAlgebra:
    """Graded algebra with labeled basis, structure constants and d."""

    def __init__(self, ring: CoeffRing, dims: Dict[int, int],
                 labels: Dict[int, list], unit: Dict[int, object],
                 diff: Dict[int, ExactMatrix],
                 mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]]):
        self.ring = ring
        self.dims = {q: n for q, n in dims.items() if n}
        self.labels = labels
        self.unit = dict(unit)
        self.diff = {q: d for q, d in diff.items() if d.rows and d.cols}
        self.mult = mult
        self._complex: Optional[ChainComplex] = None
        self._coo_cache: Dict[Tuple[int, int], Optional[tuple]] = {}

    # -- structure access -------------------------------------------------

    def dim(self, q: int) -> int:
        return self.dims.get(q, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def label(self, q: int, i: int):
        ls = self.labels.get(q)
        return ls[i] if ls and i < len(ls) else f"a{q}[{i}]"

    def complex(self) -> ChainComplex:
        if self._complex is None:
            self._complex = ChainComplex(self.ring, dict(self.dims),
                                         dict(self.diff), dict(self.labels))
        return self._complex

    def has_zero_differential(self) -> bool:
        return all(d.is_zero() for d in self.diff.values())

    # -- element operations ------------------------------------------------

    def basis_element(self, q: int, i: int) -> Element:
        return (q, {i: self.ring.element(1)})

    def unit_element(self) -> Element:
        return (0, dict(self.unit))

    def mult_entry(self, q1: int, q2: int, i: int, j: int) -> dict:
        table = self.mult.get((q1, q2))
        if not table:
            return {}
        return table.get((i, j), {})

    def multiply(self, x: Element, y: Element) -> Element:
        (q1, c1), (q2, c2) = x, y
        return (q1 + q2, _sparse_product(self.mult.get((q1, q2)), c1, c2))

    # -- batched products --------------------------------------------------

    def _coo(self, q1: int, q2: int) -> Optional[tuple]:
        """The nonzero structure constants of (q1, q2) as (k, i, j, c, d,
        max|c|): index arrays k, i, j and integers c / d (see
        `integer_scaling`); None when the pair has none.

        Built on first use and cached, so `mult` must not change after the
        first batched product.
        """
        key = (q1, q2)
        if key in self._coo_cache:
            return self._coo_cache[key]
        entries = [(k, i, j, c)
                   for (i, j), prod in (self.mult.get(key) or {}).items()
                   for k, c in prod.items() if c != 0]
        coo = None
        if entries:
            ks, is_, js, cs = zip(*entries)
            k, i, j = (np.array(v, dtype=np.intp) for v in (ks, is_, js))
            if i.max() >= self.dim(q1) or j.max() >= self.dim(q2) or \
                    k.max() >= self.dim(q1 + q2):
                raise ValueError(f"structure constants of ({q1}, {q2}) "
                                 "index past the basis")
            coo = (k, i, j) + integer_scaling(cs)
        self._coo_cache[key] = coo
        return coo

    def product_blocks(self, q1: int, q2: int, X: ExactMatrix,
                       Y: ExactMatrix, P: Optional[ExactMatrix] = None
                       ) -> Iterator[np.ndarray]:
        """For each column x_s of X, the array whose column t is
        P(x_s * y_t), where y_t is column t of Y.

        X and Y hold coordinates in degrees q1 and q2; P (the identity when
        omitted) maps degree q1 + q2 onward.  Over Z the blocks are int64
        arrays when the bound in the module docstring rules out overflow,
        object arrays of ints otherwise; over Q they are object arrays of
        Fractions, except that a block with no product terms is the int64
        zero array.  One block is live at a time: nothing of size
        rows x cols(X) x cols(Y) is built.
        """
        coo = self._coo(q1, q2)
        want = (self.dim(q1), self.dim(q2), self.dim(q1 + q2))
        got = (X.rows, Y.rows, want[2] if P is None else P.cols)
        if got != want:
            raise ValueError(f"products in degrees ({q1}, {q2}) need "
                             f"dims {want}, got {got}")
        rows = want[2] if P is None else P.rows
        zero = np.zeros((rows, Y.cols), dtype=np.int64)
        if coo is None or not (rows and X.cols and Y.cols):
            for _ in range(X.cols):
                yield zero
            return
        k, i, j, c, dc, cmax = coo
        Xd, dx, xmax = X.integer_scaling()
        Yd, dy, ymax = Y.integer_scaling()
        Pd, dp, pmax = (None, 1, 1) if P is None else P.integer_scaling()
        if cmax * xmax * ymax * pmax * len(k) >= 2 ** 62:
            # Python ints cannot overflow
            Xd, Yd, c = (a.astype(object) for a in (Xd, Yd, c))
            if Pd is not None:
                Pd = Pd.astype(object)
        if Pd is None:
            K = np.zeros((rows, len(k)), dtype=c.dtype)
            K[k, np.arange(len(k))] = c
        else:
            K = Pd[:, k] * c
        Yj = Yd[j]
        den = dc * dx * dy * dp
        for s in range(X.cols):
            w = Xd[i, s]
            m = np.flatnonzero(w)
            if not len(m):
                yield zero
                continue
            block = (K[:, m] * w[m]) @ Yj[m]
            yield _unscale(block, den) if self.ring.is_field else block

    def d_element(self, x: Element) -> Element:
        q, c = x
        d = self.diff.get(q)
        out: dict = {}
        if d is not None and c:
            vec = d.matvec(_dense(c, self.dim(q), self.ring))
            out = _sparse_from_list(vec)
        return (q + 1, out)


def algebra_from_products(ring: CoeffRing, basis: Sequence[Tuple[int, str]],
                          unit_terms: Dict[str, object],
                          differentials: Dict[str, Dict[str, object]],
                          products: Dict[Tuple[str, str], Dict[str, object]]
                          ) -> DgAlgebra:
    """Assemble a DgAlgebra from named basis data.

    basis: (degree, label) pairs; unit/differential/product data refer to
    labels.  Anything unspecified is zero.
    """
    dims: Dict[int, int] = {}
    where: Dict[str, Tuple[int, int]] = {}
    labels: Dict[int, list] = {}
    for deg, lab in basis:
        i = dims.get(deg, 0)
        dims[deg] = i + 1
        labels.setdefault(deg, []).append(lab)
        if lab in where:
            raise ValueError(f"duplicate basis label {lab!r}")
        where[lab] = (deg, i)
    unit = {where[lab][1]: ring.element(c) for lab, c in unit_terms.items()}
    diff = {}
    dcols: Dict[int, Dict[int, dict]] = {}
    for lab, image in differentials.items():
        q, j = where[lab]
        col = dcols.setdefault(q, {})
        col[j] = {}
        for tl, c in image.items():
            tq, ti = where[tl]
            if tq != q + 1:
                raise ValueError(f"d({lab}) term {tl} has degree {tq}, "
                                 f"expected {q + 1}")
            col[j][ti] = ring.element(c)
    for q, cols in dcols.items():
        m = ExactMatrix.zeros(dims.get(q + 1, 0), dims[q], ring)
        for j, col in cols.items():
            for i, c in col.items():
                m.data[i, j] = c
        diff[q] = m
    mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]] = {}
    for (la, lb), image in products.items():
        (qa, ia), (qb, ib) = where[la], where[lb]
        entry = {}
        for tl, c in image.items():
            tq, ti = where[tl]
            if tq != qa + qb:
                raise ValueError(f"{la}*{lb} term {tl} has degree {tq}, "
                                 f"expected {qa + qb}")
            entry[ti] = ring.element(c)
        if entry:
            mult.setdefault((qa, qb), {})[(ia, ib)] = entry
    return DgAlgebra(ring, dims, labels, unit, diff, mult)


def _product_matrix(A: DgAlgebra, q1: int, q2: int, eye: dict) -> ExactMatrix:
    """The products e_i * e_j of degrees (q1, q2) as the columns of one
    matrix, column i * dim(q2) + j for the pair (i, j)."""
    d2 = A.dim(q2)
    M = ExactMatrix.zeros(A.dim(q1 + q2), A.dim(q1) * d2, A.ring)
    for i, block in enumerate(A.product_blocks(q1, q2, eye[q1], eye[q2])):
        if block.any():  # skip zero blocks: over Q they are int64
            M.data[:, i * d2:(i + 1) * d2] = block
    return M


def validate_dg_algebra(A: DgAlgebra) -> list:
    """d^2, Leibniz, associativity, unit laws and degree bookkeeping.

    The laws are identities of bilinear maps on `DgAlgebra.product_blocks`:
    1 * e_t and e_s * 1 against the identity; d(e_i * e_j) against
    d(e_i) * e_j + (-1)^q1 e_i * d(e_j); and, with the products of each
    degree pair as the columns of one matrix M(q1, q2), M(q1, q2) * e_k
    against e_i * M(q2, q3).  Failures come in degree order, then basis
    order; associativity in (q1, q2, q3, i, j, k) order.
    """
    problems = []
    ring = A.ring
    for q, d in A.diff.items():
        if d.shape != (A.dim(q + 1), A.dim(q)):
            problems.append(f"differential at degree {q} has shape {d.shape}, "
                            f"expected {(A.dim(q + 1), A.dim(q))}")
    if problems:
        return problems
    for q in A.degrees():
        d0, d1 = A.diff.get(q), A.diff.get(q + 1)
        if d0 is not None and d1 is not None and not (d1 @ d0).is_zero():
            problems.append(f"d.d != 0 at degree {q}")
    for (q1, q2), table in A.mult.items():
        for (i, j), prod in table.items():
            if i >= A.dim(q1) or j >= A.dim(q2):
                problems.append(f"structure constant at bad index "
                                f"({q1},{q2},{i},{j})")
            elif any(k >= A.dim(q1 + q2) for k in prod):
                problems.append(f"product of ({q1},{i}) and ({q2},{j}) "
                                f"lands outside degree {q1 + q2}")
    if problems:
        return problems
    if A.d_element(A.unit_element())[1]:
        problems.append("unit is not a cycle")
    degs = A.degrees()
    eye = {q: ExactMatrix.identity(A.dim(q), ring) for q in degs}
    unit = ExactMatrix.from_rows([[c] for c in _dense(A.unit, A.dim(0), ring)],
                                 ring, cols=1)
    for q in degs:
        (left,) = A.product_blocks(0, q, unit, eye[q])
        right = np.hstack(list(A.product_blocks(q, 0, eye[q], unit)))
        for i in range(A.dim(q)):
            if (left[:, i] != eye[q].data[:, i]).any():
                problems.append(f"1*b != b for {A.label(q, i)}")
            if (right[:, i] != eye[q].data[:, i]).any():
                problems.append(f"b*1 != b for {A.label(q, i)}")
    d = A.complex().d  # zero where A has no differential
    for q1 in degs:
        sign = -1 if q1 % 2 else 1
        for q2 in degs:
            lhs = A.product_blocks(q1, q2, eye[q1], eye[q2], d(q1 + q2))
            rhs1 = A.product_blocks(q1 + 1, q2, d(q1), eye[q2])
            rhs2 = A.product_blocks(q1, q2 + 1, eye[q1], d(q2))
            for i, (left, r1, r2) in enumerate(zip(lhs, rhs1, rhs2)):
                for j in np.flatnonzero((left != r1 + sign * r2).any(axis=0)):
                    problems.append(f"Leibniz fails on ({A.label(q1, i)}, "
                                    f"{A.label(q2, int(j))})")
    products = {(q1, q2): _product_matrix(A, q1, q2, eye)
                for q1 in degs for q2 in degs}
    for q1 in degs:
        for q2 in degs:
            for q3 in degs:
                # column j * dim(q3) + k of both blocks i: e_i e_j e_k
                lhs = A.product_blocks(q1 + q2, q3, products[(q1, q2)],
                                       eye[q3])
                rhs = A.product_blocks(q1, q2 + q3, eye[q1],
                                       products[(q2, q3)])
                for i, right in enumerate(rhs):
                    left = np.hstack([next(lhs) for _ in range(A.dim(q2))])
                    for c in np.flatnonzero((left != right).any(axis=0)):
                        j, k = divmod(int(c), A.dim(q3))
                        problems.append(
                            f"associativity fails on ({A.label(q1, i)}, "
                            f"{A.label(q2, j)}, {A.label(q3, k)})")
    return problems


class DgMorphism:
    """Degree-wise linear map of dg algebras."""

    def __init__(self, source: DgAlgebra, target: DgAlgebra,
                 components: Dict[int, ExactMatrix], name: str = ""):
        self.source = source
        self.target = target
        self.components = {q: m for q, m in components.items()
                           if m.rows and m.cols}
        self.name = name

    def component(self, q: int) -> ExactMatrix:
        m = self.components.get(q)
        if m is None:
            return ExactMatrix.zeros(self.target.dim(q), self.source.dim(q),
                                     self.source.ring)
        return m

    def apply(self, x: Element) -> Element:
        q, c = x
        vec = self.component(q).matvec(_dense(c, self.source.dim(q),
                                              self.source.ring))
        return (q, _sparse_from_list(vec))

    def chain_map(self) -> ChainMap:
        return ChainMap(self.source.complex(), self.target.complex(),
                        dict(self.components))

    def validate(self) -> list:
        problems = []
        for q, m in self.components.items():
            want = (self.target.dim(q), self.source.dim(q))
            if m.shape != want:
                problems.append(f"component at degree {q} has shape "
                                f"{m.shape}, expected {want}")
        if problems:
            return problems
        problems.extend(self.chain_map().validate())
        A, B = self.source, self.target
        fu = self.apply(A.unit_element())
        if fu[1] != B.unit_element()[1]:
            problems.append("unit is not preserved")
        for q1, q2, i, j in self._not_multiplicative():
            problems.append(f"not multiplicative on ({A.label(q1, i)}, "
                            f"{A.label(q2, j)})")
        return problems

    def _not_multiplicative(self) -> Iterator[Tuple[int, int, int, int]]:
        """(q1, q2, i, j) for every basis pair of the source with
        f(e_i * e_j) != f(e_i) * f(e_j), in degree order, then basis
        order."""
        A, B = self.source, self.target
        eye = {q: ExactMatrix.identity(A.dim(q), A.ring) for q in A.degrees()}
        for q1 in A.degrees():
            for q2 in A.degrees():
                # f(a_i * a_j) against f(a_i) * f(a_j), one i at a time
                lhs = A.product_blocks(q1, q2, eye[q1], eye[q2],
                                       self.component(q1 + q2))
                rhs = B.product_blocks(q1, q2, self.component(q1),
                                       self.component(q2))
                for i, (fab, fafb) in enumerate(zip(lhs, rhs)):
                    for j in np.flatnonzero((fab != fafb).any(axis=0)):
                        yield q1, q2, i, int(j)


def is_quasi_iso_dg(f: DgMorphism) -> QuasiIsoReport:
    """Cone acyclicity of the underlying chain map."""
    return is_quasi_iso(f.chain_map())


# ---------------------------------------------------------------------------
# cohomology algebra
# ---------------------------------------------------------------------------


def cohomology_algebra(A: DgAlgebra, verify_section: bool = True,
                       seed: int = 7):
    """(H with zero differential, per-degree section of H-basis to cocycles).

    The product on H multiplies section representatives and reduces back to
    cohomology coordinates: for each degree pair, P * M * (L1 (x) L2) with
    M the structure constants, L1, L2 the section's lifts and P the
    projection of cocycles to cohomology coordinates, computed by
    `DgAlgebra.product_blocks` one column of L1 at a time (on int64 when
    the overflow bound of the module docstring allows, on Python ints
    otherwise).  Requires torsion-free cohomology; with a second randomly
    perturbed section the structure constants are recomputed and compared,
    re-verifying well-definedness.
    """
    profile = cohomology(A.complex())
    for q, mod in profile.modules.items():
        if mod.torsion:
            raise ValueError(
                "torsion cohomology: multiplicative reduction unsupported "
                f"(degree {q}, torsion {mod.torsion})")
    section = {q: mod.lift for q, mod in profile.modules.items() if mod.betti}
    dims = {q: mod.betti for q, mod in profile.modules.items() if mod.betti}

    def structure_constants(sect):
        mult: Dict[Tuple[int, int], Table] = {}
        for q1, l1 in sect.items():
            for q2, l2 in sect.items():
                target = profile.modules.get(q1 + q2)
                if target is not None and not target.betti:
                    continue
                # products of cocycles are cocycles, so the free part
                # projects exactly; with no degree q1 + q2 at all the
                # blocks have no rows, and `_coo` still rejects structure
                # constants that land there
                table = _table(A.product_blocks(
                    q1, q2, l1, l2,
                    None if target is None else target.projection_matrix()))
                if table:
                    mult[(q1, q2)] = table
        return mult

    mult = structure_constants(section)
    if verify_section:
        import random

        rng = random.Random(seed)
        perturbed = {}
        for q, l in section.items():
            im = A.diff.get(q - 1)
            if im is None or not im.cols:
                perturbed[q] = l
                continue
            # the noise N is drawn one column at a time
            noise = [[rng.randint(-2, 2) for _ in range(im.cols)]
                     for _ in range(l.cols)]
            perturbed[q] = l + im @ ExactMatrix.from_rows(
                list(zip(*noise)), A.ring)
        if structure_constants(perturbed) != mult:
            raise AssertionError(
                "cohomology product depends on the section choice")

    unit_dense = _dense(A.unit_element()[1], A.dim(0), A.ring)
    free, _ = profile.modules[0].coordinates(unit_dense)
    unit = _sparse_from_list(free)
    labels = {q: [f"[{q}:{i}]" for i in range(n)] for q, n in dims.items()}
    H = DgAlgebra(A.ring, dims, labels, unit, {}, mult)
    return H, section


# ---------------------------------------------------------------------------
# sub-algebras, ideals, quotients
# ---------------------------------------------------------------------------


def subalgebra_from_span(A: DgAlgebra, elements: Sequence[Element],
                         labels: Optional[Sequence] = None,
                         name: str = ""):
    """Sub-dg-algebra on the given homogeneous spanning set.

    The span is reduced to a basis (redundant spanning elements are
    dropped); the lattice must contain the unit and be closed under the
    differential and under multiplication, with exact membership over the
    ring.  Returns the algebra in the kept basis plus the inclusion.
    `labels`, when given, is aligned with `elements`.
    """
    lattices: Dict[int, ColumnLattice] = {}
    per_degree: Dict[int, List[int]] = {}
    for pos, (q, coeffs) in enumerate(elements):
        if not coeffs:
            continue
        lat = lattices.setdefault(q, ColumnLattice(A.ring))
        if lat.add(dict(coeffs), coord_key=pos):
            per_degree.setdefault(q, []).append(pos)
    for q, positions in per_degree.items():
        if len(positions) != lattices[q].rank:
            raise ValueError(
                f"spanning set at degree {q} is not a lattice basis after "
                "reduction; provide an independent set")
    index_of = {}
    dims = {}
    for q, positions in per_degree.items():
        dims[q] = len(positions)
        for k, pos in enumerate(positions):
            index_of[pos] = (q, k)

    def coords_in_span(q: int, coeffs: dict, what: str) -> dict:
        if not coeffs:
            return {}
        lat = lattices.get(q)
        co = lat.coordinates(coeffs) if lat else None
        if co is None:
            raise ValueError(f"span not closed under {what}")
        return {index_of[pos][1]: c for pos, c in co.items()}

    unit = coords_in_span(0, A.unit_element()[1],
                          "unit membership (sub-algebra must contain 1)")
    diff = {}
    for q, positions in sorted(per_degree.items()):
        if (q + 1) not in per_degree:
            for pos in positions:
                img = A.d_element(elements[pos])
                if img[1]:
                    raise ValueError(
                        f"span not closed under differential at degree {q}")
            continue
        m = ExactMatrix.zeros(dims[q + 1], dims[q], A.ring)
        for j, pos in enumerate(positions):
            img = A.d_element(elements[pos])
            try:
                co = coords_in_span(q + 1, img[1], "differential")
            except ValueError:
                raise ValueError(
                    f"span not closed under differential at degree {q}, "
                    f"element #{pos}")
            for i, c in co.items():
                m.data[i, j] = c
        diff[q] = m
    mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]] = {}
    for q1, pos1 in per_degree.items():
        for q2, pos2 in per_degree.items():
            table = {}
            for i, p1 in enumerate(pos1):
                for j, p2 in enumerate(pos2):
                    prod = A.multiply(elements[p1], elements[p2])
                    if not prod[1]:
                        continue
                    try:
                        co = coords_in_span(q1 + q2, prod[1], "multiplication")
                    except ValueError:
                        raise ValueError(
                            "span not closed under multiplication: product "
                            f"of elements #{p1} and #{p2} escapes")
                    if co:
                        table[(i, j)] = co
            if table:
                mult[(q1, q2)] = table
    if labels is None:
        label_map = {q: [f"u{q}[{k}]" for k in range(n)]
                     for q, n in dims.items()}
    else:
        label_map = {q: [labels[pos] for pos in positions]
                     for q, positions in per_degree.items()}
    sub = DgAlgebra(A.ring, dims, label_map, unit, diff, mult)
    comps = {}
    for q, positions in per_degree.items():
        m = ExactMatrix.zeros(A.dim(q), len(positions), A.ring)
        for j, pos in enumerate(positions):
            for i, c in elements[pos][1].items():
                m.data[i, j] = c
        comps[q] = m
    incl = DgMorphism(sub, A, comps, name=name or "inclusion")
    return sub, incl


@dataclass
class DgIdeal:
    """Two-sided dg ideal of a DgAlgebra, presented by per-degree lattices."""

    algebra: DgAlgebra
    lattices: Dict[int, ColumnLattice]
    input_spanned_ideal: bool

    def rank(self, q: int) -> int:
        lat = self.lattices.get(q)
        return lat.rank if lat else 0

    def ranks(self) -> Dict[int, int]:
        return {q: lat.rank for q, lat in sorted(self.lattices.items())
                if lat.rank}

    def restricted_complex(self) -> ChainComplex:
        """The ideal as a subcomplex, in its echelon bases."""
        U = self.algebra
        ranks = {q: lat.rank for q, lat in self.lattices.items()}
        diffs = {}
        for q, lat in self.lattices.items():
            if not lat.rank:
                continue
            tgt = self.lattices.get(q + 1)
            cols = []
            for vec in lat.basis_vectors():
                img = U.d_element((q, vec))
                if not img[1]:
                    cols.append({})
                    continue
                co = tgt.echelon_coordinates(img[1]) if tgt else None
                if co is None:
                    raise AssertionError("ideal differential escaped")
                cols.append(co)
            m = ExactMatrix.zeros(tgt.rank if tgt else 0, lat.rank, U.ring)
            for j, co in enumerate(cols):
                for i, c in co.items():
                    m.data[i, j] = c
            if m.rows and m.cols:
                diffs[q] = m
        return ChainComplex(U.ring, ranks, diffs)


def ideal_from_span(U: DgAlgebra, elements: Sequence[Element]) -> DgIdeal:
    """Two-sided dg ideal generated by the given homogeneous elements.

    Closes the span under two-sided multiplication by the basis of U and
    reports whether the input already spanned the ideal; closure under the
    differential is verified afterwards and failure is an error.
    """
    lattices: Dict[int, ColumnLattice] = {}
    for q, coeffs in elements:
        if coeffs:
            lattices.setdefault(q, ColumnLattice(U.ring)).add(dict(coeffs))
    grew_any = False
    changed = True
    while changed:
        changed = False
        for q in list(lattices):
            lat = lattices[q]
            for vec in list(lat.basis_vectors()):
                x = (q, vec)
                for qb in U.degrees():
                    for i in range(U.dim(qb)):
                        b = U.basis_element(qb, i)
                        for prod in (U.multiply(b, x), U.multiply(x, b)):
                            pq, pc = prod
                            if not pc:
                                continue
                            plat = lattices.setdefault(
                                pq, ColumnLattice(U.ring))
                            if plat.add(dict(pc)):
                                changed = True
                                grew_any = True
    lattices = {q: lat for q, lat in lattices.items() if lat.rank}
    ideal = DgIdeal(U, lattices, input_spanned_ideal=not grew_any)
    for q, lat in lattices.items():
        tgt = lattices.get(q + 1)
        for vec in lat.basis_vectors():
            img = U.d_element((q, vec))
            if img[1] and (tgt is None or not tgt.contains(img[1])):
                raise ValueError("not closed under differential")
    return ideal


def quotient(U: DgAlgebra, I: DgIdeal):
    """(U/I, projection).

    In each degree q the ideal lattice splits off the ambient basis
    directions away from its pivots (`ColumnLattice.split_projection`),
    which needs every pivot to be a unit over ZZ: exactly torsion-freeness
    of the quotient.  Those directions are the quotient basis, so quotient
    labels are inherited, and with P_q the projection along the ideal the
    rest is matrix algebra: the projection has components P_q, the
    differential is P_(q+1) d_q on the kept columns, the unit is P_0 of the
    unit and the products of kept basis elements go through P_(q1+q2).
    """
    if I.algebra is not U:
        raise ValueError("ideal does not belong to this algebra")
    ring = U.ring
    keep: Dict[int, List[int]] = {}
    comps: Dict[int, ExactMatrix] = {}
    for q in U.degrees():
        lat = I.lattices.get(q, ColumnLattice(ring))
        try:
            rows, P = lat.split_projection(U.dim(q))
        except ValueError as exc:
            raise ValueError(f"quotient has torsion at degree {q}: {exc}") \
                from exc
        if rows:
            keep[q], comps[q] = rows, P
    dims = {q: len(rows) for q, rows in keep.items()}
    unit = _sparse_from_list(comps[0].matvec(
        _dense(U.unit, U.dim(0), ring))) if 0 in comps else {}
    if not unit:
        raise ValueError("quotient kills the unit")
    diff = {}
    for q in dims:
        d = U.diff.get(q)
        if d is not None and q + 1 in dims:
            m = (comps[q + 1] @ d).take_cols(keep[q])
            if not m.is_zero():
                diff[q] = m
    kept = {q: ExactMatrix.identity(U.dim(q), ring).take_cols(keep[q])
            for q in dims}
    mult: Dict[Tuple[int, int], Table] = {}
    for q1 in dims:
        for q2 in dims:
            if q1 + q2 not in dims:
                continue
            table = _table(U.product_blocks(q1, q2, kept[q1], kept[q2],
                                            comps[q1 + q2]))
            if table:
                mult[(q1, q2)] = table
    labels = {q: [U.label(q, i) for i in rows] for q, rows in keep.items()}
    Q = DgAlgebra(ring, dims, labels, unit, diff, mult)
    proj = DgMorphism(U, Q, comps, name="projection")
    return Q, proj


# ---------------------------------------------------------------------------
# formality chains
# ---------------------------------------------------------------------------


@dataclass
class FormalityChain:
    """Zig-zag A_0 <-...-> A_k; the terminal algebra has zero differential."""

    algebras: List[DgAlgebra]
    arrows: List[Tuple[DgMorphism, str]]  # direction: "forward" | "backward"


@dataclass
class ChainVerdict:
    ok: bool
    arrow_reports: List[dict]
    notes: List[str]
    identification: Optional[Dict[int, ExactMatrix]] = None

    def __bool__(self):
        return self.ok


def _induced_on_cohomology(f: DgMorphism, src_prof: CohomologyProfile,
                           tgt_prof: CohomologyProfile) -> Dict[int, ExactMatrix]:
    out = {}
    ring = f.source.ring
    for q, mod in src_prof.modules.items():
        tmod = tgt_prof.modules.get(q)
        bsrc = mod.betti
        btgt = tmod.betti if tmod else 0
        if not bsrc and not btgt:
            continue
        if not btgt:
            out[q] = ExactMatrix.zeros(0, bsrc, ring)
            continue
        # chain maps send cocycles to cocycles: project the mapped lifts
        out[q] = tmod.projection_matrix() @ (f.component(q) @ mod.lift)
    return out


def verify_formality_chain(chain: FormalityChain) -> ChainVerdict:
    """Every arrow a valid quasi-isomorphism of dg algebras, terminal
    differential zero, and the composed identification of H(A_0) with the
    terminal algebra is a graded-algebra isomorphism."""
    notes = []
    reports = []
    algebras = chain.algebras
    ok = True
    if len(chain.arrows) != len(algebras) - 1:
        return ChainVerdict(False, [], ["arrow count does not match algebras"])
    for idx, (f, direction) in enumerate(chain.arrows):
        a, b = algebras[idx], algebras[idx + 1]
        if direction == "forward":
            src, tgt = a, b
        elif direction == "backward":
            src, tgt = b, a
        else:
            return ChainVerdict(False, [], [f"bad direction {direction!r}"])
        rep = {"index": idx, "direction": direction}
        if f.source is not src or f.target is not tgt:
            rep["structural"] = "morphism endpoints do not match the chain"
            rep["valid"] = rep["quasi_iso"] = False
            reports.append(rep)
            ok = False
            continue
        problems = f.validate()
        rep["valid"] = not problems
        if problems:
            rep["problems"] = problems[:5]
            ok = False
        qi = is_quasi_iso_dg(f)
        rep["quasi_iso"] = qi.ok
        if not qi.ok:
            ok = False
        reports.append(rep)
    terminal = algebras[-1]
    if not terminal.has_zero_differential():
        notes.append("terminal algebra has a nonzero differential")
        ok = False
    identification = None
    if ok:
        try:
            profiles = [cohomology(A.complex()) for A in algebras]
            for prof in profiles:
                for mod in prof.modules.values():
                    if mod.torsion:
                        raise ValueError("torsion cohomology in the chain")
            total: Optional[Dict[int, ExactMatrix]] = None
            for idx, (f, direction) in enumerate(chain.arrows):
                if direction == "forward":
                    step = _induced_on_cohomology(
                        f, profiles[idx], profiles[idx + 1])
                else:
                    step = _induced_on_cohomology(
                        f, profiles[idx + 1], profiles[idx])
                    step = {q: inverse(m) for q, m in step.items()}
                if total is None:
                    total = step
                else:
                    total = {q: step[q] @ m for q, m in total.items()}
            if total is None:  # chain with a single algebra
                total = {q: ExactMatrix.identity(mod.betti, terminal.ring)
                         for q, mod in profiles[0].modules.items()
                         if mod.betti}
            # identify H(terminal) with terminal itself (zero differential)
            tprof = profiles[-1]
            tfix = {}
            for q, mod in tprof.modules.items():
                if mod.betti:
                    if mod.lift.rows != mod.lift.cols:
                        raise ValueError(
                            f"lift of H(terminal) at degree {q} has shape "
                            f"{mod.lift.shape}, expected "
                            f"{(mod.lift.rows, mod.lift.rows)}")
                    tfix[q] = inverse(mod.lift)
            identification = {}
            for q, m in total.items():
                t = tfix.get(q)
                if t is not None and t.cols != m.rows:
                    raise ValueError(
                        f"degree {q}: the terminal basis change of shape "
                        f"{t.shape} does not compose with the induced map "
                        f"of shape {m.shape}")
                identification[q] = m if t is None else t @ m
            # the identification must carry the product of H(A_0) to the
            # product of the terminal algebra
            H0, _ = cohomology_algebra(algebras[0])
            ident = DgMorphism(H0, terminal, identification)
            for q1, q2, _, _ in ident._not_multiplicative():
                notes.append("identification is not multiplicative "
                             f"at degrees ({q1}, {q2})")
                ok = False
        except ValueError as exc:
            notes.append(f"identification failed: {exc}")
            ok = False
    return ChainVerdict(ok, reports, notes, identification)
