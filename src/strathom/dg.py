"""Finitely generated dg algebras with explicit structure constants.

An algebra stores a graded labeled basis, a unit, a degree +1 differential
per degree, and sparse structure constants per degree pair.  Elements are
(degree, {basis index: coefficient}) pairs.  Sub-algebras, two-sided ideals
and quotients all work with exact lattice membership over the PID, not with
rational span membership, so every verified identity holds integrally.

Every batched product goes through one sparse bilinear kernel, `_bilinear`.
For the constants e_i * e_j = sum c e_k of one degree pair it returns the
nonzero coefficients of out(x_s * y_t)_m, where x_s = sum_i left[i, s] e_i
and y_t = sum_j right[j, t] e_j.  Each term comes from one structure
constant and the nonzero entries it meets, so the work follows the number
of constants and nothing dense is built.  The maps are sparse
{index: {index': value}}, the format of an `ExactMatrix`'s stored
`columns` and of its row view `by_rows()`, which are read as they are;
`_index` builds one from a list of entries, and None is the identity.
Arithmetic is on exact ints, with Fractions over Q only where a value has
a denominator (`CoeffRing.element`); on the integral sphere models it is
all ints.  The cohomology product and its section check, the quotient's
constants, the laws of `validate_dg_algebra`, the multiplicativity check
of `DgMorphism`, the closures of `subalgebra_from_span` and
`ideal_from_span` and `DgAlgebra.multiply` all use it; `_apply` applies a
matrix to a sparse element through the stored columns in its support.

Shapes, d.d = 0 and d.f = f.d are checked in `chain_complex` only, once
per object: `validate_dg_algebra` reads `validate_complex(A.complex())`,
and a `DgMorphism`'s validation and mapping cone share its one `ChainMap`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .chain_complex import (
    ChainComplex,
    ChainMap,
    CohomologyProfile,
    cohomology,
    is_quasi_iso,
    QuasiIsoReport,
    validate_complex,
)
from .exact_linalg import (
    CoeffRing,
    ColumnLattice,
    ExactMatrix,
    _vec_axpy,
    inverse,
)

Element = Tuple[int, Dict[int, object]]  # (degree, sparse coefficients)
Table = Dict[Tuple[int, int], dict]      # (i, j) -> {k: c}: e_i * e_j
Sparse = Dict[object, dict]              # index -> {index': value}


def _index(entries: Iterable[tuple]) -> Sparse:
    """{a: {b: v}} for the entries (a, b, v), each (a, b) given once."""
    out: Sparse = {}
    for a, b, v in entries:
        out.setdefault(a, {})[b] = v
    return out


def _bilinear(table: Optional[Table], out: Optional[Sparse] = None,
              left: Optional[Sparse] = None,
              right: Optional[Sparse] = None) -> dict:
    """{(s, t, m): c} for the nonzero coefficients c of out(x_s * y_t)_m.

    left maps i to {s: x_s[i]}, right maps j to {t: y_t[j]} and out maps k
    to {m: out[m, k]}, as `ExactMatrix.by_rows()` and `columns` store them;
    None is the identity, and an index a map lacks contributes nothing.
    """
    acc: dict = {}
    for (i, j), prod in (table or {}).items():
        xs = ((i, 1),) if left is None else left.get(i)
        ys = ((j, 1),) if right is None else right.get(j)
        if not (xs and ys):
            continue
        xs = xs if left is None else xs.items()
        ys = ys if right is None else ys.items()
        for k, c in prod.items():
            for m, p in ((k, 1),) if out is None else out.get(k, {}).items():
                cp = c * p
                for s, v in xs:
                    cpv = cp * v
                    for t, w in ys:
                        key = (s, t, m)
                        acc[key] = acc.get(key, 0) + cpv * w
    return {key: c for key, c in acc.items() if c}


def _group(terms: dict) -> Table:
    """{(s, t): {m: c}} for `_bilinear` output, in sorted key order."""
    table: Table = {}
    for (s, t, m), c in sorted(terms.items()):
        table.setdefault((s, t), {})[m] = c
    return table


def _misshaped(problems: list) -> bool:
    """Whether a `validate_complex` or `ChainMap.validate` list is shapes."""
    return bool(problems) and " has shape " in problems[0]


def _differ(lhs: dict, rhs: dict) -> set:
    """The keys at which two sparse maps disagree."""
    return {key for key in lhs.keys() | rhs.keys()
            if lhs.get(key, 0) != rhs.get(key, 0)}


def _apply(M: Optional[ExactMatrix], coeffs: dict) -> dict:
    """M times the sparse vector coeffs, read from the columns of M in its
    support, in row order and without zeros; None is the zero map."""
    out: dict = {}
    if M is not None:
        for j, c in coeffs.items():
            for i, x in M.columns.get(j, {}).items():
                out[i] = out.get(i, 0) + x * c
    return {i: out[i] for i in sorted(out) if out[i]}


class DgAlgebra:
    """Graded algebra with labeled basis, structure constants and d."""

    def __init__(self, ring: CoeffRing, dims: Dict[int, int],
                 labels: Dict[int, list], unit: Dict[int, object],
                 diff: Dict[int, ExactMatrix],
                 mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]]):
        self._init_complex(ring, dims, labels, unit, diff)
        self.mult = mult

    def _init_complex(self, ring: CoeffRing, dims: Dict[int, int],
                      labels: Dict[int, list], unit: Dict[int, object],
                      diff: Dict[int, ExactMatrix]):
        """Everything but the structure constants, for a subclass that
        provides `mult` itself."""
        self.ring = ring
        self.dims = {q: n for q, n in dims.items() if n}
        self.labels = labels
        self.unit = dict(unit)
        self.diff = {q: d for q, d in diff.items() if d.rows and d.cols}
        self._complex: Optional[ChainComplex] = None

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
                                         dict(self.diff))
        return self._complex

    def has_zero_differential(self) -> bool:
        return all(d.is_zero() for d in self.diff.values())

    # -- element operations ------------------------------------------------

    def basis_element(self, q: int, i: int) -> Element:
        return (q, {i: self.ring.element(1)})

    def unit_element(self) -> Element:
        return (0, dict(self.unit))

    def multiply(self, x: Element, y: Element) -> Element:
        """x * y through `_bilinear` on the constants meeting both supports."""
        (q1, c1), (q2, c2) = x, y
        table = self.mult.get((q1, q2)) or {}
        meet = {(i, j): table[(i, j)] for i in c1 for j in c2
                if (i, j) in table}
        terms = _bilinear(meet, None, _index((i, 0, a) for i, a in c1.items()),
                          _index((j, 0, b) for j, b in c2.items()))
        return (q1 + q2, {m: c for (_, _, m), c in sorted(terms.items())})

    def d_element(self, x: Element) -> Element:
        q, c = x
        return (q + 1, _apply(self.diff.get(q), c))

    def constants(self, q1: int, q2: int) -> Table:
        """The structure constants of (q1, q2); raises ValueError when a
        nonzero one indexes past the basis."""
        table = self.mult.get((q1, q2)) or {}
        n1, n2, n3 = self.dim(q1), self.dim(q2), self.dim(q1 + q2)
        for (i, j), prod in table.items():
            if any(c != 0 and (i >= n1 or j >= n2 or k >= n3)
                   for k, c in prod.items()):
                raise ValueError(f"structure constants of ({q1}, {q2}) "
                                 "index past the basis")
        return table


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
        diff[q] = ExactMatrix.from_entries(dims.get(q + 1, 0), dims[q], (
            (i, j, c) for j, col in cols.items() for i, c in col.items()),
            ring)
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


def validate_dg_algebra(A: DgAlgebra) -> list:
    """d^2, Leibniz, associativity, unit laws and degree bookkeeping.

    The laws are identities of bilinear maps, each side one `_bilinear`
    call: 1 * e_t and e_s * 1 against the identity; d(e_i * e_j) against
    d(e_i) * e_j + (-1)^q1 e_i * d(e_j); and (e_i * e_j) * e_k against
    e_i * (e_j * e_k), with the inner products read off the constants as
    maps indexed by (i, j) and (j, k).  Failures come in degree order, then
    basis order; associativity in (q1, q2, q3, i, j, k) order.  Shapes and
    d.d = 0 come from `validate_complex`, which stops at misshaped
    differentials.
    """
    problems = validate_complex(A.complex())
    if _misshaped(problems):
        return problems
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
    unit = _index((i, 0, c) for i, c in A.unit.items())
    for q in degs:
        bad_left = {t for _, t, _ in _differ(
            _bilinear(A.mult.get((0, q)), left=unit),
            {(0, i, i): 1 for i in range(A.dim(q))})}
        bad_right = {s for s, _, _ in _differ(
            _bilinear(A.mult.get((q, 0)), right=unit),
            {(i, 0, i): 1 for i in range(A.dim(q))})}
        for i in range(A.dim(q)):
            if i in bad_left:
                problems.append(f"1*b != b for {A.label(q, i)}")
            if i in bad_right:
                problems.append(f"b*1 != b for {A.label(q, i)}")
    d_rows = {q: d.by_rows() for q, d in A.diff.items()}
    d_cols = {q: d.columns for q, d in A.diff.items()}
    for q1 in degs:
        sign = -1 if q1 % 2 else 1
        for q2 in degs:
            lhs = _bilinear(A.mult.get((q1, q2)), d_cols.get(q1 + q2, {}))
            rhs = _bilinear(A.mult.get((q1 + 1, q2)),
                            left=d_rows.get(q1, {}))
            _vec_axpy(rhs, _bilinear(A.mult.get((q1, q2 + 1)),
                                     right=d_rows.get(q2, {})), sign)
            for i, j in sorted({key[:2] for key in _differ(lhs, rhs)}):
                problems.append(f"Leibniz fails on ({A.label(q1, i)}, "
                                f"{A.label(q2, j)})")
    # {k: [((i, j), c)]}: the constants e_i * e_j = sum c e_k, by k
    pairs = {key: _index((k, ij, c) for ij, prod in table.items()
                         for k, c in prod.items())
             for key, table in A.mult.items()}
    for q1 in degs:
        for q2 in degs:
            for q3 in degs:
                lhs = _bilinear(A.mult.get((q1 + q2, q3)),
                                left=pairs.get((q1, q2), {}))
                rhs = _bilinear(A.mult.get((q1, q2 + q3)),
                                right=pairs.get((q2, q3), {}))
                bad = _differ(
                    {(i, j, k, m): c for ((i, j), k, m), c in lhs.items()},
                    {(i, j, k, m): c for (i, (j, k), m), c in rhs.items()})
                for i, j, k in sorted({key[:3] for key in bad}):
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
        self._chain_map: Optional[ChainMap] = None

    def component(self, q: int) -> ExactMatrix:
        m = self.components.get(q)
        if m is None:
            return ExactMatrix.zeros(self.target.dim(q), self.source.dim(q),
                                     self.source.ring)
        return m

    def apply(self, x: Element) -> Element:
        q, c = x
        return (q, _apply(self.components.get(q), c))

    def chain_map(self) -> ChainMap:
        """The underlying chain map: one per morphism, verdict shared."""
        if self._chain_map is None:
            self._chain_map = ChainMap(self.source.complex(),
                                       self.target.complex(),
                                       dict(self.components))
        return self._chain_map

    def validate(self) -> list:
        problems = self.chain_map().validate()
        if _misshaped(problems):
            return problems
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
        order.  Raises ValueError when a component is misshaped.

        Both sides are `_bilinear` maps {(i, j, m): coefficient}: the
        source's constants through the columns of f_(q1+q2) against the
        target's constants on the rows of f_q1 and f_q2.
        """
        problems = self.chain_map().validate()
        if _misshaped(problems):
            raise ValueError(problems[0])
        A, B = self.source, self.target
        rows = {q: m.by_rows() for q, m in self.components.items()}
        cols = {q: m.columns for q, m in self.components.items()}
        for q1 in A.degrees():
            for q2 in A.degrees():
                lhs = _bilinear(A.mult.get((q1, q2)), cols.get(q1 + q2, {}))
                rhs = _bilinear(B.mult.get((q1, q2)), None,
                                rows.get(q1, {}), rows.get(q2, {}))
                for i, j in sorted({key[:2] for key in _differ(lhs, rhs)}):
                    yield q1, q2, i, j


def is_quasi_iso_dg(f: DgMorphism) -> QuasiIsoReport:
    """Cone acyclicity of the underlying chain map."""
    return is_quasi_iso(f.chain_map())


# ---------------------------------------------------------------------------
# cohomology algebra
# ---------------------------------------------------------------------------


def cohomology_algebra(A: DgAlgebra):
    """(H with zero differential, per-degree section of H-basis to cocycles).

    The product on H multiplies section representatives and reduces back to
    cohomology coordinates: for each degree pair, the `_bilinear` map with
    the section's lifts on the left and right and the projection P of
    cocycles to cohomology coordinates as out.  Requires torsion-free
    cohomology.  Then the cocycles of each degree are the section's lifts
    plus the boundaries, so the product is independent of the section
    exactly when P(z b), P(b z) and P(b b') vanish for lifts z and boundary
    generators b, b' (the columns of the differential into each degree),
    which the same call checks.
    """
    profile = cohomology(A.complex())
    for q, mod in profile.modules.items():
        if mod.torsion:
            raise ValueError(
                "torsion cohomology: multiplicative reduction unsupported "
                f"(degree {q}, torsion {mod.torsion})")
    section = {q: mod.lift for q, mod in profile.modules.items() if mod.betti}
    dims = {q: mod.betti for q, mod in profile.modules.items() if mod.betti}
    lifts = {q: lift.by_rows() for q, lift in section.items()}
    proj = {q: profile.modules[q].projection_matrix().columns for q in dims}
    bounds = {q + 1: d.by_rows() for q, d in A.diff.items()}
    mult: Dict[Tuple[int, int], Table] = {}
    for q1 in section:
        for q2 in section:
            target = profile.modules.get(q1 + q2)
            if target is not None and not target.betti:
                continue
            # products of cocycles are cocycles, so the free part projects
            # exactly; with no degree q1 + q2 at all every product is
            # dropped, and `DgAlgebra.constants` rejects structure
            # constants that land there
            table = A.constants(q1, q2)
            out = proj.get(q1 + q2, {})
            prods = _group(_bilinear(table, out, lifts[q1], lifts[q2]))
            if prods:
                mult[(q1, q2)] = prods
            b1, b2 = bounds.get(q1), bounds.get(q2)
            for X, Y in ((lifts[q1], b2), (b1, lifts[q2]), (b1, b2)):
                if X is not None and Y is not None and \
                        _bilinear(table, out, X, Y):
                    raise AssertionError(
                        "cohomology product depends on the section choice")

    free, _ = profile.modules[0].coordinates(
        [A.ring.element(A.unit.get(i, 0)) for i in range(A.dim(0))])
    unit = {i: x for i, x in enumerate(free) if x != 0}
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

    The products of kept elements come from one `_bilinear` call per degree
    pair, in basis order, so the first escaping pair in (degree, i, j)
    order is the one an error names.
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
        entries = []
        for j, pos in enumerate(positions):
            img = A.d_element(elements[pos])
            try:
                co = coords_in_span(q + 1, img[1], "differential")
            except ValueError:
                raise ValueError(
                    f"span not closed under differential at degree {q}, "
                    f"element #{pos}")
            entries.extend((i, j, c) for i, c in co.items())
        diff[q] = ExactMatrix.from_entries(dims[q + 1], dims[q], entries,
                                           A.ring)
    kept = {q: _index((i, s, c) for s, pos in enumerate(positions)
                      for i, c in elements[pos][1].items())
            for q, positions in per_degree.items()}
    mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]] = {}
    for q1, pos1 in per_degree.items():
        for q2, pos2 in per_degree.items():
            table = {}
            prods = _bilinear(A.mult.get((q1, q2)), None, kept[q1], kept[q2])
            for (i, j), prod in _group(prods).items():
                try:
                    co = coords_in_span(q1 + q2, prod, "multiplication")
                except ValueError:
                    raise ValueError(
                        "span not closed under multiplication: product "
                        f"of elements #{pos1[i]} and #{pos2[j]} escapes")
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
    comps = {q: ExactMatrix.from_entries(A.dim(q), len(positions), (
        (i, j, c) for j, pos in enumerate(positions)
        for i, c in elements[pos][1].items()), A.ring)
        for q, positions in per_degree.items()}
    incl = DgMorphism(sub, A, comps, name=name or "inclusion")
    return sub, incl


class DgIdeal:
    """Two-sided dg ideal of a DgAlgebra, presented by per-degree lattices."""

    def __init__(self, algebra: DgAlgebra, lattices: Dict[int, ColumnLattice],
                 input_spanned_ideal: bool):
        self.algebra = algebra
        self.lattices = lattices
        self.input_spanned_ideal = input_spanned_ideal
        self._complex: Optional[ChainComplex] = None

    def ranks(self) -> Dict[int, int]:
        return {q: lat.rank for q, lat in sorted(self.lattices.items())
                if lat.rank}

    def restricted_complex(self) -> ChainComplex:
        """The ideal as a subcomplex, in its echelon bases (by pivot row),
        built once; raises ValueError when d leaves the ideal."""
        if self._complex is not None:
            return self._complex
        U = self.algebra
        ranks = {q: lat.rank for q, lat in self.lattices.items()}
        diffs = {}
        for q, lat in self.lattices.items():
            tgt = self.lattices.get(q + 1)
            at = {pr: i for i, pr in enumerate(sorted(tgt.columns))} \
                if tgt else {}
            entries = []
            for j, vec in enumerate(lat.basis_vectors()):
                img = U.d_element((q, vec))
                if not img[1]:
                    continue
                co = tgt.echelon_coordinates(img[1]) if tgt else None
                if co is None:
                    raise ValueError("not closed under differential")
                entries.extend((at[pr], j, c) for pr, c in co.items())
            m = ExactMatrix.from_entries(len(at), lat.rank, entries, U.ring)
            if m.rows and m.cols:
                diffs[q] = m
        self._complex = ChainComplex(U.ring, ranks, diffs)
        return self._complex


def ideal_from_span(U: DgAlgebra, elements: Sequence[Element]) -> DgIdeal:
    """Two-sided dg ideal generated by the given homogeneous elements.

    Closes the span under two-sided multiplication by the basis of U and
    reports whether the input already spanned the ideal; closure under the
    differential is verified afterwards, by building the ideal's
    `restricted_complex`, and failure is an error.

    The closure is semi-naive: a worklist holds every vector whose
    insertion grew a lattice, and each is multiplied once, on both sides,
    by all basis elements at once: one `_bilinear` call per side and degree
    with the vector as the one column, on the constants that meet its
    support (`meeting`).  A vector that grew no lattice is a combination of
    vectors already inserted, and multiplication by a basis element is
    linear, so its products need not be formed.  The echelon bases can
    depend on the order of insertion; the lattices and quotient do not.
    """
    lattices: Dict[int, ColumnLattice] = {}
    indexed: Dict[tuple, Dict[int, dict]] = {}

    def insert(q: int, vec: dict) -> bool:
        return lattices.setdefault(q, ColumnLattice(U.ring)).add(dict(vec))

    def meeting(pair: tuple, side: int, vec: dict) -> Table:
        """The constants of U.mult[pair] whose index on `side` (0 left, 1
        right) is in the support of vec; each table is indexed once."""
        index = indexed.get((pair, side))
        if index is None:
            index = indexed[(pair, side)] = {}
            for ij, prod in (U.mult.get(pair) or {}).items():
                index.setdefault(ij[side], {})[ij] = prod
        return {ij: prod for i in vec for ij, prod in index.get(i, {}).items()}

    work = [(q, coeffs) for q, coeffs in elements
            if coeffs and insert(q, coeffs)]
    grew_any = False
    while work:
        q, vec = work.pop()
        column = _index((k, 0, c) for k, c in vec.items())
        for qb in U.degrees():
            # vec * e_b, then e_b * vec, each in basis order of b
            for prods in (_bilinear(meeting((q, qb), 0, vec), left=column),
                          _bilinear(meeting((qb, q), 1, vec), right=column)):
                for prod in _group(prods).values():
                    if insert(q + qb, prod):
                        grew_any = True
                        work.append((q + qb, prod))
    lattices = {q: lat for q, lat in lattices.items() if lat.rank}
    ideal = DgIdeal(U, lattices, input_spanned_ideal=not grew_any)
    ideal.restricted_complex()
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
    unit and the products of kept basis elements go through P_(q1+q2), as
    `_bilinear` maps.
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
    unit = _apply(comps.get(0), U.unit)
    if not unit:
        raise ValueError("quotient kills the unit")
    diff = {}
    for q in dims:
        d = U.diff.get(q)
        if d is not None and q + 1 in dims:
            m = comps[q + 1] @ d.take_cols(keep[q])
            if not m.is_zero():
                diff[q] = m
    kept = {q: _index((i, s, 1) for s, i in enumerate(rows))
            for q, rows in keep.items()}
    mult: Dict[Tuple[int, int], Table] = {}
    for q1 in dims:
        for q2 in dims:
            if q1 + q2 not in dims:
                continue
            table = _group(_bilinear(U.constants(q1, q2),
                                     comps[q1 + q2].columns, kept[q1],
                                     kept[q2]))
            if table:
                mult[(q1, q2)] = table
    labels = {q: [U.label(q, i) for i in rows] for q, rows in keep.items()}
    Q = DgAlgebra(ring, dims, labels, unit, diff, mult)
    proj = DgMorphism(U, Q, comps, name="projection")
    return Q, proj


# ---------------------------------------------------------------------------
# formality chains
# ---------------------------------------------------------------------------


class FormalityChain:
    """Zig-zag A_0 <-...-> A_k; the terminal algebra has zero differential."""

    def __init__(self, algebras: List[DgAlgebra],
                 arrows: List[Tuple[DgMorphism, str]]):
        self.algebras = algebras
        self.arrows = arrows    # direction: "forward" | "backward"


class ChainVerdict:
    def __init__(self, ok: bool, arrow_reports: List[dict], notes: List[str]):
        self.ok = ok
        self.arrow_reports = arrow_reports
        self.notes = notes

    def __bool__(self):
        return self.ok


def _induced_on_cohomology(f: DgMorphism, src_prof: CohomologyProfile,
                           tgt_prof: CohomologyProfile) -> Dict[int, ExactMatrix]:
    """H(f) in free-part coordinates, in every degree with cohomology:
    chain maps send cocycles to cocycles, so the mapped lifts project.  f
    is a quasi-isomorphism, so both sides have the same Betti numbers."""
    return {q: tgt_prof.modules[q].projection_matrix()
            @ (f.component(q) @ mod.lift)
            for q, mod in src_prof.modules.items() if mod.betti}


def verify_formality_chain(chain: FormalityChain) -> ChainVerdict:
    """Every algebra a complex, every arrow a valid quasi-isomorphism of
    dg algebras, terminal differential zero, and the composed
    identification of H(A_0) with the terminal algebra is a graded-algebra
    isomorphism.  A failure is reported in the verdict, not raised."""
    notes = []
    reports = []
    algebras = chain.algebras
    ok = True
    if len(chain.arrows) != len(algebras) - 1:
        return ChainVerdict(False, [], ["arrow count does not match algebras"])
    for idx, A in enumerate(algebras):
        for p in validate_complex(A.complex())[:5]:
            notes.append(f"algebra {idx} is not a complex: {p}")
            ok = False
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
        # a mapping cone needs a chain map between complexes
        no_cone = (any(validate_complex(A.complex()) for A in (src, tgt))
                   or f.chain_map().validate())
        rep["quasi_iso"] = not no_cone and is_quasi_iso_dg(f).ok
        ok = ok and rep["quasi_iso"]
        reports.append(rep)
    terminal = algebras[-1]
    if not terminal.has_zero_differential():
        notes.append("terminal algebra has a nonzero differential")
        ok = False
    if ok:
        try:
            profiles = [cohomology(A.complex()) for A in algebras]
            for prof in profiles:
                for mod in prof.modules.values():
                    if mod.torsion:
                        raise ValueError("torsion cohomology in the chain")
            # H(A_0) -> ... -> H(terminal), which is the terminal algebra
            # itself: with no differential, its cohomology takes no pivot
            # and its lift and projection are identities
            identification = {
                q: ExactMatrix.identity(mod.betti, terminal.ring)
                for q, mod in profiles[0].modules.items() if mod.betti}
            for idx, (f, direction) in enumerate(chain.arrows):
                if direction == "forward":
                    step = _induced_on_cohomology(
                        f, profiles[idx], profiles[idx + 1])
                else:
                    step = _induced_on_cohomology(
                        f, profiles[idx + 1], profiles[idx])
                    step = {q: inverse(m) for q, m in step.items()}
                identification = {q: step[q] @ m
                                  for q, m in identification.items()}
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
    return ChainVerdict(ok, reports, notes)
