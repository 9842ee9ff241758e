"""Bounded cochain complexes of free modules.

Complexes carry per-degree ranks, optional basis labels, and differentials
d^q: C^q -> C^(q+1).  Cohomology first reduces the whole complex by sparse
elimination of +-1 pivots (Kaczynski, Mrozek and Slusarek 1998), keeping
chain maps G: C' -> C and F: C -> C' with F G = 1; the exact ker/im
subquotients, on the dense Smith engine, then see only the residual core
C'.  Quasi-isomorphisms are detected through acyclicity of the mapping
cone, for which a rank-and-invariant-factor check avoids transform
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .exact_linalg import (
    CoeffRing,
    ExactMatrix,
    SubquotientModule,
    _vec_axpy,
    eliminate_unit_pivots,
    invariant_factors,
    kernel_basis,
    subquotient,
)


class ChainComplex:
    """Bounded complex of finitely generated free modules."""

    def __init__(self, ring: CoeffRing, ranks: Dict[int, int],
                 differentials: Dict[int, ExactMatrix],
                 labels: Optional[Dict[int, list]] = None):
        self.ring = ring
        self.ranks = {q: r for q, r in ranks.items() if r}
        self.differentials = {
            q: d for q, d in differentials.items()
            if d.rows or d.cols
        }
        self.labels = labels or {}

    def rank(self, q: int) -> int:
        return self.ranks.get(q, 0)

    def degrees(self) -> List[int]:
        return sorted(self.ranks)

    def support(self) -> range:
        degs = self.degrees()
        if not degs:
            return range(0, 0)
        return range(degs[0], degs[-1] + 1)

    def d(self, q: int) -> ExactMatrix:
        m = self.differentials.get(q)
        if m is None:
            return ExactMatrix.zeros(self.rank(q + 1), self.rank(q), self.ring)
        return m


def validate_complex(C: ChainComplex) -> list:
    """All shape and d.d = 0 violations; empty list means valid."""
    problems = []
    for q in list(C.differentials):
        d = C.d(q)
        if d.shape != (C.rank(q + 1), C.rank(q)):
            problems.append(f"differential at degree {q} has shape "
                            f"{d.shape}, expected {(C.rank(q + 1), C.rank(q))}")
    for q in C.degrees():
        d0, d1 = C.d(q), C.d(q + 1)
        if d0.cols and d1.rows and d0.rows == d1.cols:
            if not (d1 @ d0).is_zero():
                problems.append(f"d.d != 0 at degree {q}")
    return problems


class CohomologyModule:
    """H^q of C, read off `core`, the subquotient H^q(C') of the reduced
    complex, through the degree-q components of G: C' -> C and F: C -> C'
    (`_reduce_units`): `lift` = G lift', projections and coordinates read
    F x in the core.  d is d^q of C."""

    def __init__(self, core: SubquotientModule, G: ExactMatrix,
                 F: ExactMatrix, d: ExactMatrix):
        self.core = core
        self.betti = core.betti
        self.torsion = core.torsion
        self.is_zero = core.is_zero
        self.lift = G @ core.lift
        self._F = F
        self._d = d
        self._proj: Optional[ExactMatrix] = None

    def coordinates(self, x: Sequence):
        """Free-part and torsion coordinates of the class of x.  Raises
        ValueError("not a cocycle") unless d x = 0 in C itself: F of a
        non-cocycle can be a cocycle of C'."""
        if any(self._d.matvec(x)):
            raise ValueError("not a cocycle")
        return self.core.coordinates(self._F.matvec(x))

    def projection_matrix(self) -> ExactMatrix:
        """Matrix sending a cocycle of C to its free-part coordinates:
        proj' F; undefined off the cocycles, as for `SubquotientModule`."""
        if self._proj is None:
            self._proj = self.core.projection_matrix() @ self._F
        return self._proj


@dataclass
class CohomologyProfile:
    """Per-degree modules H^q = ker d^q / im d^(q-1)."""

    ring: CoeffRing
    modules: Dict[int, CohomologyModule]

    def betti(self, q: int) -> int:
        m = self.modules.get(q)
        return m.betti if m else 0

    def torsion(self, q: int) -> list:
        m = self.modules.get(q)
        return list(m.torsion) if m else []

    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.modules.values())


def _reduce_units(C: ChainComplex):
    """(C', G, F): C reduced by elimination of +-1 pivots, degree by degree
    in ascending order, with the per-degree matrices of the chain maps
    G: C' -> C and F: C -> C', F G = 1.

    A pivot p = d^q[b, a] with alpha column a and beta row b of d^q turns
    d^q into delta - alpha p beta (`eliminate_unit_pivots`); d^(q-1) loses
    row a and d^(q+1) column b, with no fill-in outside degree q.  G
    changes in degree q only, g(x) -= p beta_x g(a) for each surviving x,
    and drops column b in degree q + 1; F changes in degree q + 1 only,
    f(y) -= alpha_y p f(b), and drops row a in degree q.  g and f hold the
    columns of G and the rows of F sparsely, keyed by the surviving basis
    vectors of C.
    """
    ring = C.ring
    one = ring.element(1)
    g = {q: {x: {x: one} for x in range(n)} for q, n in C.ranks.items()}
    f = {q: {x: {x: one} for x in range(n)} for q, n in C.ranks.items()}
    residual = {}
    for q in C.degrees():
        if not C.rank(q + 1):
            continue
        record: list = []  # g[q]: d^q without the columns b of d^(q-1)
        _, residual[q], _ = eliminate_unit_pivots(C.d(q), record, g[q])
        for b, a, p, beta, alpha in record:
            ga = g[q].pop(a)
            for x, v in beta.items():
                if x != a:
                    _vec_axpy(g[q][x], ga, -p * v)
            fb = f[q + 1].pop(b)
            for y, c in alpha:
                _vec_axpy(f[q + 1][y], fb, -c)
            del f[q][a], g[q + 1][b]
    pos = {q: {x: t for t, x in enumerate(gq)} for q, gq in g.items()}
    diffs = {q: ExactMatrix.from_entries(len(pos[q + 1]), len(pos[q]), (
        (pos[q + 1][r], pos[q][c], x) for r, row in rows.items()
        if r in pos[q + 1] for c, x in row.items()), ring)
        for q, rows in residual.items()}
    G = {q: ExactMatrix.from_entries(C.rank(q), len(gq), (
        (i, t, v) for t, col in enumerate(gq.values())
        for i, v in col.items()), ring) for q, gq in g.items()}
    F = {q: ExactMatrix.from_entries(len(fq), C.rank(q), (
        (t, i, v) for t, row in enumerate(fq.values())
        for i, v in row.items()), ring) for q, fq in f.items()}
    reduced = ChainComplex(ring, {q: len(gq) for q, gq in g.items()}, diffs)
    return reduced, G, F


def cohomology(C: ChainComplex) -> CohomologyProfile:
    """Exact cohomology with representative lifts in every degree.

    `_reduce_units` first reduces C to C' by sparse elimination of +-1
    pivots, and only C' goes through `kernel_basis` and `subquotient`
    (every sphere model leaves C' with no differential).  Complexes are
    immutable by convention, so the profile is memoized on the instance.
    """
    cached = getattr(C, "_cohomology_profile", None)
    if cached is not None:
        return cached
    problems = validate_complex(C)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    reduced, G, F = _reduce_units(C)
    profile = CohomologyProfile(C.ring, {q: CohomologyModule(
        subquotient(kernel_basis(reduced.d(q)), reduced.d(q - 1)),
        G[q], F[q], C.d(q)) for q in C.degrees()})
    C._cohomology_profile = profile
    return profile


def cone_report(C: ChainComplex) -> Dict[int, dict]:
    """Per-degree betti/torsion of C computed from invariant factors only."""
    ranks = {}
    torsion = {}
    for q, d in C.differentials.items():
        factors = invariant_factors(d)
        ranks[q] = len(factors)
        torsion[q + 1] = [f for f in factors if f != 1]
    report = {}
    for q in C.support():
        n = C.rank(q)
        if not n:
            continue
        report[q] = {
            "betti": n - ranks.get(q, 0) - ranks.get(q - 1, 0),
            "torsion": torsion.get(q, []),
        }
    return report


class ChainMap:
    """Degree-wise map of complexes commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Dict[int, ExactMatrix]):
        self.source = source
        self.target = target
        self.components = {q: f for q, f in components.items()
                           if f.rows or f.cols}

    def component(self, q: int) -> ExactMatrix:
        f = self.components.get(q)
        if f is None:
            return ExactMatrix.zeros(self.target.rank(q), self.source.rank(q),
                                     self.source.ring)
        return f

    def validate(self) -> list:
        problems = []
        for q, f in self.components.items():
            want = (self.target.rank(q), self.source.rank(q))
            if f.shape != want:
                problems.append(f"component at degree {q} has shape "
                                f"{f.shape}, expected {want}")
        if problems:
            return problems
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for q in degs:
            lhs = self.target.d(q) @ self.component(q)
            rhs = self.component(q + 1) @ self.source.d(q)
            if not (lhs - rhs).is_zero():
                problems.append(f"does not commute with d at degree {q}")
        return problems

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self . other (other first)."""
        if other.target is not self.source and \
                other.target.ranks != self.source.ranks:
            raise ValueError("chain maps not composable")
        comps = {}
        for q in set(self.source.degrees()) | set(other.source.degrees()):
            m = self.component(q) @ other.component(q)
            if m.rows and m.cols:
                comps[q] = m
        return ChainMap(other.source, self.target, comps)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)^q = source^(q+1) (+) target^q with
    d(x, y) = (-d_src x, f(x) + d_tgt y)."""
    problems = f.validate()
    if problems:
        raise ValueError("invalid chain map: " + "; ".join(problems))
    X, Y = f.source, f.target
    ring = X.ring
    ranks = {}
    degs = set()
    for q in X.degrees():
        degs.add(q - 1)
    degs.update(Y.degrees())
    for q in degs:
        r = X.rank(q + 1) + Y.rank(q)
        if r:
            ranks[q] = r
    diffs = {}
    for q in sorted(ranks):
        rows = X.rank(q + 2) + Y.rank(q + 1)
        cols = ranks[q]
        if not rows or not cols:
            continue
        top = ExactMatrix.hstack(
            [-X.d(q + 1), ExactMatrix.zeros(X.rank(q + 2), Y.rank(q), ring)],
            ring=ring) if X.rank(q + 2) else None
        bottom = ExactMatrix.hstack(
            [f.component(q + 1), Y.d(q)], ring=ring) if Y.rank(q + 1) else None
        blocks = [b for b in (top, bottom) if b is not None]
        diffs[q] = ExactMatrix.vstack(blocks, ring=ring)
    cone = ChainComplex(ring, ranks, diffs)
    bad = validate_complex(cone)
    if bad:
        raise AssertionError("mapping cone failed validation: " + "; ".join(bad))
    return cone


@dataclass
class QuasiIsoReport:
    ok: bool
    cone_profile: Dict[int, dict]

    def __bool__(self):
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """True iff the mapping cone is acyclic (betti and torsion zero)."""
    cone = mapping_cone(f)
    report = cone_report(cone)
    ok = all(r["betti"] == 0 and not r["torsion"] for r in report.values())
    return QuasiIsoReport(ok, report)


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """C[k]^q = C^(q+k), differentials scaled by (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    ranks = {q - k: r for q, r in C.ranks.items()}
    diffs = {}
    for q, d in C.differentials.items():
        diffs[q - k] = d if sign == 1 else -d
    labels = {q - k: ls for q, ls in C.labels.items()}
    return ChainComplex(C.ring, ranks, diffs, labels)


def identity_chain_map(C: ChainComplex) -> ChainMap:
    comps = {q: ExactMatrix.identity(C.rank(q), C.ring) for q in C.degrees()}
    return ChainMap(C, C, comps)
