"""Bounded cochain complexes of free modules.

Complexes carry per-degree ranks and differentials d^q: C^q -> C^(q+1).
`cohomology` reduces a complex once, by sparse elimination of +-1 pivots
(Kaczynski, Mrozek and Slusarek 1998), to a core C' with homotopy
equivalences G: C' -> C and F: C -> C', F G = 1, and keeps all three on its
profile; the Smith forms of C' give kernel, torsion, lifts and projections.
f: X -> Y is a quasi-isomorphism iff F_Y f G_X is, so `is_quasi_iso` reads
the invariant factors (`cone_report`) of the cone between the two cores.

Each identity is checked once per object: `validate_complex` (d.d = 0)
and `ChainMap.validate` (d.f = f.d) remember their problem lists,
`is_quasi_iso` its verdict, and `mapping_cone` checks its inputs, which
imply d^2 = 0 on the cone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .exact_linalg import (
    CoeffRing,
    ExactMatrix,
    PresolvedSolver,
    _vec_axpy,
    eliminate_unit_pivots,
    inverse,
    unit_pivot_factors,
)


class ChainComplex:
    """Bounded complex of finitely generated free modules."""

    def __init__(self, ring: CoeffRing, ranks: Dict[int, int],
                 differentials: Dict[int, ExactMatrix]):
        self.ring = ring
        self.ranks = {q: r for q, r in ranks.items() if r}
        self.differentials = {
            q: d for q, d in differentials.items()
            if d.rows or d.cols
        }
        self._problems: Optional[list] = None  # validate_complex

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
    """Misshaped differentials, else the degrees where d.d != 0; the list
    is remembered on C, and empty means valid."""
    if C._problems is None:
        problems = [f"differential at degree {q} has shape {d.shape}, "
                    f"expected {(C.rank(q + 1), C.rank(q))}"
                    for q, d in C.differentials.items()
                    if d.shape != (C.rank(q + 1), C.rank(q))]
        if not problems:  # d.d needs the shapes
            problems = [f"d.d != 0 at degree {q}" for q in C.degrees()
                        if q in C.differentials and q + 1 in C.differentials
                        and not (C.d(q + 1) @ C.d(q)).is_zero()]
        C._problems = problems
    return list(C._problems)


class CohomologyModule:
    """H^q = ker d'^q / im d'^(q-1) of the reduced complex C', read off
    Smith forms (`PresolvedSolver`) and carried to C by the degree-q
    components of G: C' -> C and F: C -> C' (`_reduce_units`).

    With V the column transform of d'^q and s its rank, K = V[:, s:] is a
    kernel basis and K+ = V^-1[s:, :] reads coordinates in it.  The image
    of d'^(q-1) there is R = K+ d'^(q-1); with U R W its Smith form of rank
    r, the factors past 1 are the torsion, `lift` = G K U^-1[:, r:], and
    U K+ F sends a cocycle of C to its torsion (rows below r) and free
    (rows from r) coordinates.  d is d^q of C.

    A zero core is read directly: K, K+ (when d'^q has no entry) and U (when
    R has none) are identities, None here, left out of products by `_times`."""

    def __init__(self, d_out: ExactMatrix, d_in: ExactMatrix,
                 G: ExactMatrix, F: ExactMatrix, d: ExactMatrix):
        n, s, K, Kplus = d_out.cols, 0, None, None
        if d_out.columns:
            ker = PresolvedSolver(d_out)
            s, K = ker.rank, ker.V.take_cols(range(ker.rank, n))
            Kplus = inverse(ker.V).take_rows(range(s, n))
            d_in = Kplus @ d_in
        r, U, Uinv, self._diag = 0, None, None, []
        if d_in.columns:
            rel = PresolvedSolver(d_in)
            r, U, self._diag = rel.rank, rel.U, rel.diag[:rel.rank]
            Uinv = inverse(U).take_cols(range(r, n - s))
        self.betti = n - s - r
        self.torsion = [x for x in self._diag if x != 1]
        self.is_zero = self.betti == 0 and not self.torsion
        self.lift = _times(G, _times(K, Uinv))
        self._U, self._Kplus, self._F = U, Kplus, F
        self._d, self._coords = d, None

    def _coordinate_matrix(self) -> tuple:
        """(U K+ F, its rows from r on), computed once."""
        if self._coords is None:
            P = _times(_times(self._U, self._Kplus), self._F)
            r = len(self._diag)
            self._coords = P, P.take_rows(range(r, P.rows)) if r else P
        return self._coords

    def coordinates(self, x: Sequence):
        """Free-part and torsion coordinates of the class of x.  Raises
        ValueError("not a cocycle") unless d x = 0 in C itself: F of a
        non-cocycle can be a cocycle of C'."""
        if any(self._d.matvec(x)):
            raise ValueError("not a cocycle")
        y = self._coordinate_matrix()[0].matvec(x)
        r = len(self._diag)
        return y[r:], [y[i] % t for i, t in enumerate(self._diag) if t != 1]

    def projection_matrix(self) -> ExactMatrix:
        """Matrix sending a cocycle of C to its free-part coordinates: the
        rows of U K+ F from r on; undefined off the cocycles."""
        return self._coordinate_matrix()[1]


def _times(a: Optional[ExactMatrix], b: Optional[ExactMatrix]):
    """a @ b, where None stands for an identity factor."""
    return b if a is None else a if b is None else a @ b


class CohomologyProfile:
    """Per-degree modules H^q = ker d^q / im d^(q-1) of C, read off the core
    C' of `_reduce_units`, which is kept with its per-degree G and F."""

    def __init__(self, C: ChainComplex):
        self.ring = C.ring
        self.reduced, self.G, self.F = R, G, F = _reduce_units(C)
        self.modules = {q: CohomologyModule(R.d(q), R.d(q - 1), G[q], F[q],
                                            C.d(q)) for q in C.degrees()}

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
    reduced._problems = []  # a summand of the complex C
    return reduced, G, F


def cohomology(C: ChainComplex) -> CohomologyProfile:
    """Exact cohomology with representative lifts in every degree.  Only
    the nonzero differentials of the core C' reach the Smith engine, and
    every sphere model leaves C' none.  Complexes are immutable by
    convention, so the profile is memoized on the instance."""
    cached = getattr(C, "_cohomology_profile", None)
    if cached is not None:
        return cached
    problems = validate_complex(C)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    C._cohomology_profile = profile = CohomologyProfile(C)
    return profile


def cone_report(C: ChainComplex) -> Dict[int, dict]:
    """Per-degree betti/torsion of C from invariant factors only, in one
    ascending sweep of +-1 pivots as in `_reduce_units`: d^q is read only
    on the columns that d^(q-1) did not take as pivot rows, which a
    unimodular change of basis makes zero.  C must satisfy d.d = 0, which
    is not checked here; the betti formula needs it too."""
    factors, taken = {}, {}
    for q in sorted(C.differentials):
        d, prev = C.differentials[q], taken.get(q - 1)
        taken[q], factors[q] = unit_pivot_factors(
            d, d.columns.keys() - prev if prev else None)
    return {q: {"betti": C.rank(q) - len(factors.get(q, ()))
                - len(factors.get(q - 1, ())),
                "torsion": [f for f in factors.get(q - 1, ()) if f != 1]}
            for q in C.degrees()}


class ChainMap:
    """Degree-wise map of complexes commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Dict[int, ExactMatrix]):
        self.source = source
        self.target = target
        self.components = {q: f for q, f in components.items()
                           if f.rows or f.cols}
        self._problems: Optional[list] = None  # validate
        self._quasi_iso: Optional[QuasiIsoReport] = None  # is_quasi_iso

    def component(self, q: int) -> ExactMatrix:
        f = self.components.get(q)
        if f is None:
            return ExactMatrix.zeros(self.target.rank(q), self.source.rank(q),
                                     self.source.ring)
        return f

    def validate(self) -> list:
        """Misshaped components, else the degrees where d.f != f.d; the
        list is remembered on the map."""
        if self._problems is None:
            X, Y = self.source, self.target
            problems = [f"component at degree {q} has shape {f.shape}, "
                        f"expected {(Y.rank(q), X.rank(q))}"
                        for q, f in self.components.items()
                        if f.shape != (Y.rank(q), X.rank(q))]
            if not problems:  # d.f = f.d needs the shapes
                problems = [f"does not commute with d at degree {q}"
                            for q in set(X.degrees()) | set(Y.degrees())
                            if Y.d(q) @ self.component(q)
                            != self.component(q + 1) @ X.d(q)]
            self._problems = problems
        return list(self._problems)

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
    d(x, y) = (-d_src x, f(x) + d_tgt y).  ValueError unless both ends and
    f validate; d^2 on the cone has the blocks d_X^2, d_Y f - f d_X and
    d_Y^2, so the cone is born valid."""
    X, Y = f.source, f.target
    for end, C in (("source", X), ("target", Y)):
        problems = validate_complex(C)
        if problems:
            raise ValueError(f"invalid {end} complex: " + "; ".join(problems))
    problems = f.validate()
    if problems:
        raise ValueError("invalid chain map: " + "; ".join(problems))
    ranks = {q: X.rank(q + 1) + Y.rank(q)
             for q in {q - 1 for q in X.degrees()} | set(Y.degrees())}
    diffs = {}
    for q in sorted(ranks):  # [[-d_X, 0], [f, d_Y]], column by column
        top = X.rank(q + 2)
        cols = {j: {i: -x for i, x in col.items()}
                for j, col in X.d(q + 1).columns.items()}
        for j, col in f.component(q + 1).columns.items():
            cols.setdefault(j, {}).update((top + i, x) for i, x in col.items())
        for j, col in Y.d(q).columns.items():
            cols[X.rank(q + 1) + j] = {top + i: x for i, x in col.items()}
        if top + Y.rank(q + 1):
            diffs[q] = ExactMatrix(X.ring, top + Y.rank(q + 1), ranks[q], cols)
    cone = ChainComplex(X.ring, ranks, diffs)
    cone._problems = []
    return cone


class QuasiIsoReport:
    def __init__(self, ok: bool, cone_profile: Dict[int, dict]):
        self.ok, self.cone_profile = ok, cone_profile

    def __bool__(self):
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """True iff cone(f) is acyclic, read off the cone of F_Y f G_X between
    the cores that `cohomology` keeps, whose `cone_profile` has the nonzero
    entries of cone(f).  ValueError unless f and its ends validate."""
    if f._quasi_iso is None:
        if validate_complex(f.source) or validate_complex(f.target) \
                or f.validate():
            mapping_cone(f)  # raises, naming the invalid end or the map
        hx, hy = cohomology(f.source), cohomology(f.target)
        core = ChainMap(hx.reduced, hy.reduced, {
            q: hy.F[q] @ (m @ hx.G[q]) for q, m in f.components.items()
            if q in hx.G and q in hy.F})
        core._problems = []  # F_Y, f and G_X are chain maps
        report = cone_report(mapping_cone(core))
        ok = all(not (r["betti"] or r["torsion"]) for r in report.values())
        f._quasi_iso = QuasiIsoReport(ok, report)
    return f._quasi_iso


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """C[k]^q = C^(q+k), differentials scaled by (-1)^k."""
    return ChainComplex(C.ring, {q - k: r for q, r in C.ranks.items()},
                        {q - k: -d if k % 2 else d
                         for q, d in C.differentials.items()})
