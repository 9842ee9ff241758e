"""Bounded complexes of representations and their endomorphism dg algebras.

A complex of representations carries named blocks in every term; the Hom
complex between two such complexes gets its basis from the block-pair Hom
spaces, labeled in the h/e/p convention for closure-representation blocks
("H1" -> "E2" gives he_12, and so on), with the source term degree kept on
every label so that labels can be disambiguated with a superscript.

Sign convention throughout: d(f) = d_Y . f - (-1)^|f| f . d_X.  The mapping
cone and shift conventions live in chain_complex.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .chain_complex import ChainComplex, ChainMap, is_quasi_iso
from .dg import DgAlgebra
from .exact_linalg import CoeffRing, ExactMatrix, PresolvedSolver
from .quiver_rep import (
    Quiver,
    RepMorphism,
    Representation,
    _solve_all,
    _stack_flat,
    hom_space,
    validate_representation,
)


class ComplexOfReps:
    """Bounded cochain complex of representations with block bookkeeping."""

    def __init__(self, quiver: Quiver, ring: CoeffRing,
                 terms: Dict[int, Representation],
                 differentials: Dict[int, RepMorphism]):
        self.quiver = quiver
        self.ring = ring
        self.terms = {q: t for q, t in terms.items() if not t.is_zero()}
        self.differentials = {q: d for q, d in differentials.items()
                              if not d.is_zero()}

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    def term(self, q: int) -> Optional[Representation]:
        return self.terms.get(q)

    def differential(self, q: int) -> Optional[RepMorphism]:
        return self.differentials.get(q)

    def stalk_complex(self, v: str) -> ChainComplex:
        ranks = {q: t.rank(v) for q, t in self.terms.items()}
        diffs = {}
        for q, d in self.differentials.items():
            m = d.component(v)
            if m.rows and m.cols:
                diffs[q] = m
        return ChainComplex(self.ring, ranks, diffs)


def validate_complex_of_reps(X: ComplexOfReps) -> list:
    problems = []
    for q, d in X.differentials.items():
        src, tgt = X.term(q), X.term(q + 1)
        if src is None or tgt is None:
            problems.append(f"differential at degree {q} touches a zero term")
            continue
        if d.source is not src or d.target is not tgt:
            problems.append(f"differential at degree {q} has wrong endpoints")
            continue
        problems.extend(f"degree {q}: {p}" for p in d.validate())
    for q in X.degrees():
        d0 = X.differential(q)
        d1 = X.differential(q + 1)
        if d0 is not None and d1 is not None:
            if not d1.compose(d0).is_zero():
                problems.append(f"d.d != 0 at degree {q}")
    for q, t in X.terms.items():
        bad = validate_representation(t)
        problems.extend(f"term {q}: {p}" for p in bad)
    return problems


def shift_complex_of_reps(X: ComplexOfReps, k: int) -> ComplexOfReps:
    """X[k]^q = X^(q+k) with differentials scaled by (-1)^k."""
    terms = {q - k: t for q, t in X.terms.items()}
    diffs = {}
    for q, d in X.differentials.items():
        diffs[q - k] = d if k % 2 == 0 else d.scale(-1)
    return ComplexOfReps(X.quiver, X.ring, terms, diffs)


@dataclass
class ResolutionReport:
    ok: bool
    failures: List[dict]

    def __bool__(self):
        return self.ok


def validate_resolution(J: ComplexOfReps,
                        targets: Dict[int, Tuple[Representation, RepMorphism]]
                        ) -> ResolutionReport:
    """Is the augmentation (targets, placed per degree) -> J a quasi-iso
    on every vertex stalk?

    targets maps a placement degree to (representation, morphism into
    J^degree); the target complex carries zero differentials.  Exactness is
    checked stalkwise over the ring, reporting each failing (vertex,
    degree).
    """
    failures = []
    problems = validate_complex_of_reps(J)
    if problems:
        return ResolutionReport(False, [{"structural": p} for p in problems])
    for q, (rep, morph) in targets.items():
        term = J.term(q)
        if term is None or morph.source is not rep or morph.target is not term:
            failures.append({"structural":
                             f"augmentation at degree {q} has bad endpoints"})
            continue
        bad = morph.validate()
        failures.extend({"structural": f"degree {q}: {p}"} for p in bad)
        nxt = J.differential(q)
        if nxt is not None and not nxt.compose(morph).is_zero():
            failures.append({"structural":
                             f"d . augmentation != 0 at degree {q}"})
    if failures:
        return ResolutionReport(False, failures)
    for v in J.quiver.vertices:
        target_ranks = {q: rep.rank(v) for q, (rep, _) in targets.items()}
        t_complex = ChainComplex(J.ring, target_ranks, {})
        comps = {}
        for q, (rep, morph) in targets.items():
            m = morph.component(v)
            if m.rows and m.cols:
                comps[q] = m
        verdict = is_quasi_iso(ChainMap(t_complex, J.stalk_complex(v), comps))
        if not verdict.ok:
            bad_degrees = [q for q, r in verdict.cone_profile.items()
                           if r["betti"] or r["torsion"]]
            failures.append({"vertex": v, "degrees": bad_degrees})
    return ResolutionReport(not failures, failures)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

_BLOCK_RE = re.compile(r"^([HEP])(\d+)$")


@dataclass(frozen=True)
class HomLabel:
    """Label of a block-pair Hom generator, with its source term degree."""

    kind: str          # "h" | "e" | "p" | "he" | "hp" | "ep" | "gen"
    indices: tuple
    p: int             # source term degree

    def base(self) -> str:
        k = self.kind
        if k in ("h", "e", "p"):
            return f"{k}{self.indices[0]}"
        if k in ("he", "hp"):
            j, i = self.indices
            sep = "" if j < 10 and i < 10 else ","
            return f"{k}_{j}{sep}{i}"
        if k == "ep":
            i, kk = self.indices
            sep = "" if i < 10 and kk < 10 else ","
            return f"e_{i}{sep}{kk}"
        return "gen_" + "_".join(str(x) for x in self.indices)

    def render(self, ambiguous: bool = False) -> str:
        s = self.base()
        return f"{s}^({self.p})" if ambiguous else s

    def matches(self, kind: str, indices: tuple,
                p: Optional[int] = None) -> bool:
        return (self.kind == kind and self.indices == tuple(indices)
                and (p is None or self.p == p))


def _label_for(src_name: str, dst_name: str, k: int, p: int) -> HomLabel:
    ms, md = _BLOCK_RE.match(src_name or ""), _BLOCK_RE.match(dst_name or "")
    if ms and md and k == 0:
        ks, i_s = ms.group(1), int(ms.group(2))
        kd, i_d = md.group(1), int(md.group(2))
        if ks == kd and i_s == i_d:
            return HomLabel(ks.lower(), (i_s,), p)
        if ks == "H" and kd == "E":
            return HomLabel("he", (i_s, i_d), p)
        if ks == "H" and kd == "P":
            return HomLabel("hp", (i_s, i_d), p)
        if ks == "E" and kd == "P":
            return HomLabel("ep", (i_s, i_d), p)
    return HomLabel("gen", (src_name, dst_name, k), p)


# ---------------------------------------------------------------------------
# hom complexes
# ---------------------------------------------------------------------------


@dataclass
class HomBasisElement:
    p: int              # source term degree
    src_block: int
    dst_block: int
    k: int              # index inside the block-pair hom basis
    morphism: RepMorphism   # block source rep -> block target rep
    label: HomLabel


class _PairCache:
    """Hom bases, solvers and composition tables of block representations.

    Keys are the block objects themselves.  A resolution shares one block
    object per vertex, so End of it meets at most |vertices|^2 pairs.
    Coordinates are sparse: tuples of (generator index, nonzero coefficient)
    pairs in generator order.
    """

    def __init__(self):
        self._gens: Dict[tuple, list] = {}
        self._solvers: Dict[tuple, PresolvedSolver] = {}
        self._tables: Dict[tuple, dict] = {}
        self._units: Dict[Representation, tuple] = {}

    def gens(self, a: Representation, b: Representation) -> list:
        key = (a, b)
        if key not in self._gens:
            self._gens[key] = hom_space(a, b)
        return self._gens[key]

    def coordinates(self, a: Representation, b: Representation,
                    morphisms: Sequence[RepMorphism]) -> List[tuple]:
        """Sparse coordinates of morphisms a -> b: read off the generator
        at rank 1 (`_ratio`), else with one solve."""
        gens = self.gens(a, b)
        if not gens:
            if not all(g.is_zero() for g in morphisms):
                raise AssertionError("morphism escaped the Hom lattice")
            return [()] * len(morphisms)
        if len(gens) == 1:
            return [self._ratio(gens[0], m) for m in morphisms]
        solver = self._solvers.get((a, b))
        if solver is None:
            solver = self._solvers[(a, b)] = PresolvedSolver(_stack_flat(gens))
        X = _solve_all(solver, _stack_flat(morphisms),
                       "morphism escaped the Hom lattice")
        return [tuple(sorted(X.columns.get(j, {}).items()))
                for j in range(X.cols)]

    @staticmethod
    def _ratio(g: RepMorphism, m: RepMorphism) -> tuple:
        """Coordinates of m on the one generator g: c = m[p] / g[p] at the
        first nonzero entry p of g in (vertex, row, col) order, then
        m == c g on every component.  Over Z, c = m[p] // g[p], so the
        check at p is that g[p] divides m[p]."""
        ring = g.source.ring
        for v, gv in g.components.items():
            if not gv.is_zero():
                i, j = min((i, j) for j, col in gv.columns.items()
                           for i in col)
                lead, x = gv[i, j], m.component(v)[i, j]
                break
        c = ring.element(x / lead if ring.is_field else x // lead)
        if any(m.component(v) != gv.scale(c)
               for v, gv in g.components.items()):
            raise AssertionError("morphism escaped the Hom lattice")
        return ((0, c),) if c else ()

    def table(self, a: Representation, b: Representation,
              c: Representation) -> Dict[Tuple[int, int], tuple]:
        """{(k, l): coordinates of gens(b, c)[k] . gens(a, b)[l]} for the
        nonzero composites; built once per triple."""
        key = (a, b, c)
        if key not in self._tables:
            outer, inner = self.gens(b, c), self.gens(a, b)
            kl = [(k, l) for k in range(len(outer)) for l in range(len(inner))]
            coords = self.coordinates(
                a, c, [outer[k].compose(inner[l]) for k, l in kl]) if kl else []
            self._tables[key] = {x: co for x, co in zip(kl, coords) if co}
        return self._tables[key]

    def unit(self, a: Representation) -> tuple:
        """Coordinates of the identity of a."""
        if a not in self._units:
            ident = RepMorphism(a, a, {v: ExactMatrix.identity(a.rank(v),
                                                               a.ring)
                                       for v in a.support()})
            self._units[a] = self.coordinates(a, a, [ident])[0]
        return self._units[a]


def _block_components(d: RepMorphism) -> Dict[Tuple[int, int], RepMorphism]:
    """The nonzero block morphisms of a morphism of direct sums, keyed
    (source block, target block); each keeps its nonzero components only.

    Only the nonzero entries of d are visited, each placed in its block by
    bisection of the block offsets."""
    src, dst = d.source, d.target
    comps: Dict[Tuple[int, int], dict] = {}
    for v, full in d.components.items():
        roff, coff = dst.block_offsets(v), src.block_offsets(v)
        blocks: Dict[Tuple[int, int], list] = {}
        for j, col in full.columns.items():
            ai = bisect_right(coff, j) - 1
            for i, x in col.items():
                bi = bisect_right(roff, i) - 1
                blocks.setdefault((ai, bi), []).append(
                    (i - roff[bi], j - coff[ai], x))
        for (ai, bi), entries in blocks.items():
            comps.setdefault((ai, bi), {})[v] = ExactMatrix.from_entries(
                roff[bi + 1] - roff[bi], coff[ai + 1] - coff[ai], entries,
                src.ring)
    return {(ai, bi): RepMorphism(src.blocks[ai][1], dst.blocks[bi][1], c)
            for (ai, bi), c in sorted(comps.items())}


class HomComplex:
    """Hom(X, Y) as a ChainComplex plus the labeled block basis behind it."""

    def __init__(self, X: ComplexOfReps, Y: ComplexOfReps):
        if X.quiver.vertices != Y.quiver.vertices or \
                X.quiver.arrows != Y.quiver.arrows:
            raise ValueError("complexes live on different quivers")
        self.X, self.Y = X, Y
        self.ring = X.ring
        self.pairs = _PairCache()
        xdeg, ydeg = X.degrees(), Y.degrees()
        self.basis: Dict[int, List[HomBasisElement]] = {}
        if xdeg and ydeg:
            for m in range(ydeg[0] - xdeg[-1], ydeg[-1] - xdeg[0] + 1):
                basis = self._degree_basis(m)
                if basis:
                    self.basis[m] = basis
        # (p, src_block, dst_block) -> index of its generator 0 in degree m;
        # generator k of the block pair sits at that index + k
        self._start: Dict[int, Dict[tuple, int]] = {}
        for m, bs in self.basis.items():
            starts = self._start[m] = {}
            for i, e in enumerate(bs):
                starts.setdefault((e.p, e.src_block, e.dst_block), i)
        dX = self._differential_blocks(X)
        self._dX_into = dX[1]
        self._dY_from = (dX if Y is X else self._differential_blocks(Y))[0]
        self.complex = self._build_complex()

    # -- basis ------------------------------------------------------------

    def _degree_basis(self, m: int) -> List[HomBasisElement]:
        out = []
        for p in self.X.degrees():
            xt = self.X.term(p)
            yt = self.Y.term(p + m)
            if xt is None or yt is None:
                continue
            for ai, (aname, arep) in enumerate(xt.blocks):
                for bi, (bname, brep) in enumerate(yt.blocks):
                    for k, gen in enumerate(self.pairs.gens(arep, brep)):
                        out.append(HomBasisElement(
                            p, ai, bi, k, gen,
                            _label_for(aname, bname, k, p)))
        return out

    def rank(self, m: int) -> int:
        return len(self.basis.get(m, []))

    def ranks(self) -> Dict[int, int]:
        return {m: len(b) for m, b in sorted(self.basis.items())}

    def labels(self, m: int) -> List[HomLabel]:
        return [e.label for e in self.basis.get(m, [])]

    def rendered_labels(self, m: int) -> List[str]:
        """Superscripted exactly where (kind, indices) repeats in degree m."""
        labels = self.labels(m)
        counts: Dict[tuple, int] = {}
        for l in labels:
            counts[(l.kind, l.indices)] = counts.get((l.kind, l.indices), 0) + 1
        return [l.render(counts[(l.kind, l.indices)] > 1) for l in labels]

    def find(self, m: int, kind: str, indices: tuple,
             p: Optional[int] = None) -> int:
        hits = [i for i, e in enumerate(self.basis.get(m, []))
                if e.label.matches(kind, indices, p)]
        if len(hits) != 1:
            raise KeyError(f"label ({kind}, {indices}, p={p}) matches "
                           f"{len(hits)} basis elements in degree {m}")
        return hits[0]

    def element(self, m: int, terms: Sequence[Tuple[str, tuple, Optional[int], object]]):
        """Sparse element of degree m from (kind, indices, p, coeff) terms."""
        coeffs: Dict[int, object] = {}
        for kind, indices, p, c in terms:
            coeffs[self.find(m, kind, indices, p)] = self.ring.element(c)
        return (m, coeffs)

    # -- differential -------------------------------------------------------

    def _differential_blocks(self, Z: ComplexOfReps) -> Tuple[dict, dict]:
        """The nonzero blocks ai -> bi of every d_Z^q in generator
        coordinates, with one solve per pair of block reps (a, b), indexed
        twice: (q, ai) -> [(bi, b, coordinates)] for the blocks leaving ai,
        and (q, bi) -> [(ai, a, coordinates)] for those entering bi."""
        groups: Dict[tuple, list] = {}
        for q, d in Z.differentials.items():
            for (ai, bi), blk in _block_components(d).items():
                groups.setdefault((blk.source, blk.target), []).append(
                    (q, ai, bi, blk))
        leaving: Dict[Tuple[int, int], list] = {}
        entering: Dict[Tuple[int, int], list] = {}
        for (a, b), group in groups.items():
            coords = self.pairs.coordinates(a, b, [x[3] for x in group])
            for (q, ai, bi, _), co in zip(group, coords):
                leaving.setdefault((q, ai), []).append((bi, b, co))
                entering.setdefault((q, bi), []).append((ai, a, co))
        return leaving, entering

    def _build_complex(self) -> ChainComplex:
        """d(f) = d_Y . f - (-1)^m f . d_X on each generator f of degree m,
        contracted from the blocks' coordinates and the composition
        tables."""
        ranks = self.ranks()
        diffs = {}
        for m, basis in self.basis.items():
            starts = self._start.get(m + 1)
            if not starts:
                continue
            entries = []
            sign = -1 if m % 2 else 1
            for j, e in enumerate(basis):
                a, b = e.morphism.source, e.morphism.target
                col: Dict[int, object] = {}
                # d_Y . f: blocks bi -> ci of d_Y leaving f's target block
                for ci, c, coords in self._dY_from.get(
                        (e.p + m, e.dst_block), ()):
                    table = self.pairs.table(a, b, c)
                    for r, x in coords:
                        for s, y in table.get((r, e.k), ()):
                            i = starts[(e.p, e.src_block, ci)] + s
                            col[i] = col.get(i, 0) + x * y
                # -(-1)^m f . d_X: blocks a0 -> ai of d_X entering f's source
                for a0i, a0, coords in self._dX_into.get(
                        (e.p - 1, e.src_block), ()):
                    table = self.pairs.table(a0, a, b)
                    for r, x in coords:
                        for s, y in table.get((e.k, r), ()):
                            i = starts[(e.p - 1, a0i, e.dst_block)] + s
                            col[i] = col.get(i, 0) - sign * x * y
                entries.extend((i, j, c) for i, c in col.items())
            diffs[m] = ExactMatrix.from_entries(
                len(self.basis[m + 1]), len(basis), entries, self.ring)
        labels = {m: self.rendered_labels(m) for m in self.basis}
        return ChainComplex(self.ring, ranks, diffs, labels)

    def differential_table(self, m: int) -> List[Tuple[str, Dict[str, object]]]:
        """Rows (label, {target label: coefficient}) of d on degree m."""
        names = self.rendered_labels(m)
        tgt_names = self.rendered_labels(m + 1)
        d = self.complex.d(m)
        rows = []
        for j, name in enumerate(names):
            img = {tgt_names[i]: x
                   for i, x in sorted(d.columns.get(j, {}).items())}
            rows.append((name, img))
        return rows


# ---------------------------------------------------------------------------
# endomorphism dg algebras
# ---------------------------------------------------------------------------


class EndAlgebra(DgAlgebra):
    """End(X) with the labeled Hom basis kept alongside the dg structure."""

    def __init__(self, hom: HomComplex):
        self.hom = hom
        cc = hom.complex
        ring = hom.ring
        unit: Dict[int, object] = {}
        for p in hom.X.degrees():
            for ai, (_, arep) in enumerate(hom.X.term(p).blocks):
                coords = hom.pairs.unit(arep)
                if coords:
                    i0 = hom._start[0][(p, ai, ai)]
                    for r, c in coords:
                        unit[i0 + r] = c
        by_src: Dict[Tuple[int, int, int],
                     List[Tuple[int, HomBasisElement]]] = {}
        for m, basis in hom.basis.items():
            for i, e in enumerate(basis):
                by_src.setdefault((m, e.p, e.src_block), []).append((i, e))
        # f . g for g: a -> b and f: b -> c is the (f.k, g.k) entry of the
        # table of (a, b, c)
        mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]] = {}
        for m2, basis2 in hom.basis.items():
            for j, g in enumerate(basis2):
                a, b = g.morphism.source, g.morphism.target
                for m1 in hom.basis:
                    starts = hom._start.get(m1 + m2)
                    if not starts:
                        continue
                    for i, f in by_src.get((m1, g.p + m2, g.dst_block), ()):
                        coords = hom.pairs.table(
                            a, b, f.morphism.target).get((f.k, g.k))
                        if coords:
                            i0 = starts[(g.p, g.src_block, f.dst_block)]
                            mult.setdefault((m1, m2), {})[(i, j)] = {
                                i0 + r: c for r, c in coords}
        labels = {m: hom.rendered_labels(m) for m in hom.basis}
        super().__init__(ring, dict(cc.ranks), labels, unit,
                         dict(cc.differentials), mult)

    def element(self, m, terms):
        return self.hom.element(m, terms)


def end_dg_algebra(X: ComplexOfReps) -> EndAlgebra:
    """End(X): underlying complex Hom(X, X), product = composition."""
    problems = validate_complex_of_reps(X)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    return EndAlgebra(HomComplex(X, X))
