"""Bounded complexes of representations and their endomorphism dg algebras.

A complex of representations carries named blocks in every term; the Hom
complex between two such complexes gets its basis from the block-pair Hom
spaces, labeled in the h/e/p convention for closure-representation blocks
("H1" -> "E2" gives he_12, and so on), with the source term degree kept on
every label so that labels can be disambiguated with a superscript.  The
coordinates, composition tables and units of block pairs are those of
`quiver_rep` (`hom_coordinates`, `hom_table`, `hom_unit`), which
remembers them on the blocks.

Sign convention throughout: d(f) = d_Y . f - (-1)^|f| f . d_X.  The mapping
cone and shift conventions live in chain_complex.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chain_complex import ChainComplex, ChainMap, cone_report, mapping_cone
from .dg import DgAlgebra
from .exact_linalg import CoeffRing, ExactMatrix
from .quiver_rep import (
    Quiver,
    RepMorphism,
    Representation,
    _support_index,
    hom_coordinates,
    hom_space,
    hom_table,
    hom_unit,
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
        self._problems: Optional[list] = None  # validate_complex_of_reps

    def degrees(self) -> List[int]:
        return sorted(self.terms)

    def term(self, q: int) -> Optional[Representation]:
        return self.terms.get(q)

    def differential(self, q: int) -> Optional[RepMorphism]:
        return self.differentials.get(q)


def validate_complex_of_reps(X: ComplexOfReps) -> list:
    """Structural problems of X, remembered on X: `end_dg_algebra` does not
    check again what `validate_resolution` checked."""
    if X._problems is not None:
        return list(X._problems)
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
    X._problems = problems
    return list(problems)


class ResolutionReport:
    def __init__(self, ok: bool, failures: List[dict]):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok


def validate_resolution(J: ComplexOfReps,
                        targets: Dict[int, Tuple[Representation, RepMorphism]]
                        ) -> ResolutionReport:
    """Is the augmentation (targets, placed per degree) -> J a quasi-iso
    on every vertex stalk?

    targets maps a placement degree to (representation, morphism into
    J^degree); the target complex carries zero differentials.  Exactness is
    checked over the ring on one cone, of the augmentation summed over all
    vertex stalks; only if that is not acyclic does each vertex get its own,
    to report each failing (vertex, degrees).  The checks of J and of
    d . augmentation = 0 cover these complexes and maps, which get that
    verdict.
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
    if not failures and _inexact_degrees(J, targets, J.quiver.vertices):
        failures = [{"vertex": v, "degrees": bad} for v in J.quiver.vertices
                    for bad in [_inexact_degrees(J, targets, [v])] if bad]
    return ResolutionReport(not failures, failures)


def _inexact_degrees(J: ComplexOfReps, targets: dict,
                     vertices: Sequence[str]) -> List[int]:
    """The degrees where the cone of the augmentation, summed over the
    stalks at vertices (block-diagonal, in their order), has cohomology."""
    def summed(d: RepMorphism) -> ExactMatrix:
        cols, r0, c0 = {}, 0, 0
        for v in vertices:
            for j, col in d.component(v).columns.items():
                cols[c0 + j] = {r0 + i: x for i, x in col.items()}
            r0, c0 = r0 + d.target.rank(v), c0 + d.source.rank(v)
        return ExactMatrix(J.ring, r0, c0, cols)

    comps = {q: summed(m) for q, (_, m) in targets.items()}
    source = ChainComplex(J.ring, {q: m.cols for q, m in comps.items()}, {})
    stalks = ChainComplex(J.ring, {
        q: sum(t.rank(v) for v in vertices) for q, t in J.terms.items()}, {
        q: summed(d) for q, d in J.differentials.items()})
    aug = ChainMap(source, stalks, comps)
    source._problems = stalks._problems = aug._problems = []
    return [q for q, r in cone_report(mapping_cone(aug)).items()
            if r["betti"] or r["torsion"]]


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

_BLOCK_RE = re.compile(r"^([HEP])(\d+)$")


class HomLabel(NamedTuple):
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


class HomBasisElement:
    def __init__(self, p: int, src_block: int, dst_block: int, k: int,
                 morphism: RepMorphism, label: HomLabel):
        self.p = p                      # source term degree
        self.src_block = src_block
        self.dst_block = dst_block
        self.k = k                      # index inside the block-pair hom basis
        self.morphism = morphism        # block source rep -> block target rep
        self.label = label


def _block_components(d: RepMorphism) -> Dict[Tuple[int, int], RepMorphism]:
    """The nonzero block morphisms of a morphism of direct sums, keyed
    (source block, target block); each keeps its nonzero components only.

    Only the nonzero entries of d are visited, each placed in its block by
    a table of the block that holds each row and each column."""
    src, dst = d.source, d.target
    comps: Dict[Tuple[int, int], dict] = {}
    for v, full in d.components.items():
        roff, coff = dst.block_offsets(v), src.block_offsets(v)
        rblock, cblock = ([b for b in range(len(off) - 1)
                           for _ in range(off[b], off[b + 1])]
                          for off in (roff, coff))
        blocks: Dict[Tuple[int, int], list] = {}
        for j, col in full.columns.items():
            ai = cblock[j]
            for i, x in col.items():
                bi = rblock[i]
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
        self._label_index: Dict[int, Dict[tuple, List[int]]] = {}
        self._rendered: Dict[int, List[str]] = {}
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
        """The block-pair Hom generators of degree m, in (p, source block,
        target block, k) order, over the pairs whose supports meet (a Hom
        between disjoint supports is 0), by an index of blocks by vertex."""
        out = []
        for p in self.X.degrees():
            xt = self.X.term(p)
            yt = self.Y.term(p + m)
            if xt is None or yt is None:
                continue
            at = _support_index(rep for _, rep in yt.blocks)
            for ai, (aname, arep) in enumerate(xt.blocks):
                meet = {bi for v in arep._support for bi in at.get(v, ())}
                for bi in sorted(meet):
                    bname, brep = yt.blocks[bi]
                    for k, gen in enumerate(hom_space(arep, brep)):
                        out.append(HomBasisElement(
                            p, ai, bi, k, gen,
                            _label_for(aname, bname, k, p)))
        return out

    def ranks(self) -> Dict[int, int]:
        return {m: len(b) for m, b in sorted(self.basis.items())}

    def rendered_labels(self, m: int) -> List[str]:
        """Superscripted exactly where (kind, indices) repeats in degree m;
        rendered once per degree, and the list is shared (`EndAlgebra`,
        `differential_table`)."""
        if m not in self._rendered:
            labels = [e.label for e in self.basis.get(m, [])]
            counts = Counter((l.kind, l.indices) for l in labels)
            self._rendered[m] = [l.render(counts[(l.kind, l.indices)] > 1)
                                 for l in labels]
        return self._rendered[m]

    def find(self, m: int, kind: str, indices: tuple,
             p: Optional[int] = None) -> int:
        """The position of the one basis element of degree m whose label
        matches; KeyError when none or several do."""
        index = self._label_index.get(m)
        if index is None:
            # (kind, indices, p) and (kind, indices, None) -> positions
            index = self._label_index[m] = {}
            for i, e in enumerate(self.basis.get(m, [])):
                l = e.label
                for key in ((l.kind, l.indices, l.p),
                            (l.kind, l.indices, None)):
                    index.setdefault(key, []).append(i)
        hits = index.get((kind, tuple(indices), p), [])
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
            coords = hom_coordinates(a, b, [x[3] for x in group])
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
                    table = hom_table(a, b, c)
                    for r, x in coords:
                        for s, y in table.get((r, e.k), ()):
                            i = starts[(e.p, e.src_block, ci)] + s
                            col[i] = col.get(i, 0) + x * y
                # -(-1)^m f . d_X: blocks a0 -> ai of d_X entering f's source
                for a0i, a0, coords in self._dX_into.get(
                        (e.p - 1, e.src_block), ()):
                    table = hom_table(a0, a, b)
                    for r, x in coords:
                        for s, y in table.get((e.k, r), ()):
                            i = starts[(e.p - 1, a0i, e.dst_block)] + s
                            col[i] = col.get(i, 0) - sign * x * y
                entries.extend((i, j, c) for i, c in col.items())
            diffs[m] = ExactMatrix.from_entries(
                len(self.basis[m + 1]), len(basis), entries, self.ring)
        return ChainComplex(self.ring, ranks, diffs)

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
    """End(X) with the labeled Hom basis kept alongside the dg structure.

    The structure constants are built the first time `mult` is read, so a
    caller that needs only the complex (ranks, cohomology) never pays for
    the products."""

    def __init__(self, hom: HomComplex):
        self.hom = hom
        cc = hom.complex
        unit: Dict[int, object] = {}
        for p in hom.X.degrees():
            for ai, (_, arep) in enumerate(hom.X.term(p).blocks):
                coords = hom_unit(arep)
                if coords:
                    i0 = hom._start[0][(p, ai, ai)]
                    for r, c in coords:
                        unit[i0 + r] = c
        labels = {m: hom.rendered_labels(m) for m in hom.basis}
        self._init_complex(hom.ring, cc.ranks, labels, unit,
                           cc.differentials)
        self._complex = cc

    @cached_property
    def mult(self) -> Dict[Tuple[int, int], Dict[Tuple[int, int], dict]]:
        return _end_products(self.hom)

    def element(self, m, terms):
        return self.hom.element(m, terms)


def _end_products(hom: HomComplex
                  ) -> Dict[Tuple[int, int], Dict[Tuple[int, int], dict]]:
    """The structure constants of End: f . g for g: a -> b and f: b -> c
    is the (f.k, g.k) entry of the composition table of (a, b, c)."""
    by_src: Dict[Tuple[int, int, int],
                 List[Tuple[int, HomBasisElement]]] = {}
    for m, basis in hom.basis.items():
        for i, e in enumerate(basis):
            by_src.setdefault((m, e.p, e.src_block), []).append((i, e))
    mult: Dict[Tuple[int, int], Dict[Tuple[int, int], dict]] = {}
    for m2, basis2 in hom.basis.items():
        for j, g in enumerate(basis2):
            a, b = g.morphism.source, g.morphism.target
            for m1 in hom.basis:
                starts = hom._start.get(m1 + m2)
                if not starts:
                    continue
                for i, f in by_src.get((m1, g.p + m2, g.dst_block), ()):
                    coords = hom_table(a, b, f.morphism.target).get(
                        (f.k, g.k))
                    if coords:
                        i0 = starts[(g.p, g.src_block, f.dst_block)]
                        mult.setdefault((m1, m2), {})[(i, j)] = {
                            i0 + r: c for r, c in coords}
    return mult


def end_dg_algebra(X: ComplexOfReps) -> EndAlgebra:
    """End(X): underlying complex Hom(X, X), product = composition."""
    problems = validate_complex_of_reps(X)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    return EndAlgebra(HomComplex(X, X))
