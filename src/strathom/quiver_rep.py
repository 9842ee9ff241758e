"""Stratification posets, their quivers, and representations with free stalks.

The quiver of a poset keeps only the Hasse covering arrows; identifying all
parallel paths makes a representation the same thing as a functor from the
poset to free modules, so validation reduces to comparing composite matrices
along parallel arrow paths.  Hom spaces are kernels of the commuting-square
linear system; for thin representations (stalks of rank <= 1, arrows in
{0, +-1}) a signed union-find over the common support solves the squares
instead, and gives the basis whenever the rank is at most 1.  Ext groups
are read from the stalks of the target against evaluation-cover projective
resolutions, since Hom(P_x, W) = W(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .chain_complex import ChainComplex, cone_report, validate_complex
from .exact_linalg import (
    CoeffRing,
    ColumnLattice,
    ExactMatrix,
    PresolvedSolver,
    ZZ,
    kernel_basis,
    invariant_factors,
    rank,
)


class StratPoset:
    """Finite poset of strata with a declared closure order.

    The acyclicity of the stratification is a user assertion, recorded but
    never verified (that would need topology, not combinatorics).
    """

    def __init__(self, strata: Sequence[Tuple[str, int]],
                 covers: Sequence[Tuple[str, str]],
                 acyclicity_asserted: bool = False):
        names = [s for s, _ in strata]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stratum names")
        self.strata = list(names)
        self.dim = dict(strata)
        self.acyclicity_asserted = acyclicity_asserted
        idx = {s: i for i, s in enumerate(names)}
        for a, b in covers:
            if a not in idx or b not in idx:
                raise ValueError(f"cover ({a}, {b}) uses unknown stratum")
        n = len(names)
        # reflexive-transitive closure of the declared covers
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for a, b in covers:
            leq[idx[a]][idx[b]] = True
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if leq[i][j] and i != j:
                        for k in range(n):
                            if leq[j][k] and not leq[i][k]:
                                leq[i][k] = True
                                changed = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ValueError(
                        f"closure order is not antisymmetric: "
                        f"{names[i]} and {names[j]} are comparable both ways")
        self._idx = idx
        self._leq = leq

    def leq(self, a: str, b: str) -> bool:
        return self._leq[self._idx[a]][self._idx[b]]

    def hasse_covers(self) -> List[Tuple[str, str]]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        out = []
        for a in self.strata:
            for b in self.strata:
                if a == b or not self.leq(a, b):
                    continue
                if any(c not in (a, b) and self.leq(a, c) and self.leq(c, b)
                       for c in self.strata):
                    continue
                out.append((a, b))
        return out

    def up_set(self, a: str) -> List[str]:
        return [b for b in self.strata if self.leq(a, b)]

    def down_set(self, a: str) -> List[str]:
        return [b for b in self.strata if self.leq(b, a)]


class Quiver:
    """Hasse diagram of a poset, with all parallel paths identified."""

    def __init__(self, poset: StratPoset):
        self.poset = poset
        self.vertices = list(poset.strata)
        self.arrows = poset.hasse_covers()
        self._out: Dict[str, List[str]] = {v: [] for v in self.vertices}
        self._in: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for a, b in self.arrows:
            self._out[a].append(b)
            self._in[b].append(a)

    def paths(self, src: str, dst: str) -> List[List[str]]:
        """All directed Hasse paths src -> ... -> dst."""
        if src == dst:
            return [[src]]
        out = []
        for mid in self._out[src]:
            if self.poset.leq(mid, dst):
                for tail in self.paths(mid, dst):
                    out.append([src] + tail)
        return out


class Representation:
    """Functor from the poset to free modules: stalk ranks + arrow matrices.

    `blocks`, when present, records a direct-sum decomposition as a list of
    (name, component representation); downstream code uses it to label Hom
    bases.
    """

    def __init__(self, quiver: Quiver, ring: CoeffRing,
                 stalk_rank: Dict[str, int],
                 arrow_map: Dict[Tuple[str, str], ExactMatrix],
                 blocks: Optional[List[Tuple[str, "Representation"]]] = None):
        self.quiver = quiver
        self.ring = ring
        self.stalk_rank = {v: stalk_rank.get(v, 0) for v in quiver.vertices}
        self.arrow_map = dict(arrow_map)
        self.blocks = blocks if blocks is not None else [("", self)]
        self._offsets: Optional[Dict[str, List[int]]] = None
        self._support = [v for v in quiver.vertices if self.stalk_rank[v]]
        self._thin: Optional[bool] = None

    def is_thin(self) -> bool:
        """Every stalk of rank <= 1 and every arrow scalar in {0, 1, -1}."""
        if self._thin is None:
            self._thin = (
                all(r <= 1 for r in self.stalk_rank.values())
                and all(x in (0, 1, -1) for m in self.arrow_map.values()
                        for col in m.columns.values() for x in col.values()))
        return self._thin

    def rank(self, v: str) -> int:
        return self.stalk_rank[v]

    def arrow(self, a: str, b: str) -> ExactMatrix:
        m = self.arrow_map.get((a, b))
        if m is None:
            return ExactMatrix.zeros(self.rank(b), self.rank(a), self.ring)
        return m

    def path_matrix(self, path: Sequence[str]) -> ExactMatrix:
        m = ExactMatrix.identity(self.rank(path[0]), self.ring)
        for a, b in zip(path, path[1:]):
            m = self.arrow(a, b) @ m
        return m

    def total_rank(self) -> int:
        return sum(self.stalk_rank.values())

    def support(self) -> List[str]:
        return list(self._support)

    def block_offsets(self, v: str) -> List[int]:
        """Where each block starts in the stalk at v, then the stalk rank;
        computed for every vertex at the first call (`blocks` is fixed)."""
        if self._offsets is None:
            ranks = [rep.stalk_rank for _, rep in self.blocks]
            self._offsets = {v: list(accumulate((r[v] for r in ranks),
                                                initial=0))
                             for v in self.quiver.vertices}
        return self._offsets[v]

    def is_zero(self) -> bool:
        return self.total_rank() == 0


def validate_representation(V: Representation) -> list:
    """Shape errors plus every parallel-path commutativity failure."""
    problems = []
    q = V.quiver
    for (a, b), m in V.arrow_map.items():
        if (a, b) not in q.arrows and not m.is_zero():
            problems.append(f"map on non-arrow ({a}, {b})")
        elif m.shape != (V.rank(b), V.rank(a)):
            problems.append(f"arrow ({a}, {b}) matrix has shape {m.shape}, "
                            f"expected {(V.rank(b), V.rank(a))}")
    if problems:
        return problems
    for src in q.vertices:
        for dst in q.vertices:
            if src == dst or not q.poset.leq(src, dst):
                continue
            paths = q.paths(src, dst)
            if len(paths) < 2:
                continue
            base = V.path_matrix(paths[0])
            for p in paths[1:]:
                if V.path_matrix(p) != base:
                    problems.append(
                        f"parallel paths {paths[0]} and {p} disagree")
                    break
    return problems


class RepMorphism:
    """Per-vertex matrices commuting with every arrow map."""

    def __init__(self, source: Representation, target: Representation,
                 components: Dict[str, ExactMatrix]):
        self.source = source
        self.target = target
        self.components = {v: m for v, m in components.items()
                           if m.rows and m.cols}

    def component(self, v: str) -> ExactMatrix:
        m = self.components.get(v)
        if m is None:
            return ExactMatrix.zeros(self.target.rank(v), self.source.rank(v),
                                     self.source.ring)
        return m

    def validate(self) -> list:
        problems = []
        for v, m in self.components.items():
            want = (self.target.rank(v), self.source.rank(v))
            if m.shape != want:
                problems.append(f"component at {v} has shape {m.shape}, "
                                f"expected {want}")
        if problems:
            return problems
        for a, b in self.source.quiver.arrows:
            lhs = self.component(b) @ self.source.arrow(a, b)
            rhs = self.target.arrow(a, b) @ self.component(a)
            if not (lhs - rhs).is_zero():
                problems.append(f"square at arrow ({a}, {b}) does not commute")
        return problems

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        comps = {}
        for v, g in other.components.items():
            f = self.components.get(v)
            if f is None:
                continue
            m = f @ g
            if m.rows and m.cols and not m.is_zero():
                comps[v] = m
        return RepMorphism(other.source, self.target, comps)

    def scale(self, c) -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           {v: m.scale(c) for v, m in self.components.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())


def _common_support(V: Representation, W: Representation) -> List[str]:
    """The vertices where both V and W have a nonzero stalk, in quiver
    order."""
    if V.quiver is not W.quiver and (V.quiver.vertices != W.quiver.vertices
                                     or V.quiver.arrows != W.quiver.arrows):
        raise ValueError("representations live on different quivers")
    return [v for v in V._support if W.stalk_rank[v]]


def _thin_generators(V: Representation, W: Representation,
                     common: List[str]) -> Optional[List[Dict[str, int]]]:
    """A basis of Hom(V, W) as {vertex: +-1} maps when V and W are thin
    or have no common support, else None.  Each generator is one component,
    with a positive first entry.

    The square f_b V_ab = W_ab f_a of each arrow meeting the common support
    says f_b = 0, f_a = 0 or f_b = +-f_a.  A signed union-find (union by
    size) joins the vertices; a component is zero if it is forced to 0 or
    if its signs contradict.
    """
    if not common:
        return []
    if not (V.is_thin() and W.is_thin()):
        return None
    up = {v: (v, 1) for v in common}  # (parent, sign): f_v = sign f_parent
    size = dict.fromkeys(common, 1)
    dead = set()

    def find(v):
        s = 1
        while up[v][0] != v:
            v, t = up[v]
            s *= t
        return v, s

    def scalar(R, a, b):
        m = R.arrow_map.get((a, b))
        return 0 if m is None else m[0, 0]

    out, into = V.quiver._out, V.quiver._in
    squares = [(c, b) for c in common for b in out[c] if W.stalk_rank[b]]
    squares += [(a, c) for c in common for a in into[c]
                if V.stalk_rank[a] and not W.stalk_rank[a]]
    for a, b in squares:  # `size` is keyed by the common support
        vb = scalar(V, a, b) if b in size else 0  # the term f_b V_ab
        wa = scalar(W, a, b) if a in size else 0  # the term W_ab f_a
        if vb and wa:
            (ra, sa), (rb, sb) = find(a), find(b)
            sign = sa * sb * (1 if vb == wa else -1)  # f_rb = sign f_ra
            if ra == rb:
                if sign != 1:
                    dead.add(ra)
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            up[rb] = (ra, sign)
            size[ra] += size[rb]
            if rb in dead:
                dead.add(ra)
        elif vb or wa:
            dead.add(find(b if vb else a)[0])
    gens: Dict[str, Dict[str, int]] = {}
    for v in common:
        r, s = find(v)
        if r not in dead:
            gens.setdefault(r, {})[v] = s
    return [{v: s * next(iter(g.values())) for v, s in g.items()}
            for g in gens.values()]


def _hom_system(V: Representation, W: Representation
                ) -> Tuple[Optional[ExactMatrix], Dict[str, int]]:
    """The commuting-square system f_b V_ab = W_ab f_a of Hom(V, W) (None
    without a common support), and the column of f_v[0, 0] for each common
    vertex v; the unknowns f_v[i, j] run in (vertex, row, col) order."""
    common = _common_support(V, W)
    if not common:
        return None, {}
    *offs, ncols = accumulate((W.rank(v) * V.rank(v) for v in common),
                              initial=0)
    start = dict(zip(common, offs))
    rows = []
    for a, b in V.quiver.arrows:
        if not W.rank(b) or not V.rank(a):
            continue  # no equations
        va = V.arrow(a, b).columns
        wa = W.arrow(a, b).by_rows()
        # f_b . V_ab = W_ab . f_a, one equation per (i, j)
        for i in range(W.rank(b)):
            for j in range(V.rank(a)):
                row: dict = {}
                for k, x in va.get(j, {}).items():
                    at = start[b] + i * V.rank(b) + k
                    row[at] = row.get(at, 0) + x
                for k, x in wa.get(i, {}).items():
                    at = start[a] + k * V.rank(a) + j
                    row[at] = row.get(at, 0) - x
                if any(row.values()):
                    rows.append(row)
    return ExactMatrix.from_entries(len(rows), ncols, (
        (r, c, x) for r, row in enumerate(rows) for c, x in row.items()),
        V.ring), start


def hom_rank(V: Representation, W: Representation) -> int:
    """Rank of Hom(V, W): the union-find components for thin V and W, else
    from invariant factors, with no kernel basis."""
    gens = _thin_generators(V, W, _common_support(V, W))
    if gens is not None:
        return len(gens)
    system, start = _hom_system(V, W)
    if not start:
        return 0
    return system.cols - rank(system) if system.rows else system.cols


def hom_space(V: Representation, W: Representation) -> List[RepMorphism]:
    """Basis of the morphism lattice Hom(V, W).

    Over the integers the basis spans the full lattice of integral
    morphisms.  Each basis morphism is normalized so its first nonzero
    stalk entry is positive (and equal to 1 over the rationals).  For thin
    V and W of rank <= 1 the generator is read off the union-find
    (`_thin_generators`); it is the unique normalized primitive one, so
    it equals the dense route's.  Otherwise `_dense_hom_space` solves the
    commuting-square system.
    """
    common = _common_support(V, W)
    gens = _thin_generators(V, W, common)
    if gens is None or len(gens) > 1:
        return _dense_hom_space(V, W)
    return [RepMorphism(V, W, {v: ExactMatrix.from_rows([[g.get(v, 0)]],
                                                        V.ring)
                               for v in common}) for g in gens]


def _dense_hom_space(V: Representation, W: Representation
                     ) -> List[RepMorphism]:
    """`hom_space` from a kernel basis of the commuting-square system."""
    ring = V.ring
    system, start = _hom_system(V, W)
    if not start:
        return []
    basis = kernel_basis(system)
    out = []
    for jcol in range(basis.cols):
        col = basis.col(jcol)
        lead = next(x for x in col if x != 0)
        if ring.is_field:
            col = [x / lead for x in col]
        elif lead < 0:
            col = [-x for x in col]
        comps = {}
        for v, at in start.items():
            r, c = W.rank(v), V.rank(v)
            comps[v] = ExactMatrix.from_entries(r, c, (
                (k // c, k % c, x) for k, x in enumerate(col[at:at + r * c])),
                ring)
        out.append(RepMorphism(V, W, comps))
    return out


def zero_rep(quiver: Quiver, ring: CoeffRing) -> Representation:
    return Representation(quiver, ring, {}, {}, blocks=[])


def direct_sum(reps: Sequence[Representation],
               names: Optional[Sequence[str]] = None,
               quiver: Optional[Quiver] = None,
               ring: Optional[CoeffRing] = None) -> Representation:
    """Stalkwise direct sum, retaining the block decomposition."""
    reps = list(reps)
    if not reps:
        if quiver is None or ring is None:
            raise ValueError("empty direct sum needs an explicit quiver/ring")
        return zero_rep(quiver, ring)
    quiver = reps[0].quiver
    ring = reps[0].ring
    if names is None:
        names = [f"s{k}" for k in range(len(reps))]
    stalks = {v: sum(r.rank(v) for r in reps) for v in quiver.vertices}
    arrows = {}
    for a, b in quiver.arrows:
        rb, ra = stalks[b], stalks[a]
        if not rb or not ra:
            continue
        entries = []
        ro = co = 0
        for rep in reps:
            blk = rep.arrow_map.get((a, b))
            if blk is not None:
                entries.extend((ro + i, co + j, x)
                               for j, col in blk.columns.items()
                               for i, x in col.items())
            ro += rep.rank(b)
            co += rep.rank(a)
        arrows[(a, b)] = ExactMatrix.from_entries(rb, ra, entries, ring)
    blocks = list(zip(names, reps))
    return Representation(quiver, ring, stalks, arrows, blocks=blocks)


def indecomposable_projective(quiver: Quiver, x: str,
                              ring: CoeffRing = ZZ) -> Representation:
    """P_x: stalk R at every vertex reachable from x, identity arrows."""
    if x not in quiver.poset._idx:
        raise ValueError(f"unknown vertex {x!r}")
    support = set(quiver.poset.up_set(x))
    stalks = {v: 1 for v in support}
    arrows = {}
    one = ExactMatrix.identity(1, ring)
    for a, b in quiver.arrows:
        if a in support and b in support:
            arrows[(a, b)] = one
    return Representation(quiver, ring, stalks, arrows)


def closure_rep(quiver: Quiver, s: str, ring: CoeffRing = ZZ) -> Representation:
    """I_s: rank 1 on the down-set of s (its closure), identity arrows."""
    if s not in quiver.poset._idx:
        raise ValueError(f"unknown vertex {s!r}")
    support = set(quiver.poset.down_set(s))
    one = ExactMatrix.identity(1, ring)
    arrows = {(a, b): one for a, b in quiver.arrows
              if a in support and b in support}
    return Representation(quiver, ring, {v: 1 for v in support}, arrows)


@dataclass
class ProjectiveResolution:
    """... -> Q_1 -> Q_0 --aug--> V with each Q_i a sum of projectives."""

    target: Representation
    terms: List[Representation]          # Q_0, Q_1, ...
    maps: List[RepMorphism]              # maps[i]: Q_[i+1] -> Q_i
    augmentation: RepMorphism            # Q_0 -> V
    vertices: List[List[str]]            # x of each summand P_x of Q_i

    def length(self) -> int:
        return len(self.terms) - 1


def _evaluation_cover(V: Representation,
                      projectives: Dict[str, Representation]):
    """Surjection from a sum of projectives onto V, and the generator
    vertex x of each summand P_x of the cover.

    `projectives` holds the one P_x per vertex that every cover of a
    resolution shares; missing ones are built and added."""
    quiver, ring = V.quiver, V.ring
    pieces = []
    piece_info = []  # (vertex x, basis index k)
    for x in V.support():
        if x not in projectives:
            projectives[x] = indecomposable_projective(quiver, x, ring)
        for k in range(V.rank(x)):
            pieces.append(projectives[x])
            piece_info.append((x, k))
    cover = direct_sum(pieces, names=[f"P[{x}:{k}]" for x, k in piece_info],
                       quiver=quiver, ring=ring)
    comps = {}
    for v in quiver.vertices:
        rv = V.rank(v)
        cv = cover.rank(v)
        if not rv or not cv:
            continue
        entries = []
        col = 0
        for (x, k), piece in zip(piece_info, pieces):
            if piece.rank(v):
                # generator of P_x at v maps to the image of e_k in V(v)
                path = V.quiver.paths(x, v)
                vec = V.path_matrix(path[0]) if path else \
                    ExactMatrix.identity(rv, ring)
                entries.extend((i, col, y)
                               for i, y in vec.columns.get(k, {}).items())
                col += 1
        comps[v] = ExactMatrix.from_entries(rv, cv, entries, ring)
    return cover, RepMorphism(cover, V, comps), [x for x, _ in piece_info]


def _kernel_rep(f: RepMorphism) -> Tuple[Representation, RepMorphism]:
    """Kernel of f with induced arrow maps, plus its inclusion."""
    V = f.source
    quiver, ring = V.quiver, V.ring
    bases = {}
    for v in quiver.vertices:
        if V.rank(v):
            bases[v] = kernel_basis(f.component(v))
    stalks = {v: b.cols for v, b in bases.items()}
    solvers = {v: PresolvedSolver(b) for v, b in bases.items() if b.cols}
    arrows = {}
    for a, b in quiver.arrows:
        ka, kb = stalks.get(a, 0), stalks.get(b, 0)
        if not ka or not kb:
            continue
        arrows[(a, b)] = _solve_all(solvers[b], V.arrow(a, b) @ bases[a],
                                    "kernel not arrow-stable")
    K = Representation(quiver, ring, stalks, arrows)
    incl = RepMorphism(K, V, {v: bases[v] for v in bases if bases[v].cols})
    return K, incl


def projective_resolution(V: Representation,
                          max_len: Optional[int] = None) -> ProjectiveResolution:
    """Iterated evaluation covers until the kernel vanishes.

    Not minimal, but each kernel vanishes on one more layer of the poset,
    so termination is bounded by the poset height; exceeding max_len is a
    hard error rather than a silent truncation.
    """
    if max_len is None:
        max_len = len(V.quiver.vertices) + 2
    projectives: Dict[str, Representation] = {}
    cover, aug, xs = _evaluation_cover(V, projectives)
    terms, maps, vertices, onto = [cover], [], [xs], aug
    for _ in range(max_len + 1):
        K, incl = _kernel_rep(onto)
        if K.is_zero():
            return ProjectiveResolution(V, terms, maps, aug, vertices)
        cover, onto, xs = _evaluation_cover(K, projectives)
        terms.append(cover)
        vertices.append(xs)
        maps.append(incl.compose(onto))
    raise ValueError(f"resolution did not terminate within {max_len} steps")


def resolution_is_exact(res: ProjectiveResolution) -> bool:
    """Stalkwise exactness of ... -> Q_1 -> Q_0 -> V -> 0 over the ring."""
    V = res.target
    for v in V.quiver.vertices:
        mats = [res.augmentation.component(v)]
        mats.extend(m.component(v) for m in res.maps)
        # surjectivity of the augmentation stalk
        aug = mats[0]
        if V.rank(v):
            factors = invariant_factors(aug)
            if len(factors) < V.rank(v) or any(f != 1 for f in factors):
                return False
        for d_out, d_in in zip(mats, mats[1:]):
            if not (d_out @ d_in).is_zero():
                return False
            ker = kernel_basis(d_out)
            if None in PresolvedSolver(d_in).solve_many(ker):
                return False
        last = mats[-1]
        if last.cols and kernel_basis(last).cols:
            return False
    return True


@dataclass
class InjectiveCoresolution:
    """V --aug--> T_0 -> T_1 -> ... with each T_i a sum of closure reps."""

    target: Representation
    terms: List[Representation]
    maps: List[RepMorphism]             # maps[i]: T_i -> T_(i+1)
    augmentation: RepMorphism           # V -> T_0


def _coevaluation_embedding(V: Representation,
                            closures: Dict[str, Representation]):
    """Split embedding of V into a sum of closure representations.

    `closures` holds the one I_y per vertex that every term of a
    coresolution shares; missing ones are built and added."""
    quiver, ring = V.quiver, V.ring
    pieces = []
    names = []
    info = []
    for y in V.support():
        if y not in closures:
            closures[y] = closure_rep(quiver, y, ring)
        for k in range(V.rank(y)):
            pieces.append(closures[y])
            names.append(y if V.rank(y) == 1 else f"{y}.{k}")
            info.append((y, k))
    term = direct_sum(pieces, names=names, quiver=quiver, ring=ring)
    comps = {}
    for x in quiver.vertices:
        rows, cols = term.rank(x), V.rank(x)
        if not rows or not cols:
            continue
        entries = []
        at = 0
        for (y, k), piece in zip(info, pieces):
            if piece.rank(x):
                paths = quiver.paths(x, y)
                row = V.path_matrix(paths[0])  # V(x) -> V(y)
                entries.extend((at, j, row[k, j]) for j in range(cols))
                at += 1
        comps[x] = ExactMatrix.from_entries(rows, cols, entries, ring)
    return term, RepMorphism(V, term, comps)


def _cokernel_rep(f: RepMorphism):
    """Cokernel of a stalkwise split injection, with its projection.

    With P_v the projection along the image at v
    (`ColumnLattice.split_projection`), the arrows are P_b W_ab on the kept
    columns of a and the projection has components P_v.
    """
    W = f.target
    quiver, ring = W.quiver, W.ring
    keep = {}
    proj = {}
    for v in quiver.vertices:
        if not W.rank(v):
            continue
        lat = ColumnLattice(ring)
        comp = f.component(v)
        for j in range(comp.cols):
            lat.add({i: comp[i, j] for i in range(comp.rows)
                     if comp[i, j] != 0})
        try:
            keep[v], proj[v] = lat.split_projection(W.rank(v))
        except ValueError as exc:
            raise ValueError("cokernel has torsion; the embedding "
                             "was not stalkwise split") from exc
    stalks = {v: len(keep.get(v, [])) for v in quiver.vertices}
    arrows = {}
    for a, b in quiver.arrows:
        if stalks[a] and stalks[b]:
            arrows[(a, b)] = (proj[b] @ W.arrow(a, b)).take_cols(keep[a])
    C = Representation(quiver, ring, stalks, arrows)
    comps = {v: P for v, P in proj.items() if stalks[v]}
    return C, RepMorphism(W, C, comps)


def injective_coresolution(V: Representation,
                           max_len: Optional[int] = None
                           ) -> InjectiveCoresolution:
    """Iterated coevaluation embeddings until the cokernel vanishes.

    Dual to projective_resolution: cokernels vanish on one more layer of
    the poset, measured from the maximal vertices, per step.
    """
    if max_len is None:
        max_len = len(V.quiver.vertices) + 2
    closures: Dict[str, Representation] = {}
    term, aug = _coevaluation_embedding(V, closures)
    terms = [term]
    maps: List[RepMorphism] = []
    emb = aug
    for _ in range(max_len + 1):
        C, proj = _cokernel_rep(emb)
        if C.is_zero():
            return InjectiveCoresolution(V, terms, maps, aug)
        nxt, emb2 = _coevaluation_embedding(C, closures)
        terms.append(nxt)
        maps.append(emb2.compose(proj))
        emb = emb2
    raise ValueError(f"coresolution did not terminate within {max_len} steps")


def hom_complex_against(res: ProjectiveResolution,
                        W: Representation) -> ChainComplex:
    """Cochain complex Hom(Q_q, W) in degree q, differential f -> f . d.

    Read off the stalks of W by Yoneda, Hom(P_x, W) = W(x): degree q is the
    sum of W(x_b) over the summands P_(x_b) of Q_q.  The generator of a
    summand c of Q_(q+1), at its vertex y_c, goes under d to the scalars
    s_(b,c) on the summands b of Q_q present at y_c, so block (c, b) of the
    differential is s_(b,c) W(x_b -> y_c).  No linear system is solved.
    """
    quiver, leq, vertices = W.quiver, W.quiver.poset.leq, res.vertices
    offsets = [list(accumulate((W.rank(x) for x in xs), initial=0))
               for xs in vertices]
    ranks = {q: offs[-1] for q, offs in enumerate(offsets)}
    paths: Dict[Tuple[str, str], ExactMatrix] = {}
    diffs = {}
    for q, d in enumerate(res.maps):
        if not ranks[q] or not ranks[q + 1]:
            continue
        src, dst = offsets[q], offsets[q + 1]
        entries = []
        for y in dict.fromkeys(y for y in vertices[q + 1] if W.rank(y)):
            # the summands of Q_q and of Q_(q+1) present at y, in stalk order
            rows, cols = ([b for b, x in enumerate(xs) if leq(x, y)]
                          for xs in (vertices[q], vertices[q + 1]))
            comp = d.component(y).columns
            for j, c in enumerate(cols):
                if vertices[q + 1][c] != y:
                    continue
                for i, s in comp.get(j, {}).items():
                    b = rows[i]
                    x = vertices[q][b]
                    if not W.rank(x):
                        continue
                    if (x, y) not in paths:
                        paths[(x, y)] = W.path_matrix(quiver.paths(x, y)[0])
                    entries.extend(
                        (dst[c] + k, src[b] + l, s * w)
                        for l, col in paths[(x, y)].columns.items()
                        for k, w in col.items())
        diffs[q] = ExactMatrix.from_entries(ranks[q + 1], ranks[q], entries,
                                            W.ring)
    return ChainComplex(W.ring, ranks, diffs)


def _stack_flat(morphisms: Sequence[RepMorphism]) -> ExactMatrix:
    """Morphisms V -> W (at least one) as the columns of one matrix: the
    entries of each, in (vertex, row, col) order over the common support of
    V and W, as `_hom_system` numbers its unknowns."""
    V, W = morphisms[0].source, morphisms[0].target
    entries = []
    at = 0
    for v in V._support:
        if W.stalk_rank[v]:
            c = V.stalk_rank[v]
            for t, m in enumerate(morphisms):
                entries.extend((at + i * c + j, t, x) for j, col in
                               m.component(v).columns.items()
                               for i, x in col.items())
            at += W.stalk_rank[v] * c
    return ExactMatrix.from_entries(at, len(morphisms), entries, V.ring)


def _solve_all(solver: PresolvedSolver, B: ExactMatrix,
               failure: str) -> ExactMatrix:
    """The coordinates of every column of B, as the columns of one matrix;
    AssertionError(failure) when a column lies outside the lattice."""
    cols = solver.solve_many(B)
    if any(c is None for c in cols):
        raise AssertionError(failure)
    return ExactMatrix.from_entries(solver.M.cols, B.cols, (
        (i, j, x) for j, c in enumerate(cols) for i, x in enumerate(c)),
        B.ring)


def ext_all(V: Representation, W: Representation, qmax: int,
            resolution: Optional[ProjectiveResolution] = None
            ) -> List[Tuple[int, list]]:
    """[(betti, torsion) of Ext^q(V, W) for q = 0..qmax] from one Hom complex.

    The complex Hom(Q_q, W) is built once.  Over a PID its kernels are
    saturated, so every degree is read off the invariant factors of the
    differentials alone: no kernel transforms and no representative lifts.
    """
    if qmax < 0:
        raise ValueError("ext degree must be nonnegative")
    res = resolution if resolution is not None else projective_resolution(V)
    cc = hom_complex_against(res, W)
    problems = validate_complex(cc)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    report = cone_report(cc)
    out = []
    for q in range(qmax + 1):
        r = report.get(q)
        out.append((r["betti"], r["torsion"]) if r else (0, []))
    return out


def ext(V: Representation, W: Representation, q: int,
        resolution: Optional[ProjectiveResolution] = None) -> Tuple[int, list]:
    """(betti, torsion) of Ext^q(V, W) via a projective resolution of V."""
    return ext_all(V, W, q, resolution)[q]
