"""Stratification posets, their quivers, and representations with free stalks.

The quiver of a poset keeps only the Hasse covering arrows; identifying all
parallel paths makes a representation the same thing as a functor from the
poset to free modules, so validation reduces to comparing composite matrices
along parallel arrow paths.  Hom spaces are kernels of the commuting-square
linear system; for thin representations (stalks of rank <= 1, arrows in
{0, +-1}) a signed union-find over the common support solves the squares
instead, and gives the basis whenever the rank is at most 1.  Each pair
keeps one record, the basis and the union-find's generator when there is
one, and Hom coordinates, composition tables and units are read from it
(`hom_coordinates`, `hom_table`, `hom_unit`): by sign on the generator,
else by one exact solve on the flattened basis.  Ext groups
are read from the stalks of the target, since Hom(P_x, W) = W(x), against
projective resolutions whose covers generate only the top of each stalk,
what the arrows into it miss: minimal over QQ, and over ZZ wherever the
images of those arrows split off.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .chain_complex import ChainComplex, cone_report, validate_complex
from .exact_linalg import (
    CoeffRing,
    ColumnLattice,
    ExactMatrix,
    ZZ,
    kernel_basis,
    lattice_solve,
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
        n = len(names)
        succ = [set() for _ in range(n)]  # declared covers, per vertex
        for a, b in covers:
            if a not in idx or b not in idx:
                raise ValueError(f"cover ({a}, {b}) uses unknown stratum")
            if a != b:
                succ[idx[a]].add(idx[b])
        # reflexive-transitive closure: up-sets as bitsets, joined along the
        # declared covers to a fixpoint
        up, old = [1 << i for i in range(n)], None
        while up != old:
            old = list(up)
            for i in range(n):
                for j in succ[i]:
                    up[i] |= up[j]
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                if j != i and up[j] >> i & 1:
                    raise ValueError(
                        f"closure order is not antisymmetric: "
                        f"{names[i]} and {names[j]} are comparable both ways")
                down[j] |= 1 << i
        self._idx, self._succ, self._up, self._down = idx, succ, up, down

    def leq(self, a: str, b: str) -> bool:
        return self._up[self._idx[a]] >> self._idx[b] & 1 == 1

    def hasse_covers(self) -> List[Tuple[str, str]]:
        """Covering pairs (a, b): a < b with nothing strictly between.  The
        transitive reduction of the declared covers, per vertex (Aho, Garey
        and Ullman 1972): a declared a -> b stays unless b is above another
        declared cover of a."""
        out = []
        for i, a in enumerate(self.strata):
            above = 0
            for c in self._succ[i]:
                above |= self._up[c] & ~(1 << c)
            out.extend((a, self.strata[j]) for j in sorted(self._succ[i])
                       if not above >> j & 1)
        return out

    def up_set(self, a: str) -> List[str]:
        return [self.strata[j] for j in _bits(self._up[self._idx[a]])]

    def down_set(self, a: str) -> List[str]:
        return [self.strata[j] for j in _bits(self._down[self._idx[a]])]


def _bits(x: int) -> List[int]:
    """The positions of the set bits of x, ascending."""
    return [i for i, c in enumerate(reversed(bin(x))) if c == "1"]


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
        # {ring: {x: P_x}}, shared by every projective resolution on it
        self._projectives: Dict[CoeffRing, Dict[str, Representation]] = {}

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

    def path(self, src: str, dst: str) -> List[str]:
        """The first of `paths(src, dst)`, taking at each step the first
        arrow that still reaches dst, without enumerating the others."""
        if not self.poset.leq(src, dst):
            raise ValueError(f"no path from {src!r} to {dst!r}")
        out = [src]
        while src != dst:
            src = next(m for m in self._out[src] if self.poset.leq(m, dst))
            out.append(src)
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
        self._path_maps: Dict[Tuple[str, str], ExactMatrix] = {}
        self._homs: Dict["Representation", tuple] = {}  # `_hom`
        self._tables: Dict[tuple, dict] = {}  # `hom_table`

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
        m = (self.arrow(path[0], path[1]) if len(path) > 1
             else ExactMatrix.identity(self.rank(path[0]), self.ring))
        for a, b in zip(path[1:], path[2:]):
            m = self.arrow(a, b) @ m
        return m

    def path_map(self, src: str, dst: str) -> ExactMatrix:
        """V(src -> dst) along `quiver.path(src, dst)`, computed once per
        pair (parallel paths agree on a valid representation)."""
        m = self._path_maps.get((src, dst))
        if m is None:
            m = self._path_maps[(src, dst)] = self.path_matrix(
                self.quiver.path(src, dst))
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


def _support_index(reps) -> Dict[str, List[int]]:
    """{vertex: the positions of the reps with a nonzero stalk there}."""
    at: Dict[str, List[int]] = {}
    for k, rep in enumerate(reps):
        for v in rep._support:
            at.setdefault(v, []).append(k)
    return at


def validate_representation(V: Representation) -> list:
    """Shape errors plus every parallel-path commutativity failure.

    Commutativity is decided by induction over covers (`_paths_commute`),
    which visits each comparable pair (a, c) once per cover into c; only
    when that fails are the Hasse paths of every comparable pair
    enumerated, to name each pair whose parallel paths disagree."""
    problems = []
    q = V.quiver
    for (a, b), m in V.arrow_map.items():
        if (a, b) not in q.arrows and not m.is_zero():
            problems.append(f"map on non-arrow ({a}, {b})")
        elif m.shape != (V.rank(b), V.rank(a)):
            problems.append(f"arrow ({a}, {b}) matrix has shape {m.shape}, "
                            f"expected {(V.rank(b), V.rank(a))}")
    if problems or _paths_commute(V):
        return problems
    for src in q.vertices:
        for dst in q.poset.up_set(src):
            paths = q.paths(src, dst)
            base = V.path_matrix(paths[0])
            bad = next((p for p in paths[1:] if V.path_matrix(p) != base),
                       None)
            if bad is not None:
                problems.append(f"parallel paths {paths[0]} and {bad} "
                                "disagree")
    return problems


def _paths_commute(V: Representation) -> bool:
    """Do all parallel Hasse paths of V agree?  Walk the up-set of each a
    in the support by size of down-set: all paths a -> c agree iff V(b ->
    c) P(a, b) is one matrix P(a, c) over the covers b -> c with a <= b, as
    all paths a -> b agree by induction (Gabriel and Roiter 1992, ch. 2)."""
    poset, into = V.quiver.poset, V.quiver._in
    height = [d.bit_count() for d in poset._down]
    for a in V._support:
        maps = {a: None}  # P(a, a) = 1 is never multiplied out
        up = sorted(_bits(poset._up[poset._idx[a]]), key=height.__getitem__)
        for c in (poset.strata[i] for i in up[1:]):
            found = [V.arrow(b, c) if b == a else V.arrow(b, c) @ maps[b]
                     for b in into[c] if b in maps]
            if any(m != found[0] for m in found[1:]):
                return False
            maps[c] = found[0]
    return True


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
        """Shape errors, else the arrows whose squares do not commute, of
        those at a component: a square of two zero components commutes."""
        problems = []
        for v, m in self.components.items():
            want = (self.target.rank(v), self.source.rank(v))
            if m.shape != want:
                problems.append(f"component at {v} has shape {m.shape}, "
                                f"expected {want}")
        if problems:
            return problems
        q = self.source.quiver
        touched = {(v, b) for v in self.components for b in q._out[v]}
        touched.update((a, v) for v in self.components for a in q._in[v])
        idx = q.poset._idx  # arrows run in (source, target) stratum order
        for a, b in sorted(touched, key=lambda e: (idx[e[0]], idx[e[1]])):
            lhs = self.component(b) @ self.source.arrow(a, b)
            rhs = self.target.arrow(a, b) @ self.component(a)
            if lhs != rhs:
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


def _unknowns(V: Representation, W: Representation
              ) -> Tuple[Dict[str, int], int]:
    """The unknowns f_v[i, j] of a morphism V -> W, in (vertex, row, col)
    order over the common support: where those of each vertex v start
    (f_v[i, j] is start[v] + i * rank V(v) + j), and their number."""
    common = _common_support(V, W)
    *offs, n = accumulate((W.rank(v) * V.rank(v) for v in common), initial=0)
    return dict(zip(common, offs)), n


def _flat(morphisms: Sequence[RepMorphism], V: Representation,
          W: Representation) -> ExactMatrix:
    """The morphisms V -> W as the columns of a matrix, one row per
    unknown of `_unknowns`."""
    start, n = _unknowns(V, W)
    return ExactMatrix.from_entries(n, len(morphisms), (
        (start[v] + i * V.stalk_rank[v] + j, k, x)
        for k, f in enumerate(morphisms) for v, m in f.components.items()
        for j, col in m.columns.items() for i, x in col.items()), V.ring)


def _hom_system(V: Representation, W: Representation
                ) -> Tuple[Optional[ExactMatrix], Dict[str, int]]:
    """The commuting-square system f_b V_ab = W_ab f_a of Hom(V, W) (None
    without a common support) on the unknowns of `_unknowns`, and the
    column of f_v[0, 0] for each common vertex v."""
    start, ncols = _unknowns(V, W)
    if not start:
        return None, {}
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
    commuting-square system.  The basis is computed once per pair and
    remembered on V (`_hom`); callers share it.
    """
    return _hom(V, W)[0]


def _hom(V: Representation, W: Representation
         ) -> Tuple[List[RepMorphism], Optional[Dict[str, int]]]:
    """The record of the pair, remembered on V, as `Representation.path_map`
    is: the basis of `hom_space`, and its generator as {vertex: +-1} ({}
    for Hom 0) when the union-find gives the basis, else None."""
    record = V._homs.get(W)
    if record is None:
        common = _common_support(V, W)
        gens = _thin_generators(V, W, common)
        if gens is None or len(gens) > 1:
            record = _dense_hom_space(V, W), None
        else:
            basis = [RepMorphism(V, W, {v: _scalar(g.get(v, 0), V.ring)
                                        for v in common}) for g in gens]
            record = basis, gens[0] if gens else {}
        V._homs[W] = record
    return record


def hom_coordinates(V: Representation, W: Representation,
                    morphisms: Sequence[RepMorphism]) -> List[tuple]:
    """Coordinates of morphisms V -> W on `hom_space(V, W)`, each a tuple
    of (generator index, nonzero coefficient) in generator order: by sign
    (`_by_sign`) when the union-find gave the basis, else by `lattice_solve`
    on the flattened basis.  AssertionError when a morphism is outside the
    lattice of the basis."""
    basis, sign = _hom(V, W)
    if sign is not None:
        return [_by_sign(sign, {v: x[0, 0] for v, x in m.components.items()
                                if x.columns}, V.ring.element)
                for m in morphisms]
    X = lattice_solve(_flat(basis, V, W), _flat(morphisms, V, W))
    if X is None:
        raise AssertionError("morphism escaped the Hom lattice")
    return [tuple(sorted(X.columns.get(j, {}).items()))
            for j in range(len(morphisms))]


def _by_sign(g: dict, m: dict, element) -> tuple:
    """Coordinates of m ({vertex: nonzero scalar}) on the generator g
    ({vertex: +-1}): read at one vertex, then m is checked to be that
    multiple of g."""
    if not m:
        return ()
    v = next(iter(m))
    x = m[v] * g.get(v, 0)
    if not x or {w: x * s for w, s in g.items()} != m:
        raise AssertionError("morphism escaped the Hom lattice")
    return ((0, element(x)),)


def hom_table(U: Representation, V: Representation,
              W: Representation) -> Dict[Tuple[int, int], tuple]:
    """{(k, l): coordinates of hom_space(V, W)[k] . hom_space(U, V)[l]} for
    the nonzero composites, built once per triple and remembered on U;
    from the product of the generators' signs when all three pairs have
    one."""
    table = U._tables.get((V, W))
    if table is None:
        (inner_basis, inner), (outer_basis, outer) = _hom(U, V), _hom(V, W)
        whole = _hom(U, W)[1] if inner and outer else {}
        if None in (inner, outer, whole):
            kl = [(k, l) for k in range(len(outer_basis))
                  for l in range(len(inner_basis))]
            coords = hom_coordinates(U, W, [
                outer_basis[k].compose(inner_basis[l]) for k, l in kl]) \
                if kl else []
        else:
            kl, coords = [(0, 0)], [_by_sign(whole, {
                v: s * inner[v] for v, s in outer.items() if v in inner},
                U.ring.element)]
        table = U._tables[(V, W)] = {x: co for x, co in zip(kl, coords)
                                     if co}
    return table


def hom_unit(V: Representation) -> tuple:
    """Coordinates of the identity of V on `hom_space(V, V)`."""
    return hom_coordinates(V, V, [RepMorphism(V, V, {
        v: ExactMatrix.identity(V.rank(v), V.ring) for v in V._support})])[0]


@lru_cache(maxsize=None)
def _scalar(x: int, ring: CoeffRing) -> ExactMatrix:
    """The 1 x 1 matrix [x], shared: matrices are immutable."""
    return ExactMatrix.from_rows([[x]], ring)


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
            col = [ring.div(x, lead) for x in col]
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
    # the blocks supported at each vertex, and where each starts there
    at = _support_index(reps)
    stalks, starts = {}, {}
    for v, ks in at.items():
        *offs, stalks[v] = accumulate((reps[k].stalk_rank[v] for k in ks),
                                      initial=0)
        starts[v] = dict(zip(ks, offs))
    arrows = {}
    for a, b in quiver.arrows:
        if a not in at or b not in at:
            continue
        ro, co = starts[b], starts[a]
        entries = []
        for k in at[a]:
            blk = reps[k].arrow_map.get((a, b))
            if blk is not None and k in ro:
                entries.extend((ro[k] + i, co[k] + j, x)
                               for j, col in blk.columns.items()
                               for i, x in col.items())
        arrows[(a, b)] = ExactMatrix.from_entries(stalks[b], stalks[a],
                                                  entries, ring)
    return Representation(quiver, ring, stalks, arrows,
                          blocks=list(zip(names, reps)))


def indecomposable_projective(quiver: Quiver, x: str,
                              ring: CoeffRing = ZZ) -> Representation:
    """P_x: stalk R at every vertex reachable from x, identity arrows."""
    if x not in quiver.poset._idx:
        raise ValueError(f"unknown vertex {x!r}")
    return constant_rep(quiver, ring, quiver.poset.up_set(x))


def constant_rep(quiver: Quiver, ring: CoeffRing = ZZ,
                 support: Optional[List[str]] = None) -> Representation:
    """Rank 1 on support (in stratum order; default all), identity arrows
    inside it, read off the arrows leaving each of its vertices."""
    support = quiver.vertices if support is None else support
    one = ExactMatrix.identity(1, ring)
    inside = set(support)
    arrows = {(a, b): one for a in support for b in quiver._out[a]
              if b in inside}
    return Representation(quiver, ring, dict.fromkeys(support, 1), arrows)


def closure_rep(quiver: Quiver, s: str, ring: CoeffRing = ZZ) -> Representation:
    """I_s: rank 1 on the down-set of s (its closure), identity arrows."""
    if s not in quiver.poset._idx:
        raise ValueError(f"unknown vertex {s!r}")
    return constant_rep(quiver, ring, quiver.poset.down_set(s))


class ProjectiveResolution:
    """... -> Q_1 -> Q_0 --aug--> V with each Q_i a sum of projectives."""

    def __init__(self, target: Representation, terms: List[Representation],
                 maps: List[RepMorphism], augmentation: RepMorphism,
                 vertices: List[List[str]]):
        self.target = target
        self.terms = terms                  # Q_0, Q_1, ...
        self.maps = maps                    # maps[i]: Q_[i+1] -> Q_i
        self.augmentation = augmentation    # Q_0 -> V
        self.vertices = vertices            # x of each summand P_x of Q_i
        self._yoneda: Optional[list] = None  # `hom_complex_against`

    def length(self) -> int:
        return len(self.terms) - 1


def _evaluation_cover(V: Representation):
    """Surjection from a sum of projectives onto V, and the generator
    vertex x of each summand P_x of the cover.

    The summands at x generate the top of V(x), what the arrows u -> x miss:
    with the columns of every V(u -> x) in a `ColumnLattice`, they are the
    e_k on its kept rows when every pivot is a unit, and every e_k
    otherwise (a non-unit pivot, over ZZ only).  The map is onto by
    induction up the poset, since the image at x holds the arrows' images
    and the kept e_k span a complement of them.  Over QQ every pivot is a
    unit, so this is the projective cover.  The P_x come from the quiver's
    `_projectives`, built at the first use; the component at v reads only
    the summands present there (`_support_index`)."""
    quiver, ring = V.quiver, V.ring
    projectives = quiver._projectives.setdefault(ring, {})
    piece_info = []  # (vertex x, basis index k)
    for x in V.support():
        lat = ColumnLattice(ring)
        for u in quiver._in[x]:
            m = V.arrow_map.get((u, x))
            if m is not None:
                for col in m.columns.values():
                    lat.add(col)
        try:
            top = lat.kept_rows(V.rank(x))
        except ValueError:
            top = range(V.rank(x))
        if top and x not in projectives:
            projectives[x] = indecomposable_projective(quiver, x, ring)
        piece_info.extend((x, k) for k in top)
    pieces = [projectives[x] for x, _ in piece_info]
    cover = direct_sum(pieces, names=[f"P[{x}:{k}]" for x, k in piece_info],
                       quiver=quiver, ring=ring)
    at = _support_index(pieces)
    comps = {}
    for v in V._support:
        # generator of P_x at v maps to the image of e_k in V(v)
        comps[v] = ExactMatrix.from_entries(V.rank(v), cover.rank(v), (
            (i, col, y) for col, (x, k) in enumerate(
                piece_info[p] for p in at[v])
            for i, y in V.path_map(x, v).columns.get(k, {}).items()), ring)
    return cover, RepMorphism(cover, V, comps), [x for x, _ in piece_info]


def _kernel_rep(f: RepMorphism) -> Tuple[Representation, RepMorphism]:
    """Kernel of a stalkwise onto f with induced arrow maps, plus its
    inclusion.

    Where source and target stalks have equal rank, f is an isomorphism
    and the kernel is 0; where the target stalk is 0, the kernel is the
    whole source stalk and an arrow into it is the source's arrow on the
    kernel basis.  Only the other stalks take a kernel basis, and an arrow
    into one is read in it (`lattice_solve`)."""
    V, W = f.source, f.target
    quiver, ring = V.quiver, V.ring
    bases = {}
    for v in V.support():
        if not W.rank(v):
            bases[v] = ExactMatrix.identity(V.rank(v), ring)
        elif V.rank(v) != W.rank(v):
            bases[v] = kernel_basis(f.component(v))
    stalks = {v: b.cols for v, b in bases.items()}
    arrows = {}
    for a, b in quiver.arrows:
        if not stalks.get(a) or not stalks.get(b):
            continue
        image = V.arrow(a, b) @ bases[a]
        if W.rank(b):
            image = lattice_solve(bases[b], image)
            if image is None:
                raise AssertionError("kernel not arrow-stable")
        arrows[(a, b)] = image
    K = Representation(quiver, ring, stalks, arrows)
    incl = RepMorphism(K, V, {v: bases[v] for v in bases if bases[v].cols})
    return K, incl


def projective_resolution(V: Representation,
                          max_len: Optional[int] = None) -> ProjectiveResolution:
    """Iterated covers by the top of each kernel until the kernel vanishes.

    Each cover generates only what the arrows miss (`_evaluation_cover`),
    so over QQ the resolution is minimal; over ZZ a stalk whose arrow
    images are not split keeps every generator.  The minimal vertices of
    the support get every generator, so each kernel vanishes on one more
    layer of the poset and termination is bounded by the poset height;
    exceeding max_len is a hard error rather than a silent truncation.
    """
    if max_len is None:
        max_len = len(V.quiver.vertices) + 2
    cover, aug, xs = _evaluation_cover(V)
    terms, maps, vertices, onto = [cover], [], [xs], aug
    for _ in range(max_len + 1):
        K, incl = _kernel_rep(onto)
        if K.is_zero():
            return ProjectiveResolution(V, terms, maps, aug, vertices)
        cover, onto, xs = _evaluation_cover(K)
        terms.append(cover)
        vertices.append(xs)
        maps.append(incl.compose(onto))
    raise ValueError(f"resolution did not terminate within {max_len} steps")


class InjectiveCoresolution:
    """V --aug--> T_0 -> T_1 -> ... with each T_i a sum of closure reps."""

    def __init__(self, target: Representation, terms: List[Representation],
                 maps: List[RepMorphism], augmentation: RepMorphism):
        self.target = target
        self.terms = terms
        self.maps = maps                    # maps[i]: T_i -> T_(i+1)
        self.augmentation = augmentation    # V -> T_0


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
                row = V.path_map(x, y)  # V(x) -> V(y)
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
        for col in f.component(v).columns.values():
            lat.add(col)
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
    The blocks (y_c, c, [(b, s_(b,c))]) do not depend on W; they are read
    once per resolution (`_yoneda_blocks`) and kept on it.
    """
    if res._yoneda is None:
        res._yoneda = [_yoneda_blocks(res, q) for q in range(len(res.maps))]
    offsets = [list(accumulate((W.rank(x) for x in xs), initial=0))
               for xs in res.vertices]
    ranks = {q: offs[-1] for q, offs in enumerate(offsets)}
    diffs = {}
    for q, blocks in enumerate(res._yoneda):
        if not ranks[q] or not ranks[q + 1]:
            continue
        src, dst, xs = offsets[q], offsets[q + 1], res.vertices[q]
        diffs[q] = ExactMatrix.from_entries(ranks[q + 1], ranks[q], (
            (dst[c] + k, src[b] + l, s * w)
            for y, c, column in blocks if W.rank(y)
            for b, s in column if W.rank(xs[b])
            for l, col in W.path_map(xs[b], y).columns.items()
            for k, w in col.items()), W.ring)
    return ChainComplex(W.ring, ranks, diffs)


def _yoneda_blocks(res: ProjectiveResolution, q: int) -> list:
    """[(y_c, c, [(b, s_(b,c))])] of the map Q_(q+1) -> Q_q, by y_c in
    first-summand order, then by c: the scalars of d at y_c on the
    summands b of Q_q present there."""
    leq, d = res.target.quiver.poset.leq, res.maps[q]
    blocks = []
    for y in dict.fromkeys(res.vertices[q + 1]):
        # the summands of Q_q and of Q_(q+1) present at y, in stalk order
        rows, cols = ([b for b, x in enumerate(xs) if leq(x, y)]
                      for xs in (res.vertices[q], res.vertices[q + 1]))
        comp = d.component(y).columns
        blocks.extend((y, c, [(rows[i], s) for i, s in comp[j].items()])
                      for j, c in enumerate(cols)
                      if res.vertices[q + 1][c] == y and j in comp)
    return blocks


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
