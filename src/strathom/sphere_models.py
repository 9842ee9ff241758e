"""Concrete models: the A_n stratified 2-sphere and a finite de Rham algebra.

A_n stratifies the 2-sphere into n points P_1..P_n on a circle, the n arcs
E_1..E_n between them and two hemispheres H_1, H_2.  Indices are taken
modulo n with E_i running from P_(i-1) to P_i, so the closure order is
P_i <= E_i, P_i <= E_(i+1), E_i <= H_j.  That convention makes the banded
arc-to-point differential have entries e_ii and -e_(i+1)i with the corner
entry -e_1n, and it pins every labeled table this module is tested against.

The de Rham side is a 9-dimensional matrix algebra over the rationals with
generators 1, omega globally, omega restricted to a disk, and a primitive
tau with d(tau) = omega|_D.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .chain_complex import ChainComplex, cone_report
from .dg import (
    DgAlgebra,
    DgIdeal,
    DgMorphism,
    FormalityChain,
    algebra_from_products,
    ideal_from_span,
    is_quasi_iso_dg,
    quotient,
    subalgebra_from_span,
)
from .exact_linalg import QQ, ZZ, CoeffRing, ExactMatrix
from .quiver_rep import (
    Quiver,
    RepMorphism,
    Representation,
    StratPoset,
    closure_rep,
    constant_rep,
    direct_sum,
    hom_rank,
    hom_space,
)
from .rep_complex import (
    ComplexOfReps,
    EndAlgebra,
    end_dg_algebra,
    validate_resolution,
)


class SphereModel:
    """The A_n stratification with its quiver and cached representations."""

    def __init__(self, n: int, ring: CoeffRing = ZZ):
        if n < 2:
            raise ValueError("the circle needs at least 2 marked points")
        self.n = n
        self.ring = ring
        strata = [(f"P{i}", 0) for i in self.irange()] + \
                 [(f"E{i}", 1) for i in self.irange()] + \
                 [("H1", 2), ("H2", 2)]
        covers = []
        for i in self.irange():
            covers.append((f"P{i}", f"E{i}"))
            covers.append((f"P{i}", f"E{self.nxt(i)}"))
            covers.append((f"E{i}", "H1"))
            covers.append((f"E{i}", "H2"))
        self.poset = StratPoset(strata, covers, acyclicity_asserted=True)
        self.quiver = Quiver(self.poset)
        self._closure: Dict[str, Representation] = {}

    def irange(self):
        return range(1, self.n + 1)

    def nxt(self, i: int) -> int:
        return i % self.n + 1

    # -- representations ---------------------------------------------------

    def constant_rep(self) -> Representation:
        return constant_rep(self.quiver, self.ring)

    def closure_rep(self, s: str) -> Representation:
        """I_S: rank 1 on the closure of S, identity arrows inside."""
        if s not in self.poset.strata:
            raise ValueError(f"unknown stratum {s!r}")
        if s not in self._closure:
            self._closure[s] = closure_rep(self.quiver, s, self.ring)
        return self._closure[s]

    def hom_rank_table(self) -> Dict[Tuple[str, str], int]:
        reps = {s: self.closure_rep(s) for s in self.poset.strata}
        return {(s, t): hom_rank(reps[s], reps[t])
                for s in self.poset.strata for t in self.poset.strata}

    # -- resolutions --------------------------------------------------------

    def _sum(self, names: List[str]) -> Representation:
        return direct_sum([self.closure_rep(s) for s in names], names=names,
                          quiver=self.quiver, ring=self.ring)

    def _block_morphism(self, src: Representation, dst: Representation,
                        entries: Dict[Tuple[int, int], int]) -> RepMorphism:
        """Morphism of direct sums given by +-1 multiples of canonical
        generators per (target block, source block) position, each entry
        visited at the vertices where its generator has a component.  The
        canonical generator of Hom(a, b) is its one basis element (1 when
        a = b)."""
        terms: Dict[str, list] = {}
        for (di, si), c in entries.items():
            (a, arep), (b, brep) = src.blocks[si], dst.blocks[di]
            basis = hom_space(arep, brep)
            if len(basis) != 1:
                raise ValueError(f"Hom({a}, {b}) has rank {len(basis)}, "
                                 "no canonical generator")
            for v, g in basis[0].components.items():
                r0, c0 = dst.block_offsets(v)[di], src.block_offsets(v)[si]
                terms.setdefault(v, []).extend(
                    (r0 + i, c0 + j, c * x)
                    for j, col in g.columns.items() for i, x in col.items())
        comps = {}
        for v in self.quiver.vertices:
            if v in terms:
                m = ExactMatrix.from_entries(dst.rank(v), src.rank(v),
                                             terms[v], self.ring)
                if not m.is_zero():
                    comps[v] = m
        return RepMorphism(src, dst, comps)

    def _resolution(self, marked: List[int]) -> "Resolution":
        """J = H1+H2 -> E_1..E_n + P_marked -> P_1..P_n in degrees low..low+2,
        low = -1 if a point is marked and 0 otherwise, resolving the constant
        representation at low plus the marked skyscrapers at 0."""
        low = -1 if marked else 0
        hemis = self._sum(["H1", "H2"])
        arcs = self._sum([f"E{i}" for i in self.irange()] +
                         [f"P{i}" for i in marked])
        points = self._sum([f"P{i}" for i in self.irange()])
        he, ep = {}, {}
        for i in self.irange():
            he[(i - 1, 0)] = 1                  # he_1i into E_i
            he[(i - 1, 1)] = -1                 # -he_2i
            ep[(i - 1, i - 1)] = 1              # e_ii from E_i
            ep[(i - 1, self.nxt(i) - 1)] = -1   # -e_(i+1)i from E_(i+1)
        J = ComplexOfReps(
            self.quiver, self.ring, {low: hemis, low + 1: arcs, low + 2: points},
            {low: self._block_morphism(hemis, arcs, he),
             low + 1: self._block_morphism(arcs, points, ep)})
        c = self.constant_rep()
        # c -> hemis by the canonical generator into both blocks
        targets = {low: (c, self._block_morphism(c, hemis,
                                                 {(0, 0): 1, (1, 0): 1}))}
        if marked:
            w = self._sum([f"P{i}" for i in marked])
            targets[0] = (w, self._block_morphism(
                w, arcs, {(self.n + k, k): 1 for k in range(len(marked))}))
        return Resolution(J, targets)

    def resolution_trivial(self) -> "Resolution":
        """The hemisphere/arc/point coresolution of the constant
        representation, for n = 2, in degrees 0..2."""
        if self.n != 2:
            raise ValueError("the trivial-stratification resolution is the "
                             "n = 2 model")
        return self._resolution([])

    def resolution_one_point(self) -> "Resolution":
        """Resolution of (skyscraper at P1) + (constant shifted by 1), for
        n = 2, in degrees -1..1 so that labels carry the table exponents."""
        if self.n != 2:
            raise ValueError("the one-point resolution is the n = 2 model")
        return self._resolution([1])

    def resolution_n_points(self) -> "Resolution":
        """Resolution of W_1 + ... + W_n + constant, degrees -1..1."""
        return self._resolution(list(self.irange()))


class Resolution:
    """A complex of representations together with its augmentation data."""

    def __init__(self, complex: ComplexOfReps,
                 targets: Dict[int, Tuple[Representation, RepMorphism]]):
        self.complex = complex
        self.targets = targets

    def validate(self):
        return validate_resolution(self.complex, self.targets)

    def end_algebra(self) -> EndAlgebra:
        return end_dg_algebra(self.complex)


# ---------------------------------------------------------------------------
# formality witnesses
# ---------------------------------------------------------------------------


def _witness_from_representatives(E: EndAlgebra, elements, labels,
                                  name: str) -> DgMorphism:
    sub, incl = subalgebra_from_span(E, elements, labels=labels, name=name)
    if not sub.has_zero_differential():
        raise ValueError("representative system is not made of cocycles "
                         "closed under d")
    if not is_quasi_iso_dg(incl).ok:
        raise ValueError("representative system does not represent a basis "
                         "of cohomology")
    return incl


def formality_witness_trivial(E: EndAlgebra) -> DgMorphism:
    """H(End J) -> End J for the trivial stratification: 1 -> 1 and the
    degree-2 class to hp_11."""
    elements = [E.unit_element(),
                E.element(2, [("hp", (1, 1), None, 1)])]
    return _witness_from_representatives(E, elements, ["1", "hp_11"],
                                         "witness-trivial")


def formality_witness_one_point(E: EndAlgebra) -> DgMorphism:
    """Representative system {1, p1^(0); hp_11, p1; hp_11}."""
    elements = [
        E.unit_element(),
        E.element(0, [("p", (1,), 0, 1)]),
        E.element(1, [("hp", (1, 1), None, 1)]),
        E.element(1, [("p", (1,), None, 1)]),
        E.element(2, [("hp", (1, 1), None, 1)]),
    ]
    labels = ["1", "p1^(0)", "hp_11", "p1", "hp_11"]
    return _witness_from_representatives(E, elements, labels,
                                         "witness-one-point")


class NPointChain:
    """End J <- U ->> U/I <- H(U/I) with all the intermediate objects; End J
    is `chain.algebras[0]`, and the inclusions are `chain.arrows[0][0]` and
    `chain.arrows[2][0]`."""

    def __init__(self, sub: DgAlgebra, ideal: DgIdeal, quot: DgAlgebra,
                 projection: DgMorphism, h_quot: DgAlgebra,
                 chain: FormalityChain):
        self.sub = sub
        self.ideal = ideal
        self.quot = quot
        self.projection = projection
        self.h_quot = h_quot
        self.chain = chain


def _subalgebra_span_n_points(E: EndAlgebra, n: int):
    prv = lambda i: (i - 2) % n + 1
    elements = []
    labels = []

    def add(m, terms, label):
        elements.append(E.element(m, terms))
        labels.append(label)

    add(0, [("h", (1,), None, 1)], "h1")
    add(0, [("h", (2,), None, 1)], "h2")
    for i in range(1, n + 1):
        add(0, [("e", (i,), None, 1)], f"e{i}")
    for i in range(1, n + 1):
        add(0, [("p", (i,), 0, 1)], f"p{i}^(0)")
    add(0, [("p", (i,), 1, 1) for i in range(1, n + 1)], "sum_p^(1)")
    for i in range(1, n + 1):
        add(1, [("he", (1, i), None, 1)], f"he_1{i}")
    for i in range(1, n + 1):
        add(1, [("he", (2, i), None, 1)], f"he_2{i}")
    for i in range(1, n + 1):
        add(1, [("hp", (1, i), None, 1)], f"hp_1{i}")
    add(1, [("ep", (1, 1), None, 1)], "e_11")
    add(1, [("ep", (1, n), None, 1)], f"e_1{n}")
    for i in range(2, n + 1):
        add(1, [("ep", (i, i), None, 1), ("ep", (i, prv(i)), None, -1)],
            f"e_{i}{i}-e_{i}{prv(i)}")
    for i in range(1, n + 1):
        add(1, [("p", (i,), None, 1)], f"p{i}")
    for j in (1, 2):
        for i in range(1, n + 1):
            add(2, [("hp", (j, i), None, 1)], f"hp_{j}{i}")
    return elements, labels


def formality_chain_n_points(E: EndAlgebra, n: int) -> NPointChain:
    """Builds U, the two-sided ideal I, U/I and H(U/I), and assembles the
    zig-zag End J <- U ->> U/I <- H(U/I)."""
    elements, labels = _subalgebra_span_n_points(E, n)
    sub, incl = subalgebra_from_span(E, elements, labels=labels, name="U")
    one = sub.ring.element(1)
    at = {(q, label): i for q, names in sub.labels.items()
          for i, label in enumerate(names)}
    ideal_gens = [(1, {at[1, f"he_1{i}"]: one}) for i in range(2, n + 1)]
    ideal_gens += [(2, {at[2, f"hp_1{i}"]: one, at[2, f"hp_1{i - 1}"]: -one})
                   for i in range(2, n + 1)]
    ideal = ideal_from_span(sub, ideal_gens)
    quot, proj = quotient(sub, ideal)
    kept = ([(0, f"p{i}^(0)") for i in range(1, n + 1)]
            + [(1, f"hp_1{i}") for i in range(1, n + 1)]
            + [(1, f"p{i}") for i in range(1, n + 1)] + [(2, "hp_11")])
    reps = [quot.unit_element()] + [proj.apply((q, {at[q, label]: one}))
                                    for q, label in kept]
    rep_labels = ["1"] + [label for _, label in kept]
    h_quot, h_incl = subalgebra_from_span(quot, reps, labels=rep_labels,
                                          name="H(U/I)")
    if not h_quot.has_zero_differential():
        raise ValueError("representatives of H(U/I) are not all cocycles")
    chain = FormalityChain(
        [E, sub, quot, h_quot],
        [(incl, "backward"), (proj, "forward"), (h_incl, "backward")])
    return NPointChain(sub, ideal, quot, proj, h_quot, chain)


# ---------------------------------------------------------------------------
# de Rham model
# ---------------------------------------------------------------------------

_DERHAM_ENTRY = {
    "1_A": (1, 1), "omega": (1, 1),
    "omega_B": (1, 2),
    "1_C": (2, 1), "tau_C": (2, 1), "omegaD_C": (2, 1),
    "1_D": (2, 2), "tau_D": (2, 2), "omegaD_D": (2, 2),
}


class DeRhamModel:
    """Finite model of the matrix algebra of forms on a marked n-sphere."""

    def __init__(self, n: int, algebra: DgAlgebra,
                 entry_of: Dict[str, Tuple[int, int]], h_algebra: DgAlgebra,
                 projection: DgMorphism):
        self.n = n
        self.algebra = algebra
        self.entry_of = entry_of
        self.h_algebra = h_algebra
        self.projection = projection

    def entry_complexes(self) -> Dict[Tuple[int, int], ChainComplex]:
        """The underlying complex splits by matrix entry; d preserves it."""
        A = self.algebra
        out = {}
        for entry in ((1, 1), (1, 2), (2, 1), (2, 2)):
            idx = {}
            for q in A.degrees():
                idx[q] = [i for i in range(A.dim(q))
                          if self.entry_of[A.label(q, i)] == entry]
            ranks = {q: len(ix) for q, ix in idx.items()}
            diffs = {}
            for q, d in A.diff.items():
                sub = d.submatrix(idx.get(q + 1, []), idx.get(q, []))
                # entries outside the block must vanish for the split
                rows = set(idx.get(q + 1, []))
                if any(i not in rows for j in idx.get(q, [])
                       for i in d.columns.get(j, {})):
                    raise AssertionError(
                        "differential does not preserve entries")
                if sub.rows and sub.cols:
                    diffs[q] = sub
            out[entry] = ChainComplex(A.ring, ranks, diffs)
        return out

    def h_entry_dims(self) -> Dict[Tuple[int, int], int]:
        return {entry: sum(r["betti"] for r in cone_report(cc).values())
                for entry, cc in self.entry_complexes().items()}


def de_rham_model(n: int) -> DeRhamModel:
    """The 9-dimensional dg algebra of the n-sphere marked at a point,
    together with the projection onto its 5-dimensional cohomology.

    Needs n >= 2: the square of the primitive tau vanishes for degree
    reasons when n >= 3 and by oddness of its degree when n = 2.
    """
    if n < 2:
        raise ValueError("the sphere model needs dimension n >= 2")
    basis = [(0, "1_A"), (n, "omega"), (n, "omega_B"),
             (0, "1_C"), (n - 1, "tau_C"), (n, "omegaD_C"),
             (0, "1_D"), (n - 1, "tau_D"), (n, "omegaD_D")]
    products = {
        ("1_A", "1_A"): {"1_A": 1},
        ("1_A", "omega"): {"omega": 1},
        ("omega", "1_A"): {"omega": 1},
        ("1_A", "omega_B"): {"omega_B": 1},
        ("omega_B", "1_C"): {"omega": 1},
        ("omega_B", "1_D"): {"omega_B": 1},
        ("1_C", "1_A"): {"1_C": 1},
        ("1_C", "omega"): {"omegaD_C": 1},
        ("1_C", "omega_B"): {"omegaD_D": 1},
        ("tau_C", "1_A"): {"tau_C": 1},
        ("omegaD_C", "1_A"): {"omegaD_C": 1},
        ("1_D", "1_C"): {"1_C": 1},
        ("1_D", "tau_C"): {"tau_C": 1},
        ("1_D", "omegaD_C"): {"omegaD_C": 1},
        ("tau_D", "1_C"): {"tau_C": 1},
        ("omegaD_D", "1_C"): {"omegaD_C": 1},
        ("1_D", "1_D"): {"1_D": 1},
        ("1_D", "tau_D"): {"tau_D": 1},
        ("tau_D", "1_D"): {"tau_D": 1},
        ("1_D", "omegaD_D"): {"omegaD_D": 1},
        ("omegaD_D", "1_D"): {"omegaD_D": 1},
    }
    algebra = algebra_from_products(
        QQ, basis,
        unit_terms={"1_A": 1, "1_D": 1},
        differentials={"tau_C": {"omegaD_C": 1}, "tau_D": {"omegaD_D": 1}},
        products=products)
    # the span of tau and d(tau) in both disk entries is an acyclic dg ideal
    idx = {}
    for q, labs in algebra.labels.items():
        for i, lab in enumerate(labs):
            idx[lab] = (q, i)
    gens = [(idx[lab][0], {idx[lab][1]: QQ.element(1)})
            for lab in ("tau_C", "tau_D", "omegaD_C", "omegaD_D")]
    ideal = ideal_from_span(algebra, gens)
    h_alg, proj = quotient(algebra, ideal)
    return DeRhamModel(n, algebra, dict(_DERHAM_ENTRY), h_alg, proj)
