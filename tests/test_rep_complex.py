import importlib.util
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from strathom import quiver_rep as qr
from strathom.chain_complex import (
    ChainComplex,
    ChainMap,
    cohomology,
    cone_report,
    mapping_cone,
    validate_complex,
)
from strathom.cli import _build_reps
from strathom.dg import DgMorphism, is_quasi_iso_dg, validate_dg_algebra
from strathom.exact_linalg import QQ, ZZ, ExactMatrix, PresolvedSolver
from strathom.quiver_rep import (
    Quiver,
    Representation,
    RepMorphism,
    StratPoset,
    closure_rep,
    constant_rep,
    direct_sum,
    hom_coordinates,
    hom_space,
    hom_table,
    hom_unit,
    injective_coresolution,
    projective_resolution,
)
from strathom.rep_complex import (
    ComplexOfReps,
    HomComplex,
    HomLabel,
    _label_for,
    end_dg_algebra,
    validate_complex_of_reps,
    validate_resolution,
)
from strathom.sphere_models import SphereModel
from test_dg import mult_entry
from test_quiver_rep import _random_quiver, _random_rep


def shift_complex_of_reps(X: ComplexOfReps, k: int) -> ComplexOfReps:
    """X[k]^q = X^(q+k) with differentials scaled by (-1)^k."""
    terms = {q - k: t for q, t in X.terms.items()}
    diffs = {}
    for q, d in X.differentials.items():
        diffs[q - k] = d if k % 2 == 0 else d.scale(-1)
    return ComplexOfReps(X.quiver, X.ring, terms, diffs)


@pytest.fixture(scope="module")
def model2():
    return SphereModel(2)


@pytest.fixture(scope="module")
def J_trivial(model2):
    return model2.resolution_trivial()


@pytest.fixture(scope="module")
def E_trivial(J_trivial):
    return J_trivial.end_algebra()


# The differential table of End(J) for the hemisphere/arc/point resolution
# of the constant representation: all eighteen rows in signed coordinates.
TRIVIAL_TABLE = {
    (0, "h", (1,)): {("he", (1, 1)): 1, ("he", (1, 2)): 1},
    (0, "h", (2,)): {("he", (2, 1)): -1, ("he", (2, 2)): -1},
    (0, "e", (1,)): {("he", (2, 1)): 1, ("he", (1, 1)): -1,
                     ("ep", (1, 1)): 1, ("ep", (1, 2)): -1},
    (0, "e", (2,)): {("he", (2, 2)): 1, ("he", (1, 2)): -1,
                     ("ep", (2, 2)): 1, ("ep", (2, 1)): -1},
    (0, "p", (1,)): {("ep", (2, 1)): 1, ("ep", (1, 1)): -1},
    (0, "p", (2,)): {("ep", (1, 2)): 1, ("ep", (2, 2)): -1},
    (1, "he", (1, 1)): {("hp", (1, 1)): 1, ("hp", (1, 2)): -1},
    (1, "he", (1, 2)): {("hp", (1, 2)): 1, ("hp", (1, 1)): -1},
    (1, "he", (2, 1)): {("hp", (2, 1)): 1, ("hp", (2, 2)): -1},
    (1, "he", (2, 2)): {("hp", (2, 2)): 1, ("hp", (2, 1)): -1},
    (1, "ep", (1, 1)): {("hp", (1, 1)): 1, ("hp", (2, 1)): -1},
    (1, "ep", (1, 2)): {("hp", (1, 2)): 1, ("hp", (2, 2)): -1},
    (1, "ep", (2, 1)): {("hp", (1, 1)): 1, ("hp", (2, 1)): -1},
    (1, "ep", (2, 2)): {("hp", (1, 2)): 1, ("hp", (2, 2)): -1},
    (2, "hp", (1, 1)): {},
    (2, "hp", (1, 2)): {},
    (2, "hp", (2, 1)): {},
    (2, "hp", (2, 2)): {},
}


def table_of(E, degree):
    """Differential rows keyed by (kind, indices) -> {(kind, indices): c}."""
    hom = E.hom
    tgt = hom.labels(degree + 1)
    d = E.complex().d(degree)
    rows = {}
    for j, lab in enumerate(hom.labels(degree)):
        img = {}
        for i in range(d.rows):
            if d[i, j] != 0:
                img[(tgt[i].kind, tgt[i].indices)] = d[i, j]
        rows[(lab.kind, lab.indices)] = img
    return rows


def test_end_trivial_ranks(E_trivial):
    assert {q: E_trivial.dim(q) for q in E_trivial.degrees()} == \
        {0: 6, 1: 8, 2: 4}


def test_end_trivial_all_18_table_rows(E_trivial):
    rows = {}
    for degree in (0, 1, 2):
        for key, img in table_of(E_trivial, degree).items():
            rows[(degree,) + key] = img
    assert rows == TRIVIAL_TABLE


def test_end_trivial_is_valid_dg_algebra(E_trivial):
    assert validate_dg_algebra(E_trivial) == []


def test_end_trivial_cohomology(E_trivial):
    h = cohomology(E_trivial.complex())
    assert {q: h.betti(q) for q in (0, 1, 2)} == {0: 1, 1: 0, 2: 1}
    assert all(not h.torsion(q) for q in (0, 1, 2))


def test_hom_complex_rank_additivity(J_trivial):
    X = J_trivial.complex
    hc = HomComplex(X, X)
    for m, basis in hc.basis.items():
        total = 0
        for p in X.degrees():
            if X.term(p) is not None and X.term(p + m) is not None:
                total += len(hom_space(X.term(p), X.term(p + m)))
        assert len(basis) == total


def test_hom_complex_single_term(model2):
    ip1 = model2.closure_rep("P1")
    from strathom.quiver_rep import direct_sum

    X = ComplexOfReps(model2.quiver, ZZ,
                      {0: direct_sum([ip1], names=["P1"])}, {})
    hc = HomComplex(X, X)
    assert hc.ranks() == {0: 1}
    assert hc.complex.d(0).is_zero()
    E = end_dg_algebra(X)
    assert mult_entry(E, 0, 0, 0, 0) == {0: 1}


def test_one_point_hom_ranks(model2):
    J = model2.resolution_one_point()
    hc = HomComplex(J.complex, J.complex)
    assert hc.ranks() == {-1: 1, 0: 9, 1: 11, 2: 4}
    basis_m1 = hc.rendered_labels(-1)
    assert basis_m1 == ["p1"]


def test_one_point_superscripts(model2):
    J = model2.resolution_one_point()
    hc = HomComplex(J.complex, J.complex)
    labels0 = hc.rendered_labels(0)
    assert "p1^(0)" in labels0 and "p1^(1)" in labels0
    # unambiguous labels carry no superscript
    assert "h1" in labels0 and "e_11" in labels0


def test_leibniz_on_end_algebras(model2):
    for res in (model2.resolution_trivial(), model2.resolution_one_point()):
        E = res.end_algebra()
        for q1 in E.degrees():
            sign = -1 if q1 % 2 else 1
            for q2 in E.degrees():
                for i in range(E.dim(q1)):
                    a = E.basis_element(q1, i)
                    da = E.d_element(a)
                    for j in range(E.dim(q2)):
                        b = E.basis_element(q2, j)
                        lhs = E.d_element(E.multiply(a, b))
                        rhs = E.multiply(da, b)[1].copy()
                        for k, c in E.multiply(a, E.d_element(b))[1].items():
                            rhs[k] = rhs.get(k, 0) + sign * c
                            if rhs[k] == 0:
                                del rhs[k]
                        assert lhs[1] == rhs


def test_shift_invariance_of_end(J_trivial, E_trivial):
    """End(J[k]) is isomorphic to End(J): identically for even k, through
    the sign twist f -> (-1)^(k deg f) f for odd k."""
    X = J_trivial.complex
    for k in (-2, -1, 1, 2):
        E2 = end_dg_algebra(shift_complex_of_reps(X, k))
        match = {}
        for m in E_trivial.hom.basis:
            for i, l in enumerate(E_trivial.hom.labels(m)):
                match[(m, i)] = E2.hom.find(m, l.kind, l.indices, l.p - k)
        # multiplication agrees on the nose
        for (m1, m2), table in E_trivial.mult.items():
            for (i, j), prod in table.items():
                expected = {match[(m1 + m2, t)]: c for t, c in prod.items()}
                got = mult_entry(E2, m1, m2, match[(m1, i)],
                                 match[(m2, j)])
                assert got == expected
        # differentials agree up to (-1)^k
        sign = 1 if k % 2 == 0 else -1
        for m in E_trivial.degrees():
            d1 = E_trivial.complex().d(m)
            d2 = E2.complex().d(m)
            for j in range(d1.cols):
                for i in range(d1.rows):
                    assert d2[match[(m + 1, i)], match[(m, j)]] == \
                        sign * d1[i, j]
        # and the sign twist assembles into a dg isomorphism
        comps = {}
        for m in E_trivial.degrees():
            s = 1 if (k * m) % 2 == 0 else -1
            comps[m] = ExactMatrix.from_entries(
                E2.dim(m), E_trivial.dim(m),
                [(match[(m, i)], i, s) for i in range(E_trivial.dim(m))], ZZ)
        phi = DgMorphism(E_trivial, E2, comps)
        assert phi.validate() == []
        assert is_quasi_iso_dg(phi).ok


def test_validate_resolution_accepts_and_rejects(model2, J_trivial):
    ok = validate_resolution(J_trivial.complex, J_trivial.targets)
    assert ok.ok
    # flip one sign in the arc-to-point differential: exactness dies at a
    # point stalk
    bad = model2.resolution_trivial()
    d1 = bad.complex.differentials[1]
    v = "P1"
    m = d1.components[v]
    flipped = ExactMatrix.from_rows([[m[0, 0], -m[0, 1]]])
    d1.components[v] = flipped
    report = validate_resolution(bad.complex, bad.targets)
    assert not report.ok
    assert any(f.get("vertex") == "P1" for f in report.failures) or \
        any("structural" in f for f in report.failures)


def test_validate_resolution_names_failing_vertices_and_degrees():
    # without the skyscrapers at degree 0, each point stalk of J has
    # cohomology left over in degree 0
    res = SphereModel(3).resolution_n_points()
    report = validate_resolution(res.complex, {-1: res.targets[-1]})
    assert not report.ok
    assert report.failures == [{"vertex": "P1", "degrees": [0]},
                               {"vertex": "P2", "degrees": [0]},
                               {"vertex": "P3", "degrees": [0]}]


def _generated_coresolution(seed, ring):
    """(J, targets) as `compute --action end` builds them on the
    `bench/gen.py` instance (seed, index 0, shape full): the injective
    coresolution of the direct sum of its representations."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset_doc, reps_doc = gen.instance(seed, 0, "full")
    quiver = Quiver(StratPoset(
        [(s["name"], s["dim"]) for s in poset_doc["strata"]],
        [tuple(c) for c in poset_doc["covers"]], acyclicity_asserted=True))
    reps = _build_reps(reps_doc, quiver, ring)
    names = sorted(reps)
    total = direct_sum([reps[a] for a in names], names=names)
    cores = injective_coresolution(total)
    J = ComplexOfReps(quiver, ring, dict(enumerate(cores.terms)),
                      dict(enumerate(cores.maps)))
    return J, {0: (total, cores.augmentation)}


def _inexact_stalks(J, targets):
    """{vertex: the degrees where the cone of its stalk augmentation has
    cohomology}, one cone per vertex, each checked as a chain map."""
    out = {}
    for v in J.quiver.vertices:
        source = ChainComplex(J.ring, {q: rep.rank(v) for q, (rep, _)
                                       in targets.items()}, {})
        stalk = ChainComplex(J.ring,
                             {q: t.rank(v) for q, t in J.terms.items()},
                             {q: d.component(v)
                              for q, d in J.differentials.items()})
        aug = ChainMap(source, stalk, {q: m.component(v)
                                       for q, (_, m) in targets.items()})
        out[v] = [q for q, r in cone_report(mapping_cone(aug)).items()
                  if r["betti"] or r["torsion"]]
    return out


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_summed_stalk_check_is_the_conjunction_of_the_vertex_checks(seed,
                                                                    ring):
    """`validate_resolution` decides exactness on one cone, summed over all
    stalks.  On coresolutions of generated instances its verdict is the
    conjunction of one cone per vertex, and its failures are theirs: as
    built (exact); with twice the augmentation (not exact over Z only);
    and, for every vertex v in turn, with the simple representation at v
    placed in the top degree and sent to 0, which is not exact at v
    alone."""
    J, targets = _generated_coresolution(seed, ring)
    top = max(J.degrees())
    assert top > 0
    (total, aug), = targets.values()
    cases = [targets, {0: (total, aug.scale(2))}]
    for v in J.quiver.vertices:
        simple = constant_rep(J.quiver, ring, [v])
        cases.append({**targets,
                      top: (simple, RepMorphism(simple, J.term(top), {}))})
    verdicts = []
    for case in cases:
        stalks = _inexact_stalks(J, case)
        report = validate_resolution(J, case)
        assert report.failures == [{"vertex": v, "degrees": bad}
                                   for v, bad in stalks.items() if bad]
        assert report.ok == all(not bad for bad in stalks.values())
        verdicts.append((report.ok, len(report.failures)))
    assert verdicts[:2] == [(True, 0), (True, 0) if ring.is_field
                            else (False, len(total.support()))]
    assert verdicts[2:] == [(False, 1)] * len(J.quiver.vertices)


def test_complex_of_reps_validation(model2, J_trivial):
    assert validate_complex_of_reps(J_trivial.complex) == []
    # compose two maps that do not multiply to zero
    j0 = J_trivial.complex.term(0)
    bad = ComplexOfReps(model2.quiver, ZZ,
                        {0: j0, 1: j0, 2: j0},
                        {0: _identity_morphism(j0),
                         1: _identity_morphism(j0)})
    assert any("d.d != 0" in p for p in validate_complex_of_reps(bad))


def _identity_morphism(rep):
    from strathom.quiver_rep import RepMorphism

    return RepMorphism(rep, rep, {
        v: ExactMatrix.identity(rep.rank(v), rep.ring)
        for v in rep.support()})


def test_hom_complex_mismatched_quivers(model2):
    other = SphereModel(3)
    X = model2.resolution_trivial().complex
    Y = other.resolution_n_points().complex
    with pytest.raises(ValueError):
        HomComplex(X, Y)


# ------------------------------------------- tables against the pairwise route


def _flat(f):
    """Entries of a morphism in (vertex, row, col) order."""
    return [x for v in f.source.quiver.vertices
            if f.source.rank(v) and f.target.rank(v)
            for x in f.component(v).entries]


def _fresh_coords(hom, m, p, ai, bi, f):
    """Coordinates {index: c} of a block morphism X^p[ai] -> Y^(p+m)[bi]
    in the degree-m basis, from a solver built for this call alone."""
    idx = [i for i, e in enumerate(hom.basis.get(m, []))
           if (e.p, e.src_block, e.dst_block) == (p, ai, bi)]
    if not idx:
        assert f.is_zero()
        return {}
    gens = [_flat(hom.basis[m][i].morphism) for i in idx]
    x = PresolvedSolver(ExactMatrix.from_rows(
        [list(r) for r in zip(*gens)], hom.ring, cols=len(idx))).solve(_flat(f))
    assert x is not None
    return {i: c for i, c in zip(idx, x) if c != 0}


def _blocks_of(F):
    """((source block, target block), block morphism) of a morphism of
    direct sums, for every block pair."""
    src, dst = F.source, F.target
    for ai, (_, a) in enumerate(src.blocks):
        for bi, (_, b) in enumerate(dst.blocks):
            comps = {}
            for v in src.quiver.vertices:
                if a.rank(v) and b.rank(v):
                    r0, c0 = dst.block_offsets(v)[bi], src.block_offsets(v)[ai]
                    comps[v] = F.component(v).submatrix(
                        range(r0, r0 + b.rank(v)), range(c0, c0 + a.rank(v)))
            yield ai, bi, RepMorphism(a, b, comps)


def _embed(hom, m, e):
    """A generator as a morphism of the whole terms X^p -> Y^(p+m)."""
    src, dst = hom.X.term(e.p), hom.Y.term(e.p + m)
    comps = {}
    for v in hom.X.quiver.vertices:
        if src.rank(v) and dst.rank(v):
            g = e.morphism.component(v)
            r0 = dst.block_offsets(v)[e.dst_block]
            c0 = src.block_offsets(v)[e.src_block]
            comps[v] = ExactMatrix.from_entries(
                dst.rank(v), src.rank(v),
                [(r0 + i, c0 + j, x) for i, row in enumerate(g.tolist())
                 for j, x in enumerate(row)], hom.ring)
    return RepMorphism(src, dst, comps)


def _pairwise_differential(hom, m):
    """d on degree m column by column: d_Y . f - (-1)^m f . d_X on whole
    terms, cut into blocks and solved pair by pair."""
    cols = []
    sign = -1 if m % 2 else 1
    for e in hom.basis[m]:
        F = _embed(hom, m, e)
        col = {}
        dy = hom.Y.differentials.get(e.p + m)
        dx = hom.X.differentials.get(e.p - 1)
        parts = []
        if dy is not None:
            parts.append((e.p, 1, dy.compose(F)))
        if dx is not None:
            parts.append((e.p - 1, -sign, F.compose(dx)))
        for p, c, G in parts:
            for ai, bi, blk in _blocks_of(G):
                for i, x in _fresh_coords(hom, m + 1, p, ai, bi, blk).items():
                    col[i] = col.get(i, 0) + c * x
        cols.append({i: x for i, x in col.items() if x != 0})
    return cols


def _check_differential(hom):
    for m, basis in hom.basis.items():
        d = hom.complex.d(m)
        got = [{i: d[i, j] for i in range(d.rows) if d[i, j] != 0}
               for j in range(len(basis))]
        assert got == _pairwise_differential(hom, m)


def _check_end(E):
    """Unit, differential and structure constants of End against the
    pairwise route: compose each basis pair, solve with a fresh solver."""
    hom = E.hom
    unit = {}
    for p in hom.X.degrees():
        for ai, (_, a) in enumerate(hom.X.term(p).blocks):
            ident = RepMorphism(a, a, {v: ExactMatrix.identity(a.rank(v),
                                                               hom.ring)
                                       for v in a.support()})
            unit.update(_fresh_coords(hom, 0, p, ai, ai, ident))
    assert E.unit == unit
    _check_differential(hom)
    mult = {}
    for m2, basis2 in hom.basis.items():
        for j, g in enumerate(basis2):
            for m1, basis1 in hom.basis.items():
                for i, f in enumerate(basis1):
                    if (f.p, f.src_block) != (g.p + m2, g.dst_block):
                        continue
                    entry = _fresh_coords(
                        hom, m1 + m2, g.p, g.src_block, f.dst_block,
                        f.morphism.compose(g.morphism))
                    if entry:
                        mult.setdefault((m1, m2), {})[(i, j)] = entry
    assert E.mult == mult


def _coresolution_complex(v):
    cores = injective_coresolution(v)
    return ComplexOfReps(v.quiver, v.ring, dict(enumerate(cores.terms)),
                         dict(enumerate(cores.maps)))


def _betti(E):
    return {q: r["betti"] for q, r in cone_report(E.complex()).items()}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32))
@example(1)
def test_tables_match_pairwise_route_on_random_coresolutions(seed):
    """On injective coresolutions of random reps, over Z and Q: End's unit,
    differential and structure constants, and the differential of
    Hom(X, Y) for X != Y, equal the pairwise route; H(End) has the same
    Betti numbers over Q as over Z.  Closure blocks have Hom ranks <= 1, so
    the cone of the identity of a random rep V (one block V per term)
    checks tables with several generators per block pair
    (`test_random_coresolution_tables_meet_hom_pairs_of_rank_two`)."""
    assume(_tables_match_pairwise_route(seed) is not None)


def test_random_coresolution_tables_meet_hom_pairs_of_rank_two():
    """Seed 1, an example of the test above, reads coordinates on a block
    pair of Hom rank >= 2 over both rings."""
    assert min(_tables_match_pairwise_route(1).values()) >= 2


def _tables_match_pairwise_route(seed):
    """The checks of the test above on one seed: {ring: the largest Hom
    rank of a block pair read by `lattice_solve`}, or None when X has total
    rank over 20.  Here `hom_coordinates` is the one caller of
    `quiver_rep.lattice_solve`, whose first argument is the flattened
    basis, one column per generator."""
    ends, largest = {}, {}
    solve = qr.lattice_solve
    for ring in (ZZ, QQ):
        rng = random.Random(seed)
        quiver = _random_quiver(rng)
        v, w = _random_rep(quiver, ring, rng), _random_rep(quiver, ring, rng)
        X, Y = _coresolution_complex(v), _coresolution_complex(w)
        if sum(t.total_rank() for t in X.terms.values()) > 20:
            return None
        ranks = []
        with mock.patch.object(qr, "lattice_solve", lambda G, B: ranks.append(
                G.cols) or solve(G, B)):
            ends[ring] = E = end_dg_algebra(X)
            _check_end(E)
            _check_differential(HomComplex(X, Y))
            cone = ComplexOfReps(quiver, ring, {0: v, 1: v},
                                 {0: _identity_morphism(v)})
            _check_end(end_dg_algebra(cone))
            _check_differential(HomComplex(cone, Y))
        largest[ring] = max(ranks, default=0)
    assert _betti(ends[ZZ]) == _betti(ends[QQ])
    return largest


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("n", range(2, 7))
def test_tables_match_pairwise_route_on_sphere_models(n, ring):
    _check_end(SphereModel(n, ring).resolution_n_points().end_algebra())


def _line_pair(ring, v_scalar, w_scalar):
    """V and W of rank 1 on x < y, with arrows v_scalar and w_scalar."""
    quiver = Quiver(StratPoset([("x", 0), ("y", 1)], [("x", "y")]))
    return tuple(
        Representation(quiver, ring, {"x": 1, "y": 1},
                       {("x", "y"): ExactMatrix.from_rows([[c]], ring)})
        for c in (v_scalar, w_scalar))


def _by_vertex(v, w, ring, entries):
    return RepMorphism(v, w, {x: ExactMatrix.from_rows([[c]], ring)
                              for x, c in entries.items()})


def _escapes(v, w, morphism):
    with pytest.raises(AssertionError,
                       match="^morphism escaped the Hom lattice$"):
        hom_coordinates(v, w, [morphism])


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_rank_one_read_off_rejects_morphisms_off_the_generator(ring):
    """Hom(V, W) = <g> on x < y with g = 0 at y (W's arrow is 0) or at x
    (V's arrow is 0); and Hom(I_H1, I_E1) on the 2-point sphere, g = 1 on
    the closure of E1."""
    v, w = _line_pair(ring, 1, 0)
    (g,) = hom_space(v, w)
    assert [g.component(x)[0, 0] for x in "xy"] == [1, 0]
    assert hom_coordinates(v, w, [g.scale(-3)]) == [((0, -3),)]
    _escapes(v, w, _by_vertex(v, w, ring, {"x": 1, "y": 1}))
    v, w = _line_pair(ring, 0, 1)  # g = 0 at x: the lead is at y
    (g,) = hom_space(v, w)
    assert hom_coordinates(v, w, [g.scale(5)]) == [((0, 5),)]
    _escapes(v, w, _by_vertex(v, w, ring, {"x": 1, "y": 1}))
    m = SphereModel(2, ring)
    a, b = m.closure_rep("H1"), m.closure_rep("E1")
    (g,) = hom_space(a, b)
    assert hom_coordinates(a, b, [g.scale(2)]) == [((0, 2),)]
    off = dict(g.scale(2).components)
    off["P2"] = off["P2"].scale(3)
    _escapes(a, b, RepMorphism(a, b, off))


def test_rank_one_read_off_checks_divisibility_by_a_non_unit_lead():
    """V --2--> V, W --1--> W: the square 2 f_y = f_x gives the non-thin
    generator g = (2, 1), so m_x must be even over Z."""
    v, w = _line_pair(ZZ, 2, 1)
    (g,) = hom_space(v, w)
    assert [g.component(x)[0, 0] for x in "xy"] == [2, 1]
    assert hom_coordinates(v, w, [_by_vertex(v, w, ZZ, {"x": 6, "y": 3})]) \
        == [((0, 3),)]
    _escapes(v, w, _by_vertex(v, w, ZZ, {"x": 3, "y": 1}))
    _escapes(v, w, _by_vertex(v, w, ZZ, {"x": 1, "y": 0}))
    v, w = _line_pair(QQ, 2, 1)  # over Q, g = (1, 1/2)
    half = _by_vertex(v, w, QQ, {"x": Fraction(1, 2), "y": Fraction(1, 4)})
    assert hom_coordinates(v, w, [half]) == [((0, Fraction(1, 2)),)]


def _lattice_route(blocks):
    """The blocks, with the generator cleared from the record of every
    pair of them, so that `hom_coordinates`, `hom_table` and `hom_unit`
    read each pair by `lattice_solve` on its flattened basis and build
    every table by `RepMorphism.compose`: the route of every pair before
    the read by sign, kept as the reference for it."""
    for a in blocks:
        for b in blocks:
            a._homs[b] = (hom_space(a, b), None)
    return blocks


def _sphere_blocks(n, ring):
    """The distinct block representations of the n-point resolution, and
    for n = 2 of the one-point and trivial ones too, from a new model."""
    model = SphereModel(n, ring)
    resolutions = [model.resolution_n_points()]
    if n == 2:
        resolutions += [model.resolution_one_point(),
                        model.resolution_trivial()]
    blocks = {id(b): b for res in resolutions
              for t in res.complex.terms.values() for _, b in t.blocks}
    return list(blocks.values())


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("n", range(2, 9))
def test_sign_read_matches_the_lattice_route_on_sphere_blocks(n, ring,
                                                             monkeypatch):
    """Every block pair of the sphere resolutions is thin with Hom of rank
    <= 1 and is read by sign, with no `lattice_solve`; its units,
    coordinates (multiples of the generator, and zero) and the tables of
    every block triple equal the lattice route's, on the same blocks of a
    second model."""
    scalars = (1, -1, 3, Fraction(1, 2) if ring.is_field else -2)
    solves = []
    solve = qr.lattice_solve
    monkeypatch.setattr(qr, "lattice_solve",
                        lambda G, B: solves.append(G) or solve(G, B))

    def read(blocks):
        return ([hom_unit(a) for a in blocks],
                [hom_coordinates(a, b, [g.scale(x) for g in hom_space(a, b)
                                        for x in scalars]
                                 + [RepMorphism(a, b, {})])
                 for a in blocks for b in blocks],
                [hom_table(a, b, c)
                 for a in blocks for b in blocks for c in blocks])

    blocks = _sphere_blocks(n, ring)
    signs = read(blocks)
    assert all(qr._hom(a, b)[1] is not None for a in blocks for b in blocks)
    assert not solves
    assert read(_lattice_route(_sphere_blocks(n, ring))) == signs
    assert solves


def _escapes_table(a, b, c):
    with pytest.raises(AssertionError,
                       match="^morphism escaped the Hom lattice$"):
        hom_table(a, b, c)
    assert (b, c) not in a._tables


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_sign_read_rejects_a_flipped_sign_or_a_dropped_vertex(ring):
    """On the 2-point sphere, g: I_H1 -> I_E1 is 1 on the closure of E1.
    A morphism equal to g but for one flipped sign or one dropped vertex,
    and a table whose generators were mutated that way, raise the escape
    error and give no coordinate."""
    m = SphereModel(2, ring)
    h, e, p = (m.closure_rep(s) for s in ("H1", "E1", "P1"))
    g = qr._hom(h, e)[1]
    assert g == {"E1": 1, "P1": 1, "P2": 1}
    assert hom_coordinates(h, e, hom_space(h, e)) == [((0, 1),)]
    for v in g:
        comps = dict(hom_space(h, e)[0].components)
        flipped = dict(comps, **{v: comps[v].scale(-1)})
        _escapes(h, e, RepMorphism(h, e, flipped))
        del comps[v]
        _escapes(h, e, RepMorphism(h, e, comps))
    assert hom_table(h, h, e) == hom_table(h, e, p) == {(0, 0): ((0, 1),)}
    m = SphereModel(2, ring)  # new blocks, with no table remembered
    h, e = m.closure_rep("H1"), m.closure_rep("E1")
    basis, sign = qr._hom(h, h)
    h._homs[h] = (basis, dict(sign, P1=-1))  # flipped
    _escapes_table(h, h, e)
    m = SphereModel(2, ring)
    h, e = m.closure_rep("H1"), m.closure_rep("E1")
    e._homs[e] = (hom_space(e, e), {"E1": 1, "P2": 1})  # the composite drops P1
    _escapes_table(h, e, e)


def test_table_build_raises_when_a_composite_escapes_the_lattice():
    """Doubling the generators of Hom(I_H, I_P), and clearing their
    generator so that they are read by `lattice_solve`, puts the composite
    e . h of two undoubled generators outside their lattice."""
    J = SphereModel(2).resolution_trivial().complex
    blocks = {id(b): b for t in J.terms.values() for _, b in t.blocks}
    for a in blocks.values():
        for b in blocks.values():
            if len(a.support()) == 5 and len(b.support()) == 1:
                a._homs[b] = ([g.scale(2) for g in hom_space(a, b)], None)
    with pytest.raises(AssertionError,
                       match="^morphism escaped the Hom lattice$") as info:
        end_dg_algebra(J)
    assert any(entry.name == "hom_table" for entry in info.traceback)


def test_end_of_a_coresolution_shares_blocks_and_bounds_hom_calls(
        model2, monkeypatch):
    """Summands at one vertex are one object, across all terms, so End of
    the coresolution solves at most |vertices|^2 Hom systems, each once."""
    import strathom.quiver_rep as qr

    reps = [model2.closure_rep(s) for s in ("H1", "E2", "P1")]
    reps.append(model2.constant_rep())
    total = direct_sum(reps + reps[1:3])
    J = _coresolution_complex(total)
    seen = {}
    for t in J.terms.values():
        for name, block in t.blocks:
            assert seen.setdefault(name.split(".")[0], block) is block
    res = projective_resolution(total)
    covers = {}
    for t in res.terms:
        for name, block in t.blocks:
            assert covers.setdefault(name.split(":")[0], block) is block
    calls = []
    original = qr._thin_generators

    def counted(a, b, common):  # one call per solved pair
        calls.append((a, b))
        return original(a, b, common)

    monkeypatch.setattr(qr, "_thin_generators", counted)
    E = end_dg_algebra(J)
    assert E.total_dim() > 0
    assert len(calls) == len(set(calls)) <= len(model2.quiver.vertices) ** 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_find_agrees_with_a_scan_of_the_labels(n):
    """Every (kind, indices, p) and (kind, indices) of every degree, and a
    label that is absent: the index gives the one scanned position, or the
    same KeyError with the number of matches."""
    hom = SphereModel(n).resolution_n_points().end_algebra().hom
    for m in hom.basis:
        labels = hom.labels(m)
        keys = {(l.kind, l.indices, p) for l in labels for p in (l.p, None)}
        keys.add(("gen", ("absent",), None))
        for kind, indices, p in keys:
            hits = [i for i, l in enumerate(labels)
                    if l.kind == kind and l.indices == indices
                    and p in (None, l.p)]
            if len(hits) == 1:
                assert hom.find(m, kind, list(indices), p) == hits[0]
                continue
            with pytest.raises(KeyError) as err:
                hom.find(m, kind, indices, p)
            assert err.value.args[0] == (
                f"label ({kind}, {indices}, p={p}) matches {len(hits)} "
                f"basis elements in degree {m}")


def test_hom_labels_are_frozen_and_hash_by_value():
    a, b = _label_for("H1", "P2", 0, 1), HomLabel("hp", (1, 2), 1)
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, HomLabel("hp", (1, 2), 0)}) == 2
    with pytest.raises(AttributeError):
        a.p = 0
    assert a.render(ambiguous=True) == "hp_12^(1)"


def test_products_are_built_only_when_read(tmp_path, monkeypatch, capsys):
    """`compute --action end` reports ranks and cohomology only, so it
    never builds End's structure constants; `formality n-points` reads
    them, and builds them once."""
    import strathom.rep_complex as rc
    from strathom.cli import main
    from test_cli import POSET_A2, REPS_C

    calls = []
    original = rc._end_products

    def counted(hom):
        calls.append(hom)
        return original(hom)

    monkeypatch.setattr(rc, "_end_products", counted)
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    poset.write_text(json.dumps(POSET_A2))
    reps.write_text(json.dumps(REPS_C))
    assert main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "end"]) == 0
    assert calls == []
    assert main(["formality", "n-points", "--n", "4"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("seed", range(4))
def test_products_built_on_first_read_make_a_valid_dg_algebra(seed, ring):
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    E = end_dg_algebra(_coresolution_complex(_random_rep(quiver, ring, rng)))
    assert "mult" not in vars(E)
    mult = E.mult
    assert mult and E.mult is mult
    assert validate_dg_algebra(E) == []


# ------------------------------------------------ labels made on first read


def test_labels_are_made_once_per_generator_and_only_when_read(
        tmp_path, monkeypatch, capsys):
    """`compute --action end` on the inputs of `test_compute_golden_bytes`
    reports ranks and cohomology only, and makes no Hom-basis label;
    `formality n-points --n 30` reads every label and makes each once:
    452 = 30 + 152 + 210 + 60, the rank of End J."""
    import strathom.rep_complex as rc
    from strathom.cli import main

    calls = []
    original = rc._label_for

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rc, "_label_for", counted)
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    for index in (0, 1):
        gen.write_instance(1, index, "full", str(poset), str(reps))
        for ring in ("Z", "Q"):
            capsys.readouterr()
            assert main(["compute", "--poset", str(poset), "--reps",
                         str(reps), "--action", "end", "--ring", ring]) == 0
            ranks = json.loads(capsys.readouterr().out)["results"]
            assert sum(ranks["end_ranks"].values()) > 0
    assert calls == []
    assert main(["formality", "n-points", "--n", "30"]) == 0
    assert len(calls) == 452
    capsys.readouterr()


def test_end_unit_is_made_only_when_read(tmp_path, monkeypatch, capsys):
    """`compute --action end` on the inputs of `test_compute_golden_bytes`
    never reads the unit of End J, so no `hom_unit` is called; `formality
    n-points`, which checks the unit laws, reads it."""
    import strathom.rep_complex as rc
    from strathom.cli import main

    calls = []
    original = rc.hom_unit

    def counted(V):
        calls.append(V)
        return original(V)

    monkeypatch.setattr(rc, "hom_unit", counted)
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    for index in (0, 1):
        gen.write_instance(1, index, "full", str(poset), str(reps))
        for ring in ("Z", "Q"):
            assert main(["compute", "--poset", str(poset), "--reps",
                         str(reps), "--action", "end", "--ring", ring]) == 0
    assert calls == []
    assert main(["formality", "n-points", "--n", "4"]) == 0
    assert calls
    capsys.readouterr()


def _eager_labels(hom):
    """Reference: every label of every degree made at once by `_label_for`
    from the block names of the two terms."""
    return {m: [_label_for(hom.X.term(e.p).blocks[e.src_block][0],
                           hom.Y.term(e.p + m).blocks[e.dst_block][0],
                           e.k, e.p) for e in basis]
            for m, basis in hom.basis.items()}


def _scanned_find(labels, m, kind, indices, p):
    """The one position of degree m whose label matches, else the KeyError
    message."""
    hits = [i for i, l in enumerate(labels) if l.kind == kind
            and l.indices == indices and p in (None, l.p)]
    return hits[0] if len(hits) == 1 else (
        f"label ({kind}, {indices}, p={p}) matches {len(hits)} basis "
        f"elements in degree {m}")


def _check_labels_against_eager(build):
    """Two fresh End algebras from `build`, one read `find` first and the
    other rendering first: both equal the eager reference."""
    for find_first in (True, False):
        E = build()
        hom = E.hom
        assert "labels" not in vars(E) and not hom._labels
        ref = _eager_labels(hom)

        def finds(m):
            out = {}
            keys = {(l.kind, l.indices, p) for l in ref[m]
                    for p in (l.p, None)} | {("gen", ("absent",), None)}
            for kind, indices, p in keys:
                try:
                    out[(kind, indices, p)] = hom.find(m, kind, indices, p)
                except KeyError as err:
                    out[(kind, indices, p)] = err.args[0]
                assert out[(kind, indices, p)] == _scanned_find(
                    ref[m], m, kind, indices, p)
            return out

        if find_first:
            found = {m: finds(m) for m in ref}
            rendered = E.labels
        else:
            rendered = E.labels
            found = {m: finds(m) for m in ref}
        for m, labels in ref.items():
            counts = Counter((l.kind, l.indices) for l in labels)
            want = [l.render(counts[(l.kind, l.indices)] > 1) for l in labels]
            assert hom.labels(m) == labels and hom.labels(m) is hom.labels(m)
            assert hom.rendered_labels(m) == want and rendered[m] == want
        assert set(rendered) == set(ref) and E.labels is rendered
        assert hom.labels(max(ref, default=0) + 1) == []
        if find_first:
            first = found
        else:
            assert found == first


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("scenario", ["trivial", "one-point", 2, 3, 4, 5, 6])
def test_labels_on_first_read_equal_eager_labels_on_sphere_models(scenario,
                                                                 ring):
    def build():
        model = SphereModel(2 if isinstance(scenario, str) else scenario,
                            ring)
        res = (model.resolution_trivial() if scenario == "trivial"
               else model.resolution_one_point() if scenario == "one-point"
               else model.resolution_n_points())
        return res.end_algebra()

    _check_labels_against_eager(build)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_labels_on_first_read_equal_eager_labels_on_coresolutions(ring,
                                                                  seed):
    def build():
        rng = random.Random(seed)
        v = _random_rep(_random_quiver(rng), ring, rng)
        return end_dg_algebra(_coresolution_complex(v))

    _check_labels_against_eager(build)


# ------------------------------------------------ block pairs by support


def _basis_by_all_pairs(hom, m):
    """Reference for `HomComplex._degree_basis`: a fresh Hom basis for
    every (source block, target block) pair of every term, in (p, ai, bi,
    k) order."""
    out = []
    for p in hom.X.degrees():
        xt, yt = hom.X.term(p), hom.Y.term(p + m)
        if xt is None or yt is None:
            continue
        for ai, (aname, arep) in enumerate(xt.blocks):
            for bi, (bname, brep) in enumerate(yt.blocks):
                out.extend((p, ai, bi, k, _label_for(aname, bname, k, p),
                            gen.components)
                           for k, gen in enumerate(hom_space(arep, brep)))
    return out


def _check_basis(hom):
    X, Y = hom.X, hom.Y
    lo = min(Y.degrees(), default=0) - max(X.degrees(), default=0)
    hi = max(Y.degrees(), default=0) - min(X.degrees(), default=0)
    for m in range(lo - 1, hi + 2):
        got = [(e.p, e.src_block, e.dst_block, e.k, label,
                e.morphism.components)
               for e, label in zip(hom.basis.get(m, []), hom.labels(m))]
        assert got == _basis_by_all_pairs(hom, m)
        assert (m in hom.basis) == bool(got)


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("n", range(2, 9))
def test_degree_basis_by_support_matches_all_pairs_on_spheres(n, ring):
    J = SphereModel(n, ring).resolution_n_points().complex
    _check_basis(HomComplex(J, J))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_degree_basis_by_support_matches_all_pairs_on_random_sums(ring,
                                                                  seed):
    """Terms that are sums of `_random_rep` summands (stalks of rank 2,
    Hom ranks above 1) and of closure reps, with zero differentials."""
    rng = random.Random(seed)
    quiver = _random_quiver(rng)

    def term():
        reps = [_random_rep(quiver, ring, rng)
                for _ in range(rng.randint(1, 3))]
        reps += [closure_rep(quiver, rng.choice(quiver.vertices), ring)
                 for _ in range(rng.randint(0, 2))]
        return direct_sum(reps, names=[f"B{k}" for k in range(len(reps))])

    X = ComplexOfReps(quiver, ring, {0: term(), 1: term()}, {})
    Y = ComplexOfReps(quiver, ring, {-1: term(), 0: term(), 2: term()}, {})
    _check_basis(HomComplex(X, Y))
    _check_basis(HomComplex(X, X))


def test_block_pair_visits_grow_linearly_in_n(monkeypatch):
    """End J has dimension 15n + 2; the block-pair Homs solved while
    building J and End J grow as n too, not as the n^2 block pairs."""
    import strathom.quiver_rep as qr

    calls = {"solves": 0}
    original = qr._thin_generators

    def counted(a, b, common):  # one call per solved pair
        calls["solves"] += 1
        return original(a, b, common)

    monkeypatch.setattr(qr, "_thin_generators", counted)
    counts = {}
    for n in (20, 40):
        calls["solves"] = 0
        J = SphereModel(n).resolution_n_points().complex
        assert HomComplex(J, J).complex.ranks == {
            -1: n, 0: 5 * n + 2, 1: 7 * n, 2: 2 * n}
        counts[n] = calls["solves"]
    assert 0 < counts[40] <= 2.2 * counts[20]


def test_end_reuses_the_verdict_of_validate_resolution(monkeypatch):
    """A complex that `validate_resolution` accepted is not validated again
    by `end_dg_algebra`; a complex from outside still is."""
    import strathom.rep_complex as rc

    calls = []
    original = rc.validate_representation

    def counted(V):
        calls.append(V)
        return original(V)

    monkeypatch.setattr(rc, "validate_representation", counted)
    res = SphereModel(3).resolution_n_points()
    assert validate_resolution(res.complex, res.targets).ok
    assert len(calls) == len(res.complex.terms) == 3
    end_dg_algebra(res.complex)
    assert len(calls) == 3
    fresh = ComplexOfReps(res.complex.quiver, ZZ, dict(res.complex.terms),
                          dict(res.complex.differentials))
    end_dg_algebra(fresh)
    assert len(calls) == 6
    term = res.complex.term(-1)  # the hemispheres: rank 2 at every stalk
    bent = Representation(term.quiver, ZZ, term.stalk_rank, {
        a: m.scale(-1) if a == term.quiver.arrows[0] else m
        for a, m in term.arrow_map.items()}, blocks=term.blocks)
    bad = ComplexOfReps(term.quiver, ZZ, {0: bent}, {})
    first = validate_complex_of_reps(bad)
    assert first and first[0].startswith("term 0: parallel paths")
    for _ in range(2):  # the remembered verdict is the same failure
        with pytest.raises(ValueError, match="^invalid complex: term 0: "):
            end_dg_algebra(bad)
        assert validate_complex_of_reps(bad) == first
