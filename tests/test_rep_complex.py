import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from strathom.chain_complex import cohomology, cone_report, validate_complex
from strathom.dg import DgMorphism, is_quasi_iso_dg, validate_dg_algebra
from strathom.exact_linalg import QQ, ZZ, ExactMatrix, PresolvedSolver
from strathom.quiver_rep import (
    Quiver,
    Representation,
    RepMorphism,
    StratPoset,
    direct_sum,
    hom_space,
    injective_coresolution,
    projective_resolution,
)
from strathom.rep_complex import (
    ComplexOfReps,
    HomComplex,
    _PairCache,
    end_dg_algebra,
    shift_complex_of_reps,
    validate_complex_of_reps,
    validate_resolution,
)
from strathom.sphere_models import SphereModel
from test_quiver_rep import _random_quiver, _random_rep


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
    basis = hom.basis[degree]
    tgt = hom.basis.get(degree + 1, [])
    d = E.complex().d(degree)
    rows = {}
    for j, e in enumerate(basis):
        img = {}
        for i in range(d.rows):
            if d[i, j] != 0:
                lab = tgt[i].label
                img[(lab.kind, lab.indices)] = d[i, j]
        rows[(e.label.kind, e.label.indices)] = img
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
    assert E.mult_entry(0, 0, 0, 0) == {0: 1}


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
        for m, basis in E_trivial.hom.basis.items():
            for i, e in enumerate(basis):
                match[(m, i)] = E2.hom.find(m, e.label.kind, e.label.indices,
                                            e.label.p - k)
        # multiplication agrees on the nose
        for (m1, m2), table in E_trivial.mult.items():
            for (i, j), prod in table.items():
                expected = {match[(m1 + m2, t)]: c for t, c in prod.items()}
                got = E2.mult_entry(m1, m2, match[(m1, i)], match[(m2, j)])
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
        dy, dx = hom.Y.differential(e.p + m), hom.X.differential(e.p - 1)
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
def test_tables_match_pairwise_route_on_random_coresolutions(seed):
    """On injective coresolutions of random reps, over Z and Q: End's unit,
    differential and structure constants, and the differential of
    Hom(X, Y) for X != Y, equal the pairwise route; H(End) has the same
    Betti numbers over Q as over Z.  Closure blocks have Hom ranks <= 1, so
    the cone of the identity of a random rep V (one block V per term)
    checks tables with several generators per block pair."""
    ends = {}
    for ring in (ZZ, QQ):
        rng = random.Random(seed)
        quiver = _random_quiver(rng)
        v, w = _random_rep(quiver, ring, rng), _random_rep(quiver, ring, rng)
        X, Y = _coresolution_complex(v), _coresolution_complex(w)
        assume(sum(t.total_rank() for t in X.terms.values()) <= 20)
        ends[ring] = E = end_dg_algebra(X)
        _check_end(E)
        _check_differential(HomComplex(X, Y))
        cone = ComplexOfReps(quiver, ring, {0: v, 1: v},
                             {0: _identity_morphism(v)})
        _check_end(end_dg_algebra(cone))
        _check_differential(HomComplex(cone, Y))
    assert _betti(ends[ZZ]) == _betti(ends[QQ])


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


def _escapes(pairs, v, w, morphism):
    with pytest.raises(AssertionError,
                       match="^morphism escaped the Hom lattice$"):
        pairs.coordinates(v, w, [morphism])


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_rank_one_read_off_rejects_morphisms_off_the_generator(ring):
    """Hom(V, W) = <g> on x < y with g = 0 at y (W's arrow is 0) or at x
    (V's arrow is 0); and Hom(I_H1, I_E1) on the 2-point sphere, g = 1 on
    the closure of E1."""
    pairs = _PairCache()
    v, w = _line_pair(ring, 1, 0)
    (g,) = pairs.gens(v, w)
    assert [g.component(x)[0, 0] for x in "xy"] == [1, 0]
    assert pairs.coordinates(v, w, [g.scale(-3)]) == [((0, -3),)]
    _escapes(pairs, v, w, _by_vertex(v, w, ring, {"x": 1, "y": 1}))
    v, w = _line_pair(ring, 0, 1)  # g = 0 at x: the lead is at y
    (g,) = pairs.gens(v, w)
    assert pairs.coordinates(v, w, [g.scale(5)]) == [((0, 5),)]
    _escapes(pairs, v, w, _by_vertex(v, w, ring, {"x": 1, "y": 1}))
    m = SphereModel(2, ring)
    a, b = m.closure_rep("H1"), m.closure_rep("E1")
    (g,) = pairs.gens(a, b)
    assert pairs.coordinates(a, b, [g.scale(2)]) == [((0, 2),)]
    off = dict(g.scale(2).components)
    off["P2"] = off["P2"].scale(3)
    _escapes(pairs, a, b, RepMorphism(a, b, off))


def test_rank_one_read_off_checks_divisibility_by_a_non_unit_lead():
    """V --2--> V, W --1--> W: the square 2 f_y = f_x gives the non-thin
    generator g = (2, 1), so m_x must be even over Z."""
    pairs = _PairCache()
    v, w = _line_pair(ZZ, 2, 1)
    (g,) = pairs.gens(v, w)
    assert [g.component(x)[0, 0] for x in "xy"] == [2, 1]
    assert pairs.coordinates(v, w, [_by_vertex(v, w, ZZ, {"x": 6, "y": 3})]) \
        == [((0, 3),)]
    _escapes(pairs, v, w, _by_vertex(v, w, ZZ, {"x": 3, "y": 1}))
    _escapes(pairs, v, w, _by_vertex(v, w, ZZ, {"x": 1, "y": 0}))
    v, w = _line_pair(QQ, 2, 1)  # over Q, g = (1, 1/2)
    half = _by_vertex(v, w, QQ, {"x": Fraction(1, 2), "y": Fraction(1, 4)})
    assert pairs.coordinates(v, w, [half]) == [((0, Fraction(1, 2)),)]


def test_table_build_raises_when_a_composite_escapes_the_lattice(
        monkeypatch):
    """Doubling the generators of Hom(I_H, I_P) puts the composite
    e . h of two undoubled generators outside their lattice."""
    import strathom.rep_complex as rc

    original = rc.hom_space

    def doubled(a, b):
        gens = original(a, b)
        if len(a.support()) == 5 and len(b.support()) == 1:
            return [g.scale(2) for g in gens]
        return gens

    monkeypatch.setattr(rc, "hom_space", doubled)
    J = SphereModel(2).resolution_trivial().complex
    with pytest.raises(AssertionError,
                       match="^morphism escaped the Hom lattice$") as info:
        end_dg_algebra(J)
    assert any(entry.name == "table" for entry in info.traceback)


def test_end_of_a_coresolution_shares_blocks_and_bounds_hom_calls(
        model2, monkeypatch):
    """Summands at one vertex are one object, across all terms, so End of
    the coresolution solves at most |vertices|^2 Hom systems."""
    import strathom.rep_complex as rc

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
    original = rc.hom_space

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(rc, "hom_space", counted)
    E = end_dg_algebra(J)
    assert E.total_dim() > 0
    assert len(calls) == len(set(calls)) <= len(model2.quiver.vertices) ** 2
