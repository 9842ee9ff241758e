import importlib.util
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from strathom import cli, exact_linalg, quiver_rep
from strathom.chain_complex import (
    ChainComplex,
    cohomology,
    cone_report,
    validate_complex,
)
from strathom.exact_linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    PresolvedSolver,
    invariant_factors,
    kernel_basis,
)
from strathom.quiver_rep import (
    Quiver,
    RepMorphism,
    Representation,
    StratPoset,
    _cokernel_rep,
    direct_sum,
    ext,
    ext_all,
    hom_complex_against,
    hom_rank,
    hom_space,
    indecomposable_projective,
    injective_coresolution,
    projective_resolution,
    validate_representation,
    zero_rep,
)
from strathom.rep_complex import ComplexOfReps, HomComplex
from strathom.sphere_models import SphereModel


def sphere_poset_2():
    """Two points, two half-equators, two hemispheres."""
    strata = [("P1", 0), ("P2", 0), ("E1", 1), ("E2", 1), ("H1", 2), ("H2", 2)]
    covers = [("P1", "E1"), ("P1", "E2"), ("P2", "E1"), ("P2", "E2"),
              ("E1", "H1"), ("E1", "H2"), ("E2", "H1"), ("E2", "H2")]
    return StratPoset(strata, covers, acyclicity_asserted=True)


def closure_rep(quiver, s, ring=ZZ):
    support = set(quiver.poset.down_set(s))
    stalks = {v: 1 for v in support}
    one = ExactMatrix.identity(1, ring)
    arrows = {(a, b): one for a, b in quiver.arrows
              if a in support and b in support}
    return Representation(quiver, ring, stalks, arrows)


def constant_rep(quiver, ring=ZZ):
    one = ExactMatrix.identity(1, ring)
    return Representation(quiver, ring, {v: 1 for v in quiver.vertices},
                          {arrow: one for arrow in quiver.arrows})


@pytest.fixture(scope="module")
def q2():
    return Quiver(sphere_poset_2())


# ------------------------------------------------------------ posets/quivers


def test_poset_rejects_cycles():
    with pytest.raises(ValueError, match="antisymmetric"):
        StratPoset([("a", 0), ("b", 1)], [("a", "b"), ("b", "a")])


def test_poset_rejects_unknown_stratum():
    with pytest.raises(ValueError, match="unknown"):
        StratPoset([("a", 0)], [("a", "b")])


def test_quiver_counts_for_two_point_sphere(q2):
    assert len(q2.vertices) == 6
    assert len(q2.arrows) == 8


def test_single_stratum_quiver():
    q = Quiver(StratPoset([("X", 2)], []))
    assert q.vertices == ["X"] and q.arrows == []


def test_hasse_drops_transitive_covers():
    # declaring a <= c explicitly must not create an extra arrow
    p = StratPoset([("a", 0), ("b", 1), ("c", 2)],
                   [("a", "b"), ("b", "c"), ("a", "c")])
    q = Quiver(p)
    assert sorted(q.arrows) == [("a", "b"), ("b", "c")]


def test_parallel_paths_enumeration(q2):
    paths = q2.paths("P1", "H1")
    assert sorted(paths) == [["P1", "E1", "H1"], ["P1", "E2", "H1"]]


# ------------------------------------------------------------ representations


def test_constant_rep_validates(q2):
    assert validate_representation(constant_rep(q2)) == []


def test_zero_rep_validates(q2):
    assert validate_representation(zero_rep(q2, ZZ)) == []


def test_negated_arrow_breaks_commutativity(q2):
    c = constant_rep(q2)
    bad = dict(c.arrow_map)
    bad[("P1", "E1")] = ExactMatrix.from_rows([[-1]])
    v = Representation(q2, ZZ, c.stalk_rank, bad)
    problems = validate_representation(v)
    assert problems and "parallel paths" in problems[0]


# ------------------------------------------------------------ hom spaces


def test_hom_rank_table_two_points(q2):
    reps = {s: closure_rep(q2, s) for s in q2.vertices}
    expected_rank_one = set()
    for j in ("H1", "H2"):
        expected_rank_one.add((j, j))
        for i in ("E1", "E2", "P1", "P2"):
            expected_rank_one.add((j, i))
    for i in ("E1", "E2", "P1", "P2"):
        expected_rank_one.add((i, i))
    for j in ("E1", "E2"):
        for i in ("P1", "P2"):
            expected_rank_one.add((j, i))
    for s in q2.vertices:
        for t in q2.vertices:
            want = 1 if (s, t) in expected_rank_one else 0
            v, w = reps[s], reps[t]
            assert len(quiver_rep._dense_hom_space(v, w)) == want, (s, t)
            assert hom_rank(v, w) == len(hom_space(v, w)) == want, (s, t)


def test_hom_generators_are_valid_and_normalized(q2):
    a = closure_rep(q2, "H1")
    b = closure_rep(q2, "E1")
    (gen,) = hom_space(a, b)
    assert gen.validate() == []
    for v in gen.source.support():
        if gen.target.rank(v):
            assert gen.component(v)[0, 0] == 1


def test_hom_constant_to_constant_is_scalars(q2):
    c = constant_rep(q2)
    basis = hom_space(c, c)
    assert len(basis) == 1


def test_hom_mismatched_quivers_rejected(q2):
    other = Quiver(StratPoset([("X", 0)], []))
    with pytest.raises(ValueError):
        hom_space(constant_rep(q2), constant_rep(other))


# ------------------------------------------------------------ direct sums


def test_direct_sum_empty(q2):
    z = direct_sum([], quiver=q2, ring=ZZ)
    assert z.is_zero()


def test_direct_sum_skyscrapers(q2):
    s = direct_sum([closure_rep(q2, "P1"), closure_rep(q2, "P2")],
                   names=["P1", "P2"])
    ranks = [s.rank(v) for v in ["P1", "P2", "E1", "E2", "H1", "H2"]]
    assert ranks == [1, 1, 0, 0, 0, 0]
    assert [n for n, _ in s.blocks] == ["P1", "P2"]


def test_direct_sum_constant_twice(q2):
    c = constant_rep(q2)
    s = direct_sum([c, c])
    assert all(s.rank(v) == 2 for v in q2.vertices)
    assert validate_representation(s) == []


# ------------------------------------------------------------ projectives


def test_projective_at_maximal_vertex(q2):
    p = indecomposable_projective(q2, "H1")
    assert p.support() == ["H1"]


def test_projective_at_point_reaches_everything(q2):
    p = indecomposable_projective(q2, "P1")
    assert sorted(p.support()) == ["E1", "E2", "H1", "H2", "P1"]


def test_yoneda_hom_from_projective(q2):
    c = constant_rep(q2)
    for x in q2.vertices:
        p = indecomposable_projective(q2, x)
        assert len(hom_space(p, c)) == 1
    w = closure_rep(q2, "P1")
    for x in q2.vertices:
        p = indecomposable_projective(q2, x)
        assert len(hom_space(p, w)) == w.rank(x)


def test_yoneda_on_random_small_reps(q2):
    rng = random.Random(5)
    for _ in range(5):
        stalks = {v: rng.randint(0, 2) for v in q2.vertices}
        # identity-compatible random rep: scalar action along arrows needs
        # commuting squares, so use a constant-multiple structure
        arrows = {}
        for a, b in q2.arrows:
            if stalks[a] and stalks[b]:
                arrows[(a, b)] = ExactMatrix.from_entries(
                    stalks[b], stalks[a],
                    [(i, i, 1) for i in range(min(stalks[a], stalks[b]))])
        w = Representation(q2, ZZ, stalks, arrows)
        if validate_representation(w):
            continue
        for x in q2.vertices:
            p = indecomposable_projective(q2, x)
            assert len(hom_space(p, w)) == w.rank(x)


# ------------------------------------------------------------ resolutions/ext


def resolution_is_exact(res) -> bool:
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


def test_resolution_of_projective_is_short(q2):
    p = indecomposable_projective(q2, "H1")
    res = projective_resolution(p)
    assert res.length() == 0
    assert resolution_is_exact(res)


def test_resolution_of_skyscraper(q2):
    w = closure_rep(q2, "P1")
    res = projective_resolution(w)
    assert resolution_is_exact(res)
    assert res.length() <= len(q2.vertices)


def test_resolution_of_constant(q2):
    c = constant_rep(q2)
    res = projective_resolution(c)
    assert resolution_is_exact(res)


def test_resolution_length_cap_is_hard_error(q2):
    with pytest.raises(ValueError, match="did not terminate"):
        projective_resolution(constant_rep(q2), max_len=0)


def test_ext_examples_from_closure_reps(q2):
    ih1 = closure_rep(q2, "H1")
    ie1 = closure_rep(q2, "E1")
    ip1 = closure_rep(q2, "P1")
    assert ext(ih1, ip1, 1) == (0, [])
    assert ext(ie1, ip1, 0) == (1, [])
    assert ext(ip1, ih1, 0) == (0, [])


def test_ext_vanishes_on_projective_source(q2):
    p = indecomposable_projective(q2, "P1")
    c = constant_rep(q2)
    res = projective_resolution(p)
    for q in (1, 2, 3):
        assert ext(p, c, q, resolution=res) == (0, [])


def test_ext0_equals_hom_rank(q2):
    reps = {s: closure_rep(q2, s) for s in q2.vertices}
    for s in ("H1", "E1", "P2"):
        res = projective_resolution(reps[s])
        for t in q2.vertices:
            assert ext(reps[s], reps[t], 0, resolution=res)[0] == \
                len(hom_space(reps[s], reps[t]))


def test_ext_over_rationals(q2):
    ih1 = closure_rep(q2, "H1", QQ)
    ip1 = closure_rep(q2, "P1", QQ)
    assert ext(ih1, ip1, 1) == (0, [])
    assert ext(ih1, ip1, 0) == (1, [])


def test_ext_all_zero_qmax(q2):
    ih1, ip1 = closure_rep(q2, "H1"), closure_rep(q2, "P1")
    assert ext_all(ih1, ip1, 0) == [(1, [])]


def test_ext_all_above_resolution_length(q2):
    c = constant_rep(q2)
    res = projective_resolution(c)
    table = ext_all(c, c, res.length() + 3, res)
    assert len(table) == res.length() + 4
    assert table[0] == (1, [])
    assert table[res.length() + 1:] == [(0, [])] * 3


def test_ext_rejects_negative_degree(q2):
    c = constant_rep(q2)
    with pytest.raises(ValueError, match="nonnegative"):
        ext(c, c, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        ext_all(c, c, -1)


def test_ext_is_one_degree_of_ext_all(q2):
    reps = [closure_rep(q2, s) for s in ("H1", "E1", "P2")] + \
        [constant_rep(q2)]
    for v in reps:
        res = projective_resolution(v)
        for w in reps:
            table = ext_all(v, w, 4, res)
            assert [ext(v, w, q, resolution=res) for q in range(5)] == table


def _times_two(ring):
    # a < b with V = (R --2--> R)
    quiver = Quiver(StratPoset([("a", 0), ("b", 1)], [("a", "b")]))
    two = ExactMatrix.from_rows([[2]], ring)
    return Representation(quiver, ring, {"a": 1, "b": 1}, {("a", "b"): two})


def _lift_route(res, w, qmax):
    h = cohomology(hom_complex_against(res, w))
    return [(h.betti(q), h.torsion(q)) for q in range(qmax + 1)]


def test_ext_all_torsion_over_integers():
    v = _times_two(ZZ)
    res = projective_resolution(v)
    assert ext_all(v, v, 2) == [(1, []), (0, [2]), (0, [])]
    assert ext_all(v, v, 2, res) == _lift_route(res, v, 2)


def test_ext_all_torsion_vanishes_over_rationals():
    v = _times_two(QQ)
    res = projective_resolution(v)
    assert ext_all(v, v, 2)[1] == (0, [])
    assert ext_all(v, v, 2, res) == _lift_route(res, v, 2)


def _random_quiver(rng) -> Quiver:
    names = [f"s{i}" for i in range(rng.randint(1, 7))]
    covers = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
              if rng.random() < 0.35]
    return Quiver(StratPoset([(s, 0) for s in names], covers))


def _random_line(quiver, ring, rng, thin=False) -> Representation:
    """Rank 1 on a convex support with arrows p^(w(b) - w(a)), w monotone.

    The support is the intersection of an up-set and a down-set, so every
    path between two supported strata stays in the support, and the scalars
    along it multiply to p^(w(end) - w(start)): parallel paths agree.  A
    thin line has p in {0, 1} (0^0 = 1) and each arrow times signs s_a s_b,
    which cancel along paths.
    """
    poset = quiver.poset
    n = len(quiver.vertices)
    lows = rng.sample(quiver.vertices, rng.randint(1, n))
    highs = rng.sample(quiver.vertices, rng.randint(1, n))
    marks = rng.sample(quiver.vertices, rng.randint(0, min(2, n)))
    support = [v for v in quiver.vertices
               if any(poset.leq(a, v) for a in lows)
               and any(poset.leq(v, b) for b in highs)]
    weight = {v: sum(poset.leq(t, v) for t in marks) for v in support}
    p = rng.choice([0, 1] if thin else [1, 2, 3])
    sign = ({v: rng.choice([1, -1]) for v in support} if thin
            else dict.fromkeys(support, 1))
    arrows = {(a, b): ExactMatrix.from_rows(
        [[sign[a] * sign[b] * p ** (weight[b] - weight[a])]], ring)
        for a, b in quiver.arrows if a in weight and b in weight}
    return Representation(quiver, ring, {v: 1 for v in support}, arrows)


def _random_rep(quiver, ring, rng) -> Representation:
    """Stalk ranks <= 2: two lines, then a unimodular change of basis at
    every stalk of rank 2, so arrows are not diagonal."""
    v = direct_sum([_random_line(quiver, ring, rng) for _ in range(2)])
    change = {}
    for x in quiver.vertices:
        if v.rank(x) == 2:
            k = rng.randint(-2, 2)
            change[x] = (ExactMatrix.from_rows([[1, k], [0, 1]], ring),
                         ExactMatrix.from_rows([[1, -k], [0, 1]], ring))
    arrows = {}
    for (a, b), m in v.arrow_map.items():
        if b in change:
            m = change[b][0] @ m
        if a in change:
            m = m @ change[a][1]
        arrows[(a, b)] = m
    w = Representation(quiver, ring, v.stalk_rank, arrows)
    assert validate_representation(w) == []
    return w


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_ext_all_matches_lift_route_and_injective_coresolution(ring, seed):
    """Ext^q(V, W) three ways: invariant factors of Hom(P(V), W), its
    subquotients with lifts, and H^q Hom(V, I(W)) through closure reps."""
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    v, w = _random_rep(quiver, ring, rng), _random_rep(quiver, ring, rng)
    res = projective_resolution(v)
    cores = injective_coresolution(w)
    qmax = max(res.length(), len(cores.terms) - 1) + 1
    table = ext_all(v, w, qmax, res)
    assert table == _lift_route(res, w, qmax)
    source = ComplexOfReps(quiver, ring, {0: v}, {})
    target = ComplexOfReps(quiver, ring, dict(enumerate(cores.terms)),
                           dict(enumerate(cores.maps)))
    h = cohomology(HomComplex(source, target).complex)
    assert table == [(h.betti(q), h.torsion(q)) for q in range(qmax + 1)]


# ------------------------------------------------------------ Hom from stalks


def _stack_flat(morphisms):
    """Morphisms V -> W (at least one) as the columns of one matrix: the
    entries of each, in (vertex, row, col) order over the common support of
    V and W, as `_hom_system` numbers its unknowns."""
    V, W = morphisms[0].source, morphisms[0].target
    entries = []
    at = 0
    for v in V.support():
        if W.rank(v):
            c = V.rank(v)
            for t, m in enumerate(morphisms):
                entries.extend((at + i * c + j, t, x) for j, col in
                               m.component(v).columns.items()
                               for i, x in col.items())
            at += W.rank(v) * c
    return ExactMatrix.from_entries(at, len(morphisms), entries, V.ring)


def _solve_all(solver, B, failure):
    """The coordinates of every column of B on the Smith route, as the
    columns of one matrix; AssertionError(failure) when a column lies
    outside the lattice."""
    cols = solver.solve_many(B)
    if any(c is None for c in cols):
        raise AssertionError(failure)
    return ExactMatrix.from_entries(solver.M.cols, B.cols, (
        (i, j, x) for j, c in enumerate(cols) for i, x in enumerate(c)),
        B.ring)


def _hom_complex_by_solves(res, w):
    """Reference route: a solved basis of Hom(Q_q, W) in every degree, and
    each composite f . d expressed in the next basis."""
    bases = [hom_space(Q, w) for Q in res.terms]
    diffs = {}
    for q, d in enumerate(res.maps):
        if bases[q] and bases[q + 1]:
            diffs[q] = _solve_all(
                PresolvedSolver(_stack_flat(bases[q + 1])),
                _stack_flat([f.compose(d) for f in bases[q]]),
                "composite escaped the Hom lattice")
    return ChainComplex(w.ring, {q: len(b) for q, b in enumerate(bases)},
                        diffs)


def _check_stalk_route(res, w):
    cc, solved = hom_complex_against(res, w), _hom_complex_by_solves(res, w)
    assert validate_complex(cc) == []
    assert cc.ranks == solved.ranks
    report = cone_report(cc)
    assert report == cone_report(solved)
    return report


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_stalk_route_matches_solve_route(ring, seed):
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    v, w = _random_rep(quiver, ring, rng), _random_rep(quiver, ring, rng)
    _check_stalk_route(projective_resolution(v), w)
    assert hom_rank(v, w) == len(quiver_rep._dense_hom_space(v, w))


@pytest.mark.parametrize("ring,torsion", [(ZZ, [2]), (QQ, [])])
def test_stalk_route_keeps_torsion(ring, torsion):
    """Over QQ, V = (R --2--> R) is projective, so its minimal resolution
    has length 0 and the Hom complex has no degree 1."""
    v = _times_two(ring)
    res = projective_resolution(v)
    _check_stalk_route(res, v)
    assert ext_all(v, v, 1, res)[1] == (0, torsion)
    if ring.is_field:
        assert res.length() == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_stalk_route_on_sphere_closure_reps(n):
    m = SphereModel(n)
    reps = [m.closure_rep(s) for s in m.poset.strata]
    for v in reps:
        res = projective_resolution(v)
        for w in reps:
            _check_stalk_route(res, w)


def test_resolution_records_generator_vertices(q2):
    v = direct_sum([closure_rep(q2, "P1"), constant_rep(q2),
                    closure_rep(q2, "H2")])
    res = projective_resolution(v)
    assert len(res.vertices) == len(res.terms) > 1
    shared = {}
    for term, xs in zip(res.terms, res.vertices):
        assert len(xs) == len(term.blocks)
        for (_, block), x in zip(term.blocks, xs):
            assert shared.setdefault(x, block) is block
            assert block.support() == q2.poset.up_set(x)


def test_ext_all_reads_stalks_without_hom_solves(monkeypatch):
    calls = []
    original = quiver_rep.hom_space

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(quiver_rep, "hom_space", counted)
    m = SphereModel(4)
    reps = [m.closure_rep(s) for s in m.poset.strata]
    for v in reps:
        res = projective_resolution(v)
        for w in reps:
            ext_all(v, w, 3, res)
    assert calls == []


# ------------------------------------------------------------ minimal covers


def _full_cover(V, projectives):
    """Reference cover: one P_x on every basis vector e_k of every stalk
    V(x), whatever the arrows into x already reach."""
    quiver, ring = V.quiver, V.ring
    pieces, piece_info = [], []
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
        rv, cv = V.rank(v), cover.rank(v)
        if not rv or not cv:
            continue
        entries, col = [], 0
        for (x, k), piece in zip(piece_info, pieces):
            if piece.rank(v):
                vec = V.path_matrix(quiver.paths(x, v)[0])
                entries.extend((i, col, y)
                               for i, y in vec.columns.get(k, {}).items())
                col += 1
        comps[v] = ExactMatrix.from_entries(rv, cv, entries, ring)
    return cover, RepMorphism(cover, V, comps), [x for x, _ in piece_info]


def _full_resolution(v):
    with mock.patch.object(quiver_rep, "_evaluation_cover", _full_cover):
        return projective_resolution(v)


def _check_minimal_cover(v, w):
    """Exact, and Ext against w and against every simple S_x equal to the
    full cover's; over QQ, Q_q has as many summands P_x as Ext^q(V, S_x)
    has Betti number."""
    res, full = projective_resolution(v), _full_resolution(v)
    assert resolution_is_exact(res) and resolution_is_exact(full)
    qmax = full.length() + 1
    assert ext_all(v, w, qmax, res) == ext_all(v, w, qmax, full)
    for x in v.quiver.vertices:
        s = Representation(v.quiver, v.ring, {x: 1}, {})  # the simple S_x
        table = ext_all(v, s, qmax, full)
        assert ext_all(v, s, qmax, res) == table
        if v.ring.is_field:
            counts = [xs.count(x) for xs in res.vertices]
            counts += [0] * (qmax + 1 - len(counts))
            assert counts == [betti for betti, _ in table]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_minimal_cover_matches_full_cover_on_random_reps(ring, seed):
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    _check_minimal_cover(_random_rep(quiver, ring, rng),
                         _random_rep(quiver, ring, rng))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_minimal_cover_matches_full_cover_on_times_two(ring):
    v = _times_two(ring)
    _check_minimal_cover(v, v)
    # over ZZ the pivot 2 at b is no unit, so b keeps its generator
    assert projective_resolution(v).vertices[0] == \
        (["a"] if ring.is_field else ["a", "b"])


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_minimal_cover_matches_full_cover_on_sphere_closure_reps(ring):
    m = SphereModel(4, ring)
    for s in m.poset.strata:
        _check_minimal_cover(m.closure_rep(s), m.constant_rep())


def _smith_reductions_with_transforms(monkeypatch, capsys, argv):
    """The number of `_snf_any(..., transforms=True)` calls of one CLI run."""
    calls = []
    original = exact_linalg._snf_any

    def counted(M, transforms):
        calls.append(transforms)
        return original(M, transforms)

    monkeypatch.setattr(exact_linalg, "_snf_any", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    return calls.count(True)


def test_ext_table_takes_few_smith_reductions_with_transforms(monkeypatch,
                                                              capsys):
    """The covers generate only the top, `_kernel_rep` skips the stalks
    where the cover is bijective or V is 0, and reads arrows in the kernel
    bases by `ColumnLattice`: 90 reductions with transforms on `ext-table
    --n 12 --qmax 4`, one kernel basis each, against 474 with full covers
    and 180 with a Smith solver per kernel basis."""
    assert 0 < _smith_reductions_with_transforms(
        monkeypatch, capsys, ["ext-table", "--n", "12", "--qmax", "4"]) <= 90


def test_n_points_takes_few_smith_reductions_with_transforms(monkeypatch,
                                                             capsys):
    """Hom coordinates and inverses are read by `ColumnLattice` or by sign,
    and cohomology reads every sphere core directly, since it has no
    differential: no reduction with transforms on `formality n-points --n
    30`, against 16 (all of zero matrices) with a Smith form per core
    degree, 35 with a Smith-reduced kernel basis per core degree and 56
    with Smith solves and inverses.  The ext-table guard above shows that
    the counter hooks."""
    assert _smith_reductions_with_transforms(
        monkeypatch, capsys, ["formality", "n-points", "--n", "30"]) == 0


def _calls(monkeypatch, capsys, module, name, argv):
    """The number of calls of module.name during one CLI run."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    return len(calls)


def test_n_points_inverts_only_what_is_not_an_identity(monkeypatch, capsys):
    """`inverse` returns an identity as it is, and every sphere core is
    read with no inverse: one `lattice_solve` on `formality n-points --n
    30` (39 when identities went through it)."""
    assert _calls(monkeypatch, capsys, exact_linalg, "lattice_solve",
                  ["formality", "n-points", "--n", "30"]) <= 1


def test_n_points_builds_no_hom_lattice(monkeypatch, capsys, tmp_path):
    """Every block pair that End J reads is thin with Hom of rank <= 1, so
    `quiver_rep.hom_coordinates` and `hom_table` read it by sign and never
    flatten a Hom basis for the dense read (`_flat`, then `lattice_solve`):
    on `formality n-points --n 30` (242 lattices when every pair had one),
    `one-point` and `trivial`, and on `compute --action end` of
    `bench/gen.py` seed 1, index 0 (24 lattices), over Z and Q.  The unit
    of a stalk of rank 2 takes the dense read, so the counter hooks."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset, reps = str(tmp_path / "poset.json"), str(tmp_path / "reps.json")
    gen.write_instance(1, 0, "full", poset, reps)
    calls = []
    original = quiver_rep._flat
    monkeypatch.setattr(quiver_rep, "_flat",
                        lambda *args: calls.append(args) or original(*args))
    for ring in ("Z", "Q"):
        for argv in (["formality", "n-points", "--n", "30"],
                     ["formality", "one-point"], ["formality", "trivial"],
                     ["compute", "--action", "end", "--poset", poset,
                      "--reps", reps]):
            assert cli.main(argv + ["--ring", ring]) == 0
            capsys.readouterr()
    assert calls == []
    quiver = Quiver(StratPoset([("x", 0)], []))
    quiver_rep.hom_unit(Representation(quiver, ZZ, {"x": 2}, {}))
    assert len(calls) == 2


def _comparable_pairs(quiver):
    return [(a, b) for a in quiver.vertices for b in quiver.vertices
            if quiver.poset.leq(a, b)]


def _check_paths(quiver):
    for a, b in _comparable_pairs(quiver):
        assert quiver.path(a, b) == quiver.paths(a, b)[0]


def test_path_is_the_first_path_on_the_sphere():
    quiver = SphereModel(6).quiver
    _check_paths(quiver)
    a, b = next((a, b) for a, b in _comparable_pairs(quiver)
                if not quiver.poset.leq(b, a))
    with pytest.raises(ValueError, match="no path"):
        quiver.path(b, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_path_is_the_first_path_on_random_quivers(seed):
    _check_paths(_random_quiver(random.Random(seed)))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_path_map_is_the_first_path_matrix_once_per_pair(ring):
    rng = random.Random(7)
    quiver = Quiver(sphere_poset_2())
    v = _random_rep(quiver, ring, rng)
    for a, b in _comparable_pairs(quiver):
        m = v.path_map(a, b)
        assert m == v.path_matrix(quiver.paths(a, b)[0])
        assert v.path_map(a, b) is m


@pytest.mark.parametrize("n", range(2, 9))
def test_hom_rank_matches_hom_space_on_closure_pairs(n):
    m = SphereModel(n)
    reps = [m.closure_rep(s) for s in m.poset.strata]
    for v in reps:
        for w in reps:
            assert hom_rank(v, w) == len(quiver_rep._dense_hom_space(v, w))


# ------------------------------------------------------------ thin Hom


def _entries(basis):
    """Every component entry of a Hom basis, as reprs: equal bytes."""
    return [[(v, repr(m.tolist())) for v, m in g.components.items()]
            for g in basis]


def _count_dense(monkeypatch):
    calls = []
    original = quiver_rep._dense_hom_space

    def counted(v, w):
        calls.append((v, w))
        return original(v, w)

    monkeypatch.setattr(quiver_rep, "_dense_hom_space", counted)
    return calls


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("n", range(2, 13))
def test_thin_route_matches_dense_route_on_sphere_pairs(n, ring, monkeypatch):
    m = SphereModel(n, ring)
    reps = [m.closure_rep(s) for s in m.poset.strata] + [m.constant_rep()]
    dense = [[quiver_rep._dense_hom_space(v, w) for w in reps] for v in reps]
    calls = _count_dense(monkeypatch)
    for v, row in zip(reps, dense):
        assert v.is_thin()
        for w, basis in zip(reps, row):
            assert _entries(hom_space(v, w)) == _entries(basis)
            assert hom_rank(v, w) == len(basis) <= 1
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_thin_route_matches_dense_route_on_random_thin_reps(ring, seed):
    """Rank by union-find at any rank; equal bytes at rank <= 1, and the
    dense basis itself at rank >= 2."""
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    v, w = (_random_line(quiver, ring, rng, thin=True) for _ in range(2))
    assert validate_representation(v) == validate_representation(w) == []
    assert v.is_thin() and w.is_thin()
    dense = quiver_rep._dense_hom_space(v, w)
    assert hom_rank(v, w) == len(dense)
    assert _entries(hom_space(v, w)) == _entries(dense)


def _rank_one_stalks(quiver, ring, arrows):
    return Representation(
        quiver, ring, {v: 1 for arrow in arrows for v in arrow},
        {arrow: ExactMatrix.from_rows([[c]], ring)
         for arrow, c in arrows.items()})


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_thin_route_zero_components(ring):
    """Signs that contradict around the crown x, y < b, c (valid: no two
    parallel paths); and y forced to 0 by the square at y -> u before x
    joins y, with y listed first."""
    crown = Quiver(StratPoset(
        [("x", 0), ("y", 0), ("b", 1), ("c", 1)],
        [("x", "b"), ("y", "b"), ("x", "c"), ("y", "c")]))
    ones = dict.fromkeys(crown.arrows, 1)
    v = _rank_one_stalks(crown, ring, ones)
    w = _rank_one_stalks(crown, ring, {**ones, ("x", "c"): -1})
    chain = Quiver(StratPoset([("y", 1), ("x", 0), ("u", 2)],
                                    [("x", "y"), ("y", "u")]))
    short = _rank_one_stalks(chain, ring, {("x", "y"): 1})
    full = _rank_one_stalks(chain, ring, {("x", "y"): 1, ("y", "u"): 1})
    for a, b, want in [(v, w, 0), (v, v, 1), (w, w, 1), (short, full, 0),
                       (full, short, 1)]:
        assert validate_representation(a) == validate_representation(b) == []
        dense = quiver_rep._dense_hom_space(a, b)
        assert hom_rank(a, b) == len(dense) == want
        assert _entries(hom_space(a, b)) == _entries(dense)


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_thin_hom_of_rank_two_keeps_the_dense_basis(ring, monkeypatch):
    """x and y incomparable: two common components, so Hom(V, V) has rank
    2 and only the rank is read off the union-find."""
    quiver = Quiver(StratPoset([("x", 0), ("y", 0)], []))
    v = Representation(quiver, ring, {"x": 1, "y": 1}, {})
    calls = _count_dense(monkeypatch)
    assert hom_rank(v, v) == 2 and calls == []
    basis = hom_space(v, v)
    assert len(calls) == 1
    assert _entries(basis) == _entries(quiver_rep._dense_hom_space(v, v))


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_non_thin_reps_take_the_dense_route(ring, monkeypatch):
    """A non-unit arrow, and a stalk of rank 2 on the common support."""
    two = _times_two(ring)
    c = closure_rep(two.quiver, "b", ring)
    q2 = Quiver(sphere_poset_2())
    h = closure_rep(q2, "H1", ring)
    wide = direct_sum([h, closure_rep(q2, "E1", ring)])
    assert not two.is_thin() and not wide.is_thin() and c.is_thin()
    calls = _count_dense(monkeypatch)
    for v, w, want in [(two, c, 1), (c, two, 1), (h, wide, 2),
                       (wide, h, 1)]:
        assert hom_rank(v, w) == len(hom_space(v, w)) == want
    assert len(calls) == 4


def test_cokernel_rejects_non_split_embedding(q2):
    ie1 = closure_rep(q2, "E1")
    two = RepMorphism(ie1, ie1, {v: ExactMatrix.identity(1).scale(2)
                                 for v in ie1.support()})
    with pytest.raises(ValueError, match="^cokernel has torsion; the "
                       "embedding was not stalkwise split$"):
        _cokernel_rep(two)


# ------------------------------------------- walks over covers and supports


def _problems_by_enumeration(V):
    """Reference for `validate_representation`: the shape checks, then
    every Hasse path of every comparable pair, each compared with the
    first path of its pair."""
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


def _boolean_lattice(k: int) -> Quiver:
    """B_k: the subsets of {0..k-1} under inclusion, k! paths from the
    bottom to the top."""
    subsets = [frozenset(c) for r in range(k + 1)
               for c in itertools.combinations(range(k), r)]
    name = lambda s: "b" + "".join(str(i) for i in sorted(s))
    covers = [(name(s), name(s | {i})) for s in subsets for i in range(k)
              if i not in s]
    return Quiver(StratPoset([(name(s), len(s)) for s in subsets], covers))


def _with_arrows(V, changed):
    arrows = dict(V.arrow_map)
    arrows.update(changed)
    return Representation(V.quiver, V.ring, V.stalk_rank, arrows)


@pytest.mark.parametrize("k", range(2, 6))
def test_induction_check_matches_enumeration_on_boolean_lattices(k):
    """The constant representation commutes; flipping the signs of a few
    arrows plants non-commuting squares, named exactly as the enumeration
    names them."""
    quiver = _boolean_lattice(k)
    c = constant_rep(quiver)
    assert validate_representation(c) == _problems_by_enumeration(c) == []
    rng = random.Random(k)
    minus = ExactMatrix.identity(1).scale(-1)
    for flips in (1, 1, 2, 3):
        V = _with_arrows(c, {a: minus for a in rng.sample(quiver.arrows,
                                                          flips)})
        want = _problems_by_enumeration(V)
        assert validate_representation(V) == want
        if flips == 1:
            assert want  # one flipped arrow breaks every square it is in


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_induction_check_matches_enumeration_on_random_reps(ring, seed):
    """`_random_rep` commutes; one arrow entry bent by a random amount may
    break some squares, and the problem lists agree either way."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(rng.randint(3, 8))]
    quiver = Quiver(StratPoset([(s, 0) for s in names], [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        if rng.random() < 0.6]))  # dense, so parallel paths are common
    v = _random_rep(quiver, ring, rng)
    assert _problems_by_enumeration(v) == []
    if not v.arrow_map:
        return
    arrow, m = rng.choice(sorted(v.arrow_map.items()))
    bent = ExactMatrix.from_entries(*m.shape, [(
        rng.randrange(m.rows), rng.randrange(m.cols), rng.choice([-2, 1, 3]))],
        ring)
    w = _with_arrows(v, {arrow: m + bent})
    assert validate_representation(w) == _problems_by_enumeration(w)


def test_induction_check_takes_no_path_enumeration_on_b7(monkeypatch):
    """On the valid constant representation of B_7 (5,040 paths bottom to
    top) no Hasse path is multiplied out, and the products stay within one
    per cover into each comparable pair."""
    quiver = _boolean_lattice(7)
    c = constant_rep(quiver)
    counts = {"path_matrix": 0, "products": 0}
    path_matrix, matmul = Representation.path_matrix, ExactMatrix.__matmul__

    def counted_path(self, path):
        counts["path_matrix"] += 1
        return path_matrix(self, path)

    def counted_product(self, other):
        counts["products"] += 1
        return matmul(self, other)

    monkeypatch.setattr(Representation, "path_matrix", counted_path)
    monkeypatch.setattr(ExactMatrix, "__matmul__", counted_product)
    assert validate_representation(c) == []
    pairs = sum(len(quiver.poset.up_set(v)) for v in quiver.vertices)
    assert pairs == 3 ** 7
    assert counts["path_matrix"] <= pairs
    assert counts["products"] <= 7 * pairs


def _closure_by_scan(names, covers):
    """The reflexive-transitive closure of the declared covers by repeated
    triple scans, and the first pair comparable both ways (or None)."""
    idx = {s: i for i, s in enumerate(names)}
    n = len(names)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        leq[idx[a]][idx[b]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if leq[i][j] and leq[j][k] and not leq[i][k]:
                        leq[i][k] = changed = True
    both = next(((i, j) for i in range(n) for j in range(n)
                 if i != j and leq[i][j] and leq[j][i]), None)
    return leq, both


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.booleans())
def test_poset_closure_and_covers_match_the_scans(seed, acyclic):
    """On random declared covers (transitive, repeated and reflexive ones
    included, strata in random order): `leq` equals the closure by triple
    scans, a cycle is named as the scan names it, and the Hasse covers
    equal the O(V^3) scan of `leq`."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(rng.randint(1, 12))]
    order = rng.sample(names, len(names))  # a linear extension
    covers = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
              if rng.random() < 0.3]
    covers += rng.sample(covers, min(2, len(covers)))
    covers += [(a, a) for a in rng.sample(names, min(2, len(names)))]
    if not acyclic and len(names) > 1:
        a, b = rng.sample(names, 2)
        covers.append((b, a) if order.index(a) < order.index(b) else (a, b))
    leq, both = _closure_by_scan(names, covers)
    strata = [(s, 0) for s in names]
    if both is not None:
        i, j = both
        with pytest.raises(ValueError, match=(
                f"^closure order is not antisymmetric: {names[i]} and "
                f"{names[j]} are comparable both ways$")):
            StratPoset(strata, covers)
        return
    poset = StratPoset(strata, covers)
    assert [[poset.leq(a, b) for b in names] for a in names] == leq
    assert poset.hasse_covers() == [
        (a, b) for a in names for b in names
        if a != b and poset.leq(a, b)
        and not any(c not in (a, b) and poset.leq(a, c) and poset.leq(c, b)
                    for c in names)]
    for a in names:
        assert poset.up_set(a) == [b for b in names if poset.leq(a, b)]
        assert poset.down_set(a) == [b for b in names if poset.leq(b, a)]


def _square_problems_by_all_arrows(f):
    """Reference for `RepMorphism.validate` past the shape checks: every
    arrow of the quiver, in order."""
    return [f"square at arrow ({a}, {b}) does not commute"
            for a, b in f.source.quiver.arrows
            if f.component(b) @ f.source.arrow(a, b)
            != f.target.arrow(a, b) @ f.component(a)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_morphism_squares_by_support_match_all_arrows(ring, seed):
    """Random components on a random set of vertices: the squares named
    by `validate`, which visits only arrows at a component, are those of
    the walk over every arrow."""
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    v, w = _random_rep(quiver, ring, rng), _random_rep(quiver, ring, rng)
    common = [x for x in quiver.vertices if v.rank(x) and w.rank(x)]
    comps = {x: ExactMatrix.from_rows(
        [[rng.choice([0, 0, 1, -1, 2]) for _ in range(v.rank(x))]
         for _ in range(w.rank(x))], ring)
        for x in rng.sample(common, rng.randint(0, len(common)))}
    f = RepMorphism(v, w, comps)
    assert f.validate() == _square_problems_by_all_arrows(f)
    for g in hom_space(v, w):
        assert g.validate() == _square_problems_by_all_arrows(g) == []


def _direct_sum_by_all_blocks(reps):
    """Reference for `direct_sum`: stalks and arrows from every (vertex,
    block) and (arrow, block) pair."""
    quiver, ring = reps[0].quiver, reps[0].ring
    stalks = {v: sum(r.rank(v) for r in reps) for v in quiver.vertices}
    arrows = {}
    for a, b in quiver.arrows:
        if not stalks[a] or not stalks[b]:
            continue
        entries, ro, co = [], 0, 0
        for rep in reps:
            entries.extend((ro + i, co + j, x) for j, col in
                           rep.arrow(a, b).columns.items()
                           for i, x in col.items())
            ro, co = ro + rep.rank(b), co + rep.rank(a)
        arrows[(a, b)] = ExactMatrix.from_entries(stalks[b], stalks[a],
                                                  entries, ring)
    return stalks, arrows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_direct_sum_by_support_matches_all_blocks(ring, seed):
    rng = random.Random(seed)
    quiver = _random_quiver(rng)
    reps = [_random_rep(quiver, ring, rng)
            for _ in range(rng.randint(1, 4))]
    total = direct_sum(reps)
    stalks, arrows = _direct_sum_by_all_blocks(reps)
    assert total.stalk_rank == stalks
    assert list(total.arrow_map) == list(arrows)
    assert total.arrow_map == arrows
    assert validate_representation(total) == []
