import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from strathom import chain_complex
from strathom.chain_complex import (
    ChainComplex,
    ChainMap,
    _reduce_units,
    cohomology,
    cone_report,
    is_quasi_iso,
    mapping_cone,
    shift,
    validate_complex,
)
from strathom.exact_linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    PresolvedSolver,
    invariant_factors,
    kernel_basis,
    lattice_solve,
)
from strathom.sphere_models import SphereModel, formality_chain_n_points


def identity_chain_map(C: ChainComplex) -> ChainMap:
    comps = {q: ExactMatrix.identity(C.rank(q), C.ring) for q in C.degrees()}
    return ChainMap(C, C, comps)


def M(rows, ring=ZZ):
    return ExactMatrix.from_rows(rows, ring)


def interval(ring=ZZ):
    # 0 -> R --id--> R -> 0 in degrees 0, 1
    return ChainComplex(ring, {0: 1, 1: 1}, {0: M([[1]], ring)})


def point(degree=0, ring=ZZ):
    return ChainComplex(ring, {degree: 1}, {})


def test_validate_zero_complex():
    assert validate_complex(ChainComplex(ZZ, {}, {})) == []


def test_validate_catches_nonzero_composite():
    c = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    problems = validate_complex(c)
    assert any("d.d != 0" in p for p in problems)


def test_validate_catches_shape_mismatch():
    c = ChainComplex(ZZ, {0: 2, 1: 1}, {0: M([[1]])})
    assert validate_complex(c)


def test_cohomology_times_two():
    # 0 -> Z --2--> Z -> 0: H^0 = 0, H^1 = Z/2
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {0: M([[2]])})
    h = cohomology(c)
    assert h.betti(0) == 0 and h.torsion(0) == []
    assert h.betti(1) == 0 and h.torsion(1) == [2]
    assert not h.is_zero()


def test_cohomology_interval_acyclic():
    h = cohomology(interval())
    assert h.is_zero()


def test_cohomology_representatives_are_cocycles():
    c = ChainComplex(ZZ, {0: 2, 1: 1}, {0: M([[1, -1]])})
    h = cohomology(c)
    assert h.betti(0) == 1
    lift = h.modules[0].lift
    assert (c.d(0) @ lift).is_zero()


def _assert_cone_report_matches_cohomology(c):
    """`cone_report` (invariant factors, sparse unit pivots first) and
    `cohomology` (Smith transforms) give the same Betti numbers and
    torsion in every degree."""
    h = cohomology(c)
    report = cone_report(c)
    assert sorted(report) == [q for q in c.support() if c.rank(q)]
    for q in c.support():
        r = report.get(q, {"betti": 0, "torsion": []})
        assert (r["betti"], r["torsion"]) == (h.betti(q), h.torsion(q))
    # Euler characteristic identity over the rationals
    chi_ranks = sum((-1) ** q * r for q, r in c.ranks.items())
    chi_h = sum((-1) ** q * h.betti(q) for q in c.support())
    assert chi_ranks == chi_h


def test_cone_report_matches_cohomology():
    rng = random.Random(3)
    checked = 0
    for _ in range(25):
        ranks = {q: rng.randint(0, 3) for q in range(-1, 3)}
        diffs = {}
        for q in (-1, 0, 1):
            r, cdim = ranks.get(q + 1, 0), ranks.get(q, 0)
            if r and cdim:
                diffs[q] = M([[rng.randint(-2, 2) for _ in range(cdim)]
                              for _ in range(r)])
        c = ChainComplex(ZZ, ranks, diffs)
        if validate_complex(c):
            continue
        _assert_cone_report_matches_cohomology(c)
        checked += 1
    assert checked


@pytest.mark.parametrize("n,ring", [(n, ZZ) for n in range(2, 7)]
                         + [(n, QQ) for n in range(2, 5)], ids=str)
def test_cone_report_matches_cohomology_on_end_j(n, ring):
    E = SphereModel(n, ring=ring).resolution_n_points().end_algebra()
    _assert_cone_report_matches_cohomology(E.complex())


def test_cone_report_matches_cohomology_on_formality_cones():
    E = SphereModel(4).resolution_n_points().end_algebra()
    arrows = formality_chain_n_points(E, 4).chain.arrows
    assert len(arrows) == 3
    for f, _ in arrows:
        _assert_cone_report_matches_cohomology(mapping_cone(f.chain_map()))


def test_cone_of_identity_is_acyclic():
    f = identity_chain_map(point())
    cone = mapping_cone(f)
    assert cohomology(cone).is_zero()
    assert cone.rank(-1) == 1 and cone.rank(0) == 1


def test_cone_of_zero_map():
    f = ChainMap(point(), point(), {})
    cone = mapping_cone(f)
    h = cohomology(cone)
    assert h.betti(-1) == 1 and h.betti(0) == 1


@pytest.mark.parametrize("check", [mapping_cone, is_quasi_iso])
def test_cone_rejects_a_map_that_does_not_commute(check):
    # R in degree 0 onto the source of the interval: d f = 1, f d = 0
    f = ChainMap(point(), interval(), {0: M([[1]])})
    with pytest.raises(ValueError, match="^invalid chain map: does not "
                       "commute with d at degree 0$"):
        check(f)


@pytest.mark.parametrize("check", [mapping_cone, is_quasi_iso])
def test_cone_rejects_an_end_with_nonzero_d_squared(check):
    bad = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    for f, end in ((identity_chain_map(bad), "source"),
                   (ChainMap(point(), bad, {}), "target")):
        with pytest.raises(ValueError, match=f"^invalid {end} complex: "
                           "d.d != 0 at degree 0$"):
            check(f)


def test_quasi_iso_identity_and_zero():
    assert is_quasi_iso(identity_chain_map(interval())).ok
    assert is_quasi_iso(identity_chain_map(point())).ok
    assert not is_quasi_iso(ChainMap(point(), point(), {})).ok


def test_quasi_iso_detects_torsion():
    # multiplication by 2 on Z in degree 0: rational iso, not integral
    f = ChainMap(point(), point(), {0: M([[2]])})
    assert not is_quasi_iso(f).ok
    fq = ChainMap(point(ring=QQ), point(ring=QQ), {0: M([[2]], QQ)})
    assert is_quasi_iso(fq).ok


def test_quasi_iso_composition_closure():
    rng = random.Random(11)
    for _ in range(20):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        d = M([[rng.randint(-2, 2) for _ in range(n0)] for _ in range(n1)])
        c = ChainComplex(ZZ, {0: n0, 1: n1}, {0: d})
        # unimodular automorphisms are quasi-isomorphisms; compose two
        def shear(n, s):
            m = ExactMatrix.identity(n)
            if n > 1:
                m = m + ExactMatrix.from_entries(n, n, [(0, 1, s)])
            return m
        f_comp = {0: shear(n0, rng.randint(-2, 2)), 1: ExactMatrix.identity(n1)}
        # force commuting: only use identity on both spots unless it commutes
        f = ChainMap(c, c, f_comp)
        if f.validate():
            f = identity_chain_map(c)
        g = identity_chain_map(c)
        assert is_quasi_iso(f).ok and is_quasi_iso(g).ok
        assert is_quasi_iso(g.compose(f)).ok


def test_shift_zero_is_identity():
    c = interval()
    s = shift(c, 0)
    assert s.ranks == c.ranks
    assert s.d(0) == c.d(0)


def test_shift_moves_degrees_with_sign():
    c = interval()
    s = shift(c, 1)
    assert s.ranks == {-1: 1, 0: 1}
    assert s.d(-1) == -c.d(0)
    assert shift(point(), 1).ranks == {-1: 1}


def test_shift_cohomology_degree_shift():
    c = ChainComplex(ZZ, {0: 1, 1: 1}, {0: M([[2]])})
    for k in (-2, -1, 1, 2):
        h = cohomology(shift(c, k))
        assert h.torsion(1 - k) == [2]


def test_cohomology_rejects_invalid():
    # d^1 d^0 != 0: the image of d^0 is not in the kernel of d^1
    c = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    with pytest.raises(ValueError, match="invalid complex"):
        cohomology(c)


def test_cohomology_rejects_bad_image():
    # Z --(1, 1)--> Z^2 --(0 1)--> Z: the image (1, 1) lies outside the
    # kernel, spanned by (1, 0)
    c = ChainComplex(ZZ, {0: 1, 1: 2, 2: 1},
                     {0: M([[1], [1]]), 1: M([[0, 1]])})
    with pytest.raises(ValueError, match="invalid complex"):
        cohomology(c)
    # the same kernel, with the image (0, 1) outside its span
    c = ChainComplex(ZZ, {0: 1, 1: 2, 2: 1},
                     {0: M([[0], [1]]), 1: M([[0, 1]])})
    with pytest.raises(ValueError, match="invalid complex"):
        cohomology(c)


def test_cohomology_z_mod_2():
    # 0 -> Z --2--> Z -> 0, read off the degree-1 module: Z / 2Z
    mod = cohomology(ChainComplex(ZZ, {0: 1, 1: 1},
                                  {0: M([[2]])})).modules[1]
    assert (mod.betti, mod.torsion) == (0, [2])
    assert mod.coordinates([1]) == ([], [1])
    assert mod.coordinates([2]) == ([], [0])


def test_cohomology_free_rank_one():
    # Z in degree 0, no differential
    h = cohomology(point())
    assert (h.betti(0), h.torsion(0)) == (1, [])


def test_cohomology_torsion_depends_on_the_ring():
    # 0 -> Q --2--> Q -> 0: 2 is a unit, so H = 0 (over Z, H^1 = Z/2:
    # test_cohomology_times_two)
    h = cohomology(ChainComplex(QQ, {0: 1, 1: 1}, {0: M([[2]], QQ)}))
    assert (h.betti(1), h.torsion(1)) == (0, []) and h.is_zero()


def test_cohomology_lift_and_coordinates():
    # Z --(0, 3)--> Z^2: H^1 = Z^2 / <(0, 3)> = Z + Z/3
    c = ChainComplex(ZZ, {0: 1, 1: 2}, {0: M([[0], [3]])})
    mod = cohomology(c).modules[1]
    assert (mod.betti, mod.torsion) == (1, [3])
    assert mod.coordinates(mod.lift.col(0)) == ([1], [0])
    assert mod.coordinates([0, 3]) == ([0], [0])
    free, tors = mod.coordinates([0, 1])
    assert free == [0] and tors != [0]
    assert (mod.projection_matrix() @ c.d(0)).is_zero()


def test_cohomology_coordinates_reject_non_cocycle():
    # Z^2 --(2 2)--> Z: (1, 0) is no cocycle
    mod = cohomology(ChainComplex(ZZ, {0: 2, 1: 1},
                                  {0: M([[2, 2]])})).modules[0]
    assert mod.betti == 1
    with pytest.raises(ValueError, match="not a cocycle"):
        mod.coordinates([1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_cohomology_zz_vs_qq(n, b, seed):
    """Z^b --A--> Z^n with A = 3 * random: no torsion over Q, and the same
    Betti numbers over Z and Q when there is none over Z."""
    rng = random.Random(seed)
    rows = [[3 * rng.randint(-2, 2) for _ in range(b)] for _ in range(n)]
    hz, hq = (cohomology(ChainComplex(ring, {0: b, 1: n},
                                      {0: M(rows, ring)} if b else {}))
              for ring in (ZZ, QQ))
    assert hq.torsion(1) == []
    if not hz.torsion(1):
        assert hz.betti(1) == hq.betti(1)


def _unimodular(rng, n):
    """(T, T^-1) as row lists: a few elementary operations with multipliers
    +-1, +-2, then a sign change and a permutation of the rows."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    tinv = [row[:] for row in t]
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # T <- E T with E = I + c e_ij; T^-1 <- T^-1 E^-1
        t[i] = [x + c * y for x, y in zip(t[i], t[j])]
        for row in tinv:
            row[j] -= c * row[i]
    for i in range(n):
        if rng.random() < 0.3:
            t[i] = [-x for x in t[i]]
            for row in tinv:
                row[i] = -row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    # P T and T^-1 P^-1 with P e_i = e_perm[i]: row perm[i] of P T is row
    # i of T, and column perm[i] of T^-1 P^-1 is column i of T^-1
    pt = [None] * n
    tinv_p = [[None] * n for _ in range(n)]
    for i, k in enumerate(perm):
        pt[k] = t[i]
        for row, out in zip(tinv, tinv_p):
            out[k] = row[i]
    return pt, tinv_p


def _random_complex(ring, ndeg, seed):
    """A complex in degrees 0..ndeg-1 with known cohomology: in a split
    basis C^q = A_q (+) H_q (+) B_q, d^q maps A_q onto B_(q+1) by a
    diagonal of +-1, in half the complexes with planted 2, 3, 6, and H_q
    is free cohomology; then each degree changes basis by a random
    unimodular T_q (over Q, in half the complexes, times a diagonal of 1,
    2, 1/2, 3/2), so d^q becomes T_(q+1) d^q T_q^-1.
    Ranks may be 0.  Returns the complex and the Betti numbers."""
    rng = random.Random(seed)
    diagonal = rng.choice(((1, -1), (1, -1, 1, -1, 2, 3, 6)))
    factors = [[rng.choice(diagonal) for _ in range(rng.randint(0, 5))]
               for _ in range(ndeg - 1)] + [[]]
    free = [rng.randint(0, 3) for _ in range(ndeg)]
    ranks = [len(factors[q]) + free[q] + (len(factors[q - 1]) if q else 0)
             for q in range(ndeg)]
    bases = [_unimodular(rng, n) for n in ranks]
    if ring == QQ and rng.random() < 0.5:
        scaled = []
        for (t, tinv), n in zip(bases, ranks):
            s = [rng.choice((1, 2, Fraction(1, 2), Fraction(3, 2)))
                 for _ in range(n)]
            scaled.append(([[x * si for x in row] for row, si in zip(t, s)],
                           [[Fraction(x) / sj for x, sj in zip(row, s)]
                            for row in tinv]))
        bases = scaled
    diffs = {}
    for q in range(ndeg - 1):
        m, n = ranks[q + 1], ranks[q]
        if not (m and n):
            continue
        d = [[0] * n for _ in range(m)]
        for k, f in enumerate(factors[q]):
            d[m - len(factors[q]) + k][k] = f
        t_next, tinv = bases[q + 1][0], bases[q][1]
        d = [[sum(t_next[i][a] * d[a][b] for a in range(m) if d[a][b])
              for b in range(n)] for i in range(m)]
        d = [[sum(row[b] * tinv[b][j] for b in range(n)) for j in range(n)]
             for row in d]
        diffs[q] = M(d, ring)
    c = ChainComplex(ring, dict(enumerate(ranks)), diffs)
    assert validate_complex(c) == []
    return c, {q: b for q, b in enumerate(free)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(1, 4), st.integers(-1, 2),
       st.integers(0, 2 ** 32))
def test_cohomology_through_reduction_matches_direct_route(ring, ndeg, k,
                                                           seed):
    """On random complexes of up to 13 x 13 differentials, mixing +-1
    entries with planted non-units (so that some reduced cores are not
    empty and some have torsion), in 1-4 degrees and shifted by k:
    Betti numbers and torsion equal the invariant-factor route
    `cone_report` and the planted free ranks; lifts are cocycles, the
    projection inverts them and kills boundaries, coordinates do not see
    boundaries, and a non-cocycle is rejected."""
    c, free = _random_complex(ring, ndeg, seed)
    c = shift(c, k)
    rng = random.Random(seed)
    h = cohomology(c)
    report = cone_report(c)
    for q in c.support():
        if not c.rank(q):
            assert q not in h.modules and q not in report
            continue
        d, d_in = c.d(q), c.d(q - 1)
        mod = h.modules[q]
        assert (mod.betti, mod.torsion) == (report[q]["betti"],
                                            report[q]["torsion"])
        assert mod.betti == free[q + k]
        assert (d @ mod.lift).is_zero()
        assert mod.projection_matrix() @ mod.lift == \
            ExactMatrix.identity(mod.betti, ring)
        assert (mod.projection_matrix() @ d_in).is_zero()
        ker = kernel_basis(d)
        z = ker.matvec([ring.element(rng.randint(-3, 3))
                        for _ in range(ker.cols)])
        y = [ring.element(rng.randint(-3, 3)) for _ in range(d_in.cols)]
        x = [a + b for a, b in zip(z, d_in.matvec(y))]
        assert mod.coordinates(x) == mod.coordinates(z)
        coeffs = [ring.element(rng.randint(-3, 3)) for _ in range(mod.betti)]
        free_part, _ = mod.coordinates(mod.lift.matvec(coeffs))
        assert free_part == coeffs
        for j in range(d.cols):
            e = [ring.element(int(i == j)) for i in range(d.cols)]
            if any(d.col(j)):
                with pytest.raises(ValueError, match="not a cocycle"):
                    mod.coordinates(e)


def _block_sum(A, B):
    """A (+) B, the basis of A first in every degree."""
    def block(a, b):
        entries = [(i, j, x) for j, col in a.columns.items()
                   for i, x in col.items()]
        entries += [(a.rows + i, a.cols + j, x) for j, col in b.columns.items()
                    for i, x in col.items()]
        return ExactMatrix.from_entries(a.rows + b.rows, a.cols + b.cols,
                                        entries, A.ring)
    degrees = set(A.degrees()) | set(B.degrees())
    return ChainComplex(A.ring, {q: A.rank(q) + B.rank(q) for q in degrees},
                        {q: block(A.d(q), B.d(q)) for q in degrees})


def _per_differential_report(C):
    """Reference for `cone_report`: the invariant factors of every d^q on
    its own, with no column dropped."""
    factors = {q: invariant_factors(d) for q, d in C.differentials.items()}
    return {q: {"betti": C.rank(q) - len(factors.get(q, ()))
                - len(factors.get(q - 1, ())),
                "torsion": [f for f in factors.get(q - 1, ()) if f != 1]}
            for q in C.degrees()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(1, 4), st.integers(1, 3),
       st.integers(-1, 2), st.integers(0, 2 ** 32))
def test_chained_cone_report_equals_per_differential_factors(
        ring, n1, n2, offset, seed):
    """`cone_report` reads d^q only on the columns that d^(q-1) did not
    take as pivot rows, and reports what the invariant factors of each d^q
    on its own give.  A (+) B[-(n1 + offset)] for two planted complexes
    (`_random_complex`: non-unit cores and torsion over Z, non-integral
    Fractions over Q): offset -1 overlaps a degree, 0 joins the two by a
    stored zero differential, and 1 or 2 leave a gap of zero-rank degrees."""
    A, _ = _random_complex(ring, n1, seed)
    B, _ = _random_complex(ring, n2, seed + 1)
    C = _block_sum(A, shift(B, -(n1 + offset)))
    assert validate_complex(C) == []
    assert cone_report(C) == _per_differential_report(C)


def _random_chain_map(ring, seed):
    """f: X -> X (+) W, k times the identity onto X plus d h + h d for a
    random h of small integers, so f is homotopic to (k, 0).  X is a
    `_random_complex` (planted non-units: torsion and cores with a nonzero
    differential); W is empty, the cone of an identity (contractible) or
    another `_random_complex`.  f is a quasi-isomorphism iff k acts
    invertibly on H(X) and W is acyclic."""
    rng = random.Random(seed)
    X, _ = _random_complex(ring, rng.randint(1, 3), seed)
    W = rng.choice((
        lambda: ChainComplex(ring, {}, {}),
        lambda: mapping_cone(identity_chain_map(
            _random_complex(ring, 2, seed + 1)[0])),
        lambda: _random_complex(ring, rng.randint(1, 3), seed + 1)[0]))()
    Y = _block_sum(X, W)
    k = rng.choice((1, -1, 2, 3, 6))
    h = {q: ExactMatrix.from_entries(Y.rank(q - 1), X.rank(q), (
        (i, j, rng.choice((0, 0, 1, -1, 2, 3)))
        for i in range(Y.rank(q - 1)) for j in range(X.rank(q))), ring)
        for q in range(min(X.support(), default=0),
                       max(X.support(), default=0) + 2)}
    comps = {q: ExactMatrix.from_entries(Y.rank(q), X.rank(q), (
        (i, i, k) for i in range(X.rank(q))), ring)
        + Y.d(q - 1) @ h[q] + h[q + 1] @ X.d(q) for q in X.degrees()}
    f = ChainMap(X, Y, comps)
    assert f.validate() == []
    return f


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_quasi_iso_on_reduced_cores_matches_the_direct_cone(ring):
    """On seeded random chain maps, `is_quasi_iso` (the cone of F_Y f G_X
    between the reduced cores) gives the verdict of the cone of f itself,
    and the nonzero entries of its `cone_profile` are those of the direct
    cone's report; the maps cover non-unit entries, cores with a nonzero
    differential, torsion cones (over Z) and maps that are not
    quasi-isomorphisms."""
    seen = set()
    for seed in range(80):
        f = _random_chain_map(ring, seed)
        direct = {q: r for q, r in cone_report(mapping_cone(f)).items()
                  if r["betti"] or r["torsion"]}
        report = is_quasi_iso(f)
        assert report.ok == (not direct), seed
        assert {q: r for q, r in report.cone_profile.items()
                if r["betti"] or r["torsion"]} == direct, seed
        seen.add("ok" if report.ok else "not ok")
        if any(r["torsion"] for r in direct.values()):
            seen.add("torsion")
        if any(abs(x) > 1 for m in f.components.values()
               for col in m.columns.values() for x in col.values()):
            seen.add("non-unit entries")
        if any(not d.is_zero() for C in (f.source, f.target)
               for d in cohomology(C).reduced.differentials.values()):
            seen.add("core with a differential")
    assert seen == {"ok", "not ok", "non-unit entries",
                    "core with a differential"} | (
        set() if ring.is_field else {"torsion"})


def _plus_times(c, p, t):
    """c (+) (R --t--> R in degrees p and p + 1), the new basis vectors
    last in both degrees."""
    ranks = dict(c.ranks)
    for q in (p, p + 1):
        ranks[q] = c.rank(q) + 1
    diffs = {}
    for q in set(c.differentials) | {p}:
        entries = [(i, j, x) for j, col in c.d(q).columns.items()
                   for i, x in col.items()]
        if q == p:
            entries.append((c.rank(p + 1), c.rank(p), t))
        diffs[q] = ExactMatrix.from_entries(ranks.get(q + 1, 0),
                                            ranks.get(q, 0), entries, c.ring)
    return ChainComplex(c.ring, ranks, diffs)


def _smith_route(d_out, d_in, G, F):
    """A `CohomologyModule` by the full Smith route, identities included:
    Smith forms of d'^q and of R = K+ d'^(q-1) even when they are zero, and
    every inverse through `lattice_solve`.  Returns (betti, the nonzero
    diagonal of R, lift, U K+ F, its free rows)."""
    def inv(m):
        return lattice_solve(m, ExactMatrix.identity(m.rows, m.ring))

    ker = PresolvedSolver(d_out)
    n, s = d_out.cols, ker.rank
    K = ker.V.take_cols(range(s, n))
    Kplus = inv(ker.V).take_rows(range(s, n))
    rel = PresolvedSolver(Kplus @ d_in)
    r = rel.rank
    P = rel.U @ Kplus @ F
    return (n - s - r, rel.diag[:r],
            G @ (K @ inv(rel.U).take_cols(range(r, n - s))), P,
            P.take_rows(range(r, P.rows)))


def test_torsion_next_to_a_zero_core():
    """Z --(2, 0)--> Z^2 --(0 1)--> Z: the unit pivot leaves the core
    Z --2--> Z, so H^1 = Z/2 sits on a zero d'^1, and d'^0 = (2) is the
    only matrix that reaches a Smith form."""
    c = ChainComplex(ZZ, {0: 1, 1: 2, 2: 1},
                     {0: M([[2], [0]]), 1: M([[0, 1]])})
    reduced, _, _ = _reduce_units(c)
    assert reduced.d(0) == M([[2]]) and not reduced.d(1).columns
    solved = []
    with mock.patch.object(chain_complex, "PresolvedSolver",
                           lambda m: solved.append(m) or PresolvedSolver(m)):
        h = cohomology(c)
    assert solved == [M([[2]]), M([[2]])]  # d'^0, and R in degree 1
    assert [(h.betti(q), h.torsion(q)) for q in range(3)] == \
        [(0, []), (0, [2]), (0, [])]
    assert h.modules[1].coordinates([1, 0]) == ([], [1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ZZ, QQ]),
       st.dictionaries(st.integers(-2, 3), st.integers(0, 4), max_size=5),
       st.booleans())
def test_zero_differential_cohomology_has_identity_lift_and_projection(
        ring, ranks, stored):
    """A complex with zero differential, stored as zero matrices or not
    at all, takes no pivot and no Smith form: every degree is free of its
    full rank, and its lift and projection are identities.
    `verify_formality_chain` reads the terminal algebra of a chain as its
    own cohomology on this ground."""
    diffs = {q: ExactMatrix.zeros(ranks.get(q + 1, 0), r, ring)
             for q, r in ranks.items()} if stored else {}
    c = ChainComplex(ring, ranks, diffs)
    calls = []
    with mock.patch.object(chain_complex, "PresolvedSolver",
                           lambda m: calls.append(m)), \
            mock.patch.object(chain_complex, "inverse",
                              lambda m: calls.append(m)):
        h = cohomology(c)
    assert calls == []
    assert sorted(h.modules) == c.degrees()
    for q, mod in h.modules.items():
        one = ExactMatrix.identity(c.rank(q), ring)
        assert (mod.betti, mod.torsion) == (c.rank(q), [])
        assert mod.lift == one and mod.projection_matrix() == one


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(1, 4), st.integers(-1, 3),
       st.integers(0, 2 ** 32))
@example(ZZ, 3, 0, 1)
@example(QQ, 2, 1, 2)
def test_zero_cores_read_directly_match_the_smith_route(ring, ndeg, p, seed):
    """Complexes of `_random_complex` (zero cores wherever its planted
    factors are +-1, nonzero ones at 2, 3 and 6) plus R --2--> R in degrees
    p and p + 1, so that a nonzero core, with torsion over Z, sits next to
    zero ones: only matrices with an entry reach a Smith form, and Betti
    numbers, torsion, lifts, projections and coordinates equal the full
    Smith route on the same reduction."""
    c = _plus_times(_random_complex(ring, ndeg, seed)[0], p, 2)
    reduced, G, F = _reduce_units(c)
    assert reduced.d(p).columns  # the 2 stays in the core
    solved = []
    with mock.patch.object(chain_complex, "PresolvedSolver",
                           lambda m: solved.append(m) or PresolvedSolver(m)):
        h = cohomology(c)
    assert all(m.columns for m in solved)
    rng = random.Random(seed)
    for q in c.degrees():
        mod = h.modules[q]
        betti, diag, lift, P, proj = _smith_route(
            reduced.d(q), reduced.d(q - 1), G[q], F[q])
        assert (mod.betti, mod.torsion) == (betti,
                                            [x for x in diag if x != 1])
        assert mod.lift == lift and mod.projection_matrix() == proj
        ker, d_in = kernel_basis(c.d(q)), c.d(q - 1)
        for _ in range(3):
            x = ker.matvec([ring.element(rng.randint(-3, 3))
                            for _ in range(ker.cols)])
            b = d_in.matvec([ring.element(rng.randint(-3, 3))
                             for _ in range(d_in.cols)])
            x = [u + v for u, v in zip(x, b)]
            y, r = P.matvec(x), len(diag)
            assert mod.coordinates(x) == (
                y[r:], [y[i] % t for i, t in enumerate(diag) if t != 1])
