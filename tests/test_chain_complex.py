import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strathom.chain_complex import (
    ChainComplex,
    ChainMap,
    cohomology,
    cone_report,
    identity_chain_map,
    is_quasi_iso,
    mapping_cone,
    shift,
    validate_complex,
)
from strathom.exact_linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    kernel_basis,
    subquotient,
)
from strathom.sphere_models import SphereModel, formality_chain_n_points


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
    c = ChainComplex(ZZ, {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])})
    with pytest.raises(ValueError):
        cohomology(c)


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
                           [[x / sj for x, sj in zip(row, s)]
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
    Betti numbers and torsion equal the direct route
    subquotient(kernel_basis(d^q), d^(q-1)) on C itself and `cone_report`;
    lifts are cocycles, the projection inverts them, coordinates do not
    see boundaries, and a non-cocycle is rejected."""
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
        direct = subquotient(kernel_basis(d), d_in)
        mod = h.modules[q]
        assert (mod.betti, mod.torsion) == (direct.betti, direct.torsion)
        assert (mod.betti, mod.torsion) == (report[q]["betti"],
                                            report[q]["torsion"])
        assert mod.betti == free[q + k]
        assert (d @ mod.lift).is_zero()
        assert mod.projection_matrix() @ mod.lift == \
            ExactMatrix.identity(mod.betti, ring)
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
