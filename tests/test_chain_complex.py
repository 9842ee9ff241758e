import random

import pytest

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
from strathom.exact_linalg import QQ, ZZ, ExactMatrix
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
                m.data[0, 1] = s
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
