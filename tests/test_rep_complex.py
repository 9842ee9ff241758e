import pytest

from strathom.chain_complex import cohomology, validate_complex
from strathom.dg import DgMorphism, is_quasi_iso_dg, validate_dg_algebra
from strathom.exact_linalg import ZZ, ExactMatrix
from strathom.quiver_rep import hom_space
from strathom.rep_complex import (
    ComplexOfReps,
    HomComplex,
    end_dg_algebra,
    shift_complex_of_reps,
    validate_complex_of_reps,
    validate_resolution,
)
from strathom.sphere_models import SphereModel


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
            mat = ExactMatrix.zeros(E2.dim(m), E_trivial.dim(m), ZZ)
            s = 1 if (k * m) % 2 == 0 else -1
            for i in range(E_trivial.dim(m)):
                mat.data[match[(m, i)], i] = s
            comps[m] = mat
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
