from fractions import Fraction

import pytest

from strathom.chain_complex import cohomology, cone_report
from strathom.dg import (
    is_quasi_iso_dg,
    subalgebra_from_span,
    validate_dg_algebra,
    verify_formality_chain,
)
from strathom.exact_linalg import QQ, ZZ
from strathom.quiver_rep import ext, hom_space, projective_resolution
from strathom.sphere_models import (
    SphereModel,
    de_rham_model,
    formality_chain_n_points,
    formality_witness_one_point,
    formality_witness_trivial,
)


def expected_hom_rank(model, s, t):
    """Hom rank oracle: 1 exactly when the target closure nests in the
    source closure (same stratum; hemisphere to anything below it; an arc
    to its two endpoint points), else 0."""
    n = model.n
    if s == t:
        return 1
    if s.startswith("H") and (t.startswith("E") or t.startswith("P")):
        return 1
    if s.startswith("E") and t.startswith("P"):
        i, k = int(s[1:]), int(t[1:])
        if k == i or k == model.prv(i):
            return 1
    return 0


# ------------------------------------------------------------ construction


def test_build_rejects_single_point():
    with pytest.raises(ValueError):
        SphereModel(1)


def test_every_end_algebra_fully_validates():
    m = SphereModel(2)
    for res in (m.resolution_one_point(), m.resolution_n_points()):
        assert validate_dg_algebra(res.end_algebra()) == []


@pytest.mark.parametrize("n,vertices,arrows", [(2, 6, 8), (3, 8, 12),
                                               (5, 12, 20)])
def test_quiver_counts(n, vertices, arrows):
    m = SphereModel(n)
    assert len(m.quiver.vertices) == vertices
    assert len(m.quiver.arrows) == 4 * n == arrows


def test_closure_rep_supports():
    m = SphereModel(2)
    assert sorted(m.closure_rep("E1").support()) == ["E1", "P1", "P2"]
    assert m.closure_rep("P2").support() == ["P2"]
    assert sorted(m.closure_rep("H1").support()) == \
        ["E1", "E2", "H1", "P1", "P2"]


def test_arc_endpoints_follow_index_convention():
    m = SphereModel(4)
    # E_i is closed by P_(i-1) and P_i
    assert sorted(m.closure_rep("E3").support()) == ["E3", "P2", "P3"]
    assert sorted(m.closure_rep("E1").support()) == ["E1", "P1", "P4"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hom_rank_table_matches_published_list(n):
    m = SphereModel(n)
    table = m.hom_rank_table()
    for (s, t), r in table.items():
        assert r == expected_hom_rank(m, s, t), (s, t)


# ------------------------------------------------------------ resolutions


def test_all_three_resolutions_are_exact():
    m = SphereModel(2)
    for res in (m.resolution_trivial(), m.resolution_one_point(),
                m.resolution_n_points()):
        assert res.validate().ok
    for n in (3, 4, 7):
        assert SphereModel(n).resolution_n_points().validate().ok


def test_resolution_constructors_enforce_n():
    m = SphereModel(3)
    with pytest.raises(ValueError):
        m.resolution_trivial()
    with pytest.raises(ValueError):
        m.resolution_one_point()


def test_n_point_end_ranks_formula():
    for n in (2, 3, 6):
        E = SphereModel(n).resolution_n_points().end_algebra()
        assert {q: E.dim(q) for q in E.degrees()} == \
            {-1: n, 0: 5 * n + 2, 1: 7 * n, 2: 2 * n}


def test_n_point_differential_table_matches_formulas():
    """Every labeled differential row of End(J) for the n-point model."""
    for n in (2, 3, 5, 8):
        m = SphereModel(n)
        E = m.resolution_n_points().end_algebra()
        hom = E.hom
        prv = m.prv

        def expect(mdeg, kind, idx, p=None):
            return hom.find(mdeg, kind, idx, p)

        d = {q: E.complex().d(q) for q in (-1, 0, 1)}

        def col(mdeg, j):
            mat = d[mdeg]
            return {i: mat[i, j] for i in range(mat.rows) if mat[i, j] != 0}

        for i in range(1, n + 1):
            # degree -1: p_i -> e_ii - e_(i+1)i
            j = expect(-1, "p", (i,))
            assert col(-1, j) == {
                expect(0, "ep", (i, i), 0): 1,
                expect(0, "ep", (m.nxt(i), i), 0): -1}
        # degree 0: h1 -> sum he_1i, h2 -> -sum he_2i
        assert col(0, expect(0, "h", (1,))) == {
            expect(1, "he", (1, i)): 1 for i in range(1, n + 1)}
        assert col(0, expect(0, "h", (2,))) == {
            expect(1, "he", (2, i)): -1 for i in range(1, n + 1)}
        for i in range(1, n + 1):
            assert col(0, expect(0, "e", (i,))) == {
                expect(1, "he", (2, i)): 1,
                expect(1, "he", (1, i)): -1,
                expect(1, "ep", (i, i)): 1,
                expect(1, "ep", (i, prv(i))): -1}
            assert col(0, expect(0, "p", (i,), 0)) == {}
            assert col(0, expect(0, "p", (i,), 1)) == {
                expect(1, "ep", (m.nxt(i), i)): 1,
                expect(1, "ep", (i, i)): -1}
            assert col(0, expect(0, "ep", (i, i), 0)) == {
                expect(1, "hp", (2, i)): 1, expect(1, "hp", (1, i)): -1}
            assert col(0, expect(0, "ep", (m.nxt(i), i), 0)) == {
                expect(1, "hp", (2, i)): 1, expect(1, "hp", (1, i)): -1}
        # degree 1
        for i in range(1, n + 1):
            assert col(1, expect(1, "he", (1, i))) == {
                expect(2, "hp", (1, i)): 1, expect(2, "hp", (1, prv(i))): -1}
            assert col(1, expect(1, "he", (2, i))) == {
                expect(2, "hp", (2, i)): 1, expect(2, "hp", (2, prv(i))): -1}
            assert col(1, expect(1, "hp", (1, i))) == {}
            assert col(1, expect(1, "hp", (2, i))) == {}
            assert col(1, expect(1, "p", (i,))) == {}
            assert col(1, expect(1, "ep", (i, i))) == {
                expect(2, "hp", (1, i)): 1, expect(2, "hp", (2, i)): -1}
            assert col(1, expect(1, "ep", (m.nxt(i), i))) == {
                expect(2, "hp", (1, i)): 1, expect(2, "hp", (2, i)): -1}


# ------------------------------------------------------------ witnesses


def test_witness_trivial():
    E = SphereModel(2).resolution_trivial().end_algebra()
    w = formality_witness_trivial(E)
    assert w.validate() == []
    assert is_quasi_iso_dg(w).ok
    # the witness source is the cohomology R[t]/t^2: unit and a square-zero
    # degree-2 class
    H = w.source
    assert H.dims == {0: 1, 2: 1}
    assert H.mult_entry(2, 2, 0, 0) == {}


def test_subquotient_coordinates_in_degree_two():
    """hp_11 + d(he_11) reduces to coordinate 1 on the class of hp_11."""
    E = SphereModel(2).resolution_trivial().end_algebra()
    h = cohomology(E.complex())
    mod = h.modules[2]
    hp11 = E.hom.find(2, "hp", (1, 1))
    he11 = E.hom.find(1, "he", (1, 1))
    d1 = E.complex().d(1)
    vec = [d1[i, he11] for i in range(d1.rows)]
    vec[hp11] += 1
    # express the expected generator class in the computed basis, then check
    # the perturbed cocycle has the same coordinates
    base = [0] * E.dim(2)
    base[hp11] = 1
    want, _ = mod.coordinates(base)
    free, tors = mod.coordinates(vec)
    assert free == want and all(t == 0 for t in tors)
    assert [abs(c) for c in want] == [1]


def test_cohomology_algebra_of_trivial_end():
    from strathom.dg import cohomology_algebra

    E = SphereModel(2).resolution_trivial().end_algebra()
    H, section = cohomology_algebra(E)
    assert H.dims == {0: 1, 2: 1}
    assert H.mult_entry(2, 2, 0, 0) == {}
    assert H.mult_entry(0, 2, 0, 0) == {0: 1}
    # section lifts are cocycles
    for q, lift in section.items():
        assert (E.complex().d(q) @ lift).is_zero()


def test_witness_one_point():
    E = SphereModel(2).resolution_one_point().end_algebra()
    w = formality_witness_one_point(E)
    assert w.validate() == []
    assert is_quasi_iso_dg(w).ok
    assert w.source.dims == {0: 2, 1: 2, 2: 1}


def test_one_point_kernel_image_ranks():
    from strathom.exact_linalg import rank, kernel_basis

    E = SphereModel(2).resolution_one_point().end_algebra()
    cc = E.complex()
    assert kernel_basis(cc.d(-1)).cols == 0
    assert rank(cc.d(-1)) == 1
    assert kernel_basis(cc.d(0)).cols == 3
    assert rank(cc.d(0)) == 6
    assert kernel_basis(cc.d(1)).cols == 8
    assert rank(cc.d(1)) == 3
    assert kernel_basis(cc.d(2)).cols == 4


def test_one_point_perturbed_representative_system():
    """Replacing hp_11 by hp_12 in degree 2 keeps the classes (they differ
    by a boundary) so the span is still a cohomology basis, but the system
    stops being closed under multiplication."""
    E = SphereModel(2).resolution_one_point().end_algebra()
    elements = [
        E.unit_element(),
        E.element(0, [("p", (1,), 0, 1)]),
        E.element(1, [("hp", (1, 1), None, 1)]),
        E.element(1, [("p", (1,), None, 1)]),
        E.element(2, [("hp", (1, 2), None, 1)]),
    ]
    from strathom.chain_complex import ChainComplex, ChainMap, is_quasi_iso
    from strathom.exact_linalg import ExactMatrix

    # chain-level inclusion of the span is still a quasi-isomorphism
    dims = {0: 2, 1: 2, 2: 1}
    comps = {}
    at = {0: [elements[0], elements[1]], 1: [elements[2], elements[3]],
          2: [elements[4]]}
    for q, els in at.items():
        comps[q] = ExactMatrix.from_entries(
            E.dim(q), len(els), [(i, j, c) for j, (_, coeffs) in enumerate(els)
                                 for i, c in coeffs.items()], ZZ)
    span = ChainComplex(ZZ, dims, {})
    incl = ChainMap(span, E.complex(), comps)
    assert incl.validate() == []
    assert is_quasi_iso(incl).ok
    # but multiplicativity of the system fails: p1 . hp_11 = hp_11 in
    # degree 2, which is not a multiple of hp_12
    with pytest.raises(ValueError, match="multiplication"):
        subalgebra_from_span(E, elements)


# ------------------------------------------------------------ n-point chain


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_formality_chain_small_n(n):
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    assert dict(ch.sub.dims) == {0: 2 * n + 3, 1: 5 * n + 1, 2: 2 * n}
    assert ch.ideal.ranks() == {1: n - 1, 2: n - 1}
    assert ch.ideal.input_spanned_ideal
    assert cohomology(ch.ideal.restricted_complex()).is_zero()
    verdict = verify_formality_chain(ch.chain)
    assert verdict.ok, (verdict.arrow_reports, verdict.notes)


def test_quotient_identifies_hp_classes():
    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    proj = ch.projection
    # hp_11, hp_12, hp_13 in degree 2 of U project to the same class
    images = [proj.apply((2, {i: 1}))[1] for i in range(n)]
    assert images[0] == images[1] == images[2]
    assert images[0]
    # quotient ranks drop by the ideal ranks; degree 2 goes 2n -> n+1
    assert dict(ch.quot.dims) == {0: 2 * n + 3, 1: 4 * n + 2, 2: n + 1}
    # projection composed with inclusion-of-complement is the identity on
    # complement coordinates: quotient labels name ambient basis directions
    for q in ch.quot.degrees():
        for k, lab in enumerate(ch.quot.labels[q]):
            i = ch.sub.labels[q].index(lab)
            assert proj.apply((q, {i: 1}))[1] == {k: 1}


def test_h_quot_basis_labels():
    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    assert ch.h_quot.dims == {0: n + 1, 1: 2 * n, 2: 1}
    assert ch.h_quot.labels[2] == ["hp_11"]


def test_broken_ideal_breaks_the_chain():
    """Wrongly including he_11 in the ideal makes H(I) nonzero and the
    projection fails to be a quasi-isomorphism."""
    from strathom.dg import FormalityChain, ideal_from_span, quotient

    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    sub = ch.sub
    gens = [(1, {i: 1}) for i in range(n)]          # he_11 too
    gens += [(2, {i - 1: 1, i - 2: -1}) for i in range(2, n + 1)]
    bad = ideal_from_span(sub, gens)
    assert not cohomology(bad.restricted_complex()).is_zero()
    q, proj = quotient(sub, bad)
    assert not is_quasi_iso_dg(proj).ok


# ------------------------------------------------------------ ext vanishing


@pytest.mark.parametrize("n", [2, 3])
def test_closure_reps_have_no_higher_ext(n):
    m = SphereModel(n)
    reps = {s: m.closure_rep(s) for s in m.poset.strata}
    for s in m.poset.strata:
        res = projective_resolution(reps[s])
        for t in m.poset.strata:
            assert ext(reps[s], reps[t], 0, resolution=res)[0] == \
                expected_hom_rank(m, s, t)
            for q in (1, 2, 3):
                assert ext(reps[s], reps[t], q, resolution=res) == (0, [])


# ------------------------------------------------------------ rational runs


def test_rational_model_agrees_on_betti():
    mz = SphereModel(2)
    mq = SphereModel(2, ring=QQ)
    for maker in ("resolution_trivial", "resolution_one_point",
                  "resolution_n_points"):
        Ez = getattr(mz, maker)().end_algebra()
        Eq = getattr(mq, maker)().end_algebra()
        rz = cone_report(Ez.complex())
        rq = cone_report(Eq.complex())
        assert {q: r["betti"] for q, r in rz.items()} == \
            {q: r["betti"] for q, r in rq.items()}
        assert all(not r["torsion"] for r in rz.values())


# ------------------------------------------------------------ de Rham model


def test_de_rham_dimensions_and_validation():
    for n in range(2, 11):
        dr = de_rham_model(n)
        assert dr.algebra.total_dim() == 9
        assert validate_dg_algebra(dr.algebra) == []
        assert dr.h_algebra.total_dim() == 5
        assert dr.h_entry_dims() == {(1, 1): 2, (1, 2): 1,
                                     (2, 1): 1, (2, 2): 1}


def test_de_rham_rejects_low_dimension():
    with pytest.raises(ValueError):
        de_rham_model(1)


def test_de_rham_tau_squared_vanishes():
    dr = de_rham_model(2)
    A = dr.algebra
    idx = {lab: (q, i) for q, labs in A.labels.items()
           for i, lab in enumerate(labs)}
    taus = ["tau_C", "tau_D"]
    for a in taus:
        for b in taus:
            qa, ia = idx[a]
            qb, ib = idx[b]
            prod = A.multiply(A.basis_element(qa, ia),
                              A.basis_element(qb, ib))
            assert prod[1] == {}


def test_de_rham_restriction_rule():
    dr = de_rham_model(3)
    A = dr.algebra
    idx = {lab: (q, i) for q, labs in A.labels.items()
           for i, lab in enumerate(labs)}

    def mul(a, b):
        qa, ia = idx[a]
        qb, ib = idx[b]
        return A.multiply(A.basis_element(qa, ia), A.basis_element(qb, ib))

    q, coeffs = mul("1_C", "omega")
    assert coeffs == {idx["omegaD_C"][1]: Fraction(1)}
    # higher-degree products vanish
    assert mul("omega", "omega")[1] == {}
    assert mul("omegaD_D", "tau_C")[1] == {}


def test_de_rham_projection_is_quasi_iso():
    for n in (2, 5):
        dr = de_rham_model(n)
        assert dr.projection.validate() == []
        assert is_quasi_iso_dg(dr.projection).ok
        assert dr.h_algebra.has_zero_differential()


def test_de_rham_positive_products_vanish_in_cohomology():
    dr = de_rham_model(4)
    H = dr.h_algebra
    for q1 in H.degrees():
        for q2 in H.degrees():
            if q1 <= 0 or q2 <= 0:
                continue
            for i in range(H.dim(q1)):
                for j in range(H.dim(q2)):
                    assert H.mult_entry(q1, q2, i, j) == {}
