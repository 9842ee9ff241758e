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
from test_dg import mult_entry


def prv(model, i):
    """The index before i on the circle of model.n points."""
    return (i - 2) % model.n + 1


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
        if k == i or k == prv(model, i):
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
                expect(1, "ep", (i, prv(m, i))): -1}
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
                expect(2, "hp", (1, i)): 1,
                expect(2, "hp", (1, prv(m, i))): -1}
            assert col(1, expect(1, "he", (2, i))) == {
                expect(2, "hp", (2, i)): 1,
                expect(2, "hp", (2, prv(m, i))): -1}
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
    assert mult_entry(H, 2, 2, 0, 0) == {}


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
    assert mult_entry(H, 2, 2, 0, 0) == {}
    assert mult_entry(H, 0, 2, 0, 0) == {0: 1}
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
        E.hom.element(0, [("p", (1,), 0, 1)]),
        E.hom.element(1, [("hp", (1, 1), None, 1)]),
        E.hom.element(1, [("p", (1,), None, 1)]),
        E.hom.element(2, [("hp", (1, 2), None, 1)]),
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
    assert dict(ch.chain.algebras[1].dims) == \
        {0: 2 * n + 3, 1: 5 * n + 1, 2: 2 * n}
    assert ch.ideal.ranks() == {1: n - 1, 2: n - 1}
    assert ch.ideal.input_spanned_ideal
    assert cohomology(ch.ideal.restricted_complex()).is_zero()
    verdict = verify_formality_chain(ch.chain)
    assert verdict.ok, (verdict.arrow_reports, verdict.notes)


def _by_offsets(ch, n):
    """Reference: the ideal generators and H(U/I) representatives at the
    positions of U's basis that the span's order gives, with no element of
    the span dropped."""
    gens = [(1, {i - 1: 1}) for i in range(2, n + 1)]
    gens += [(2, {i - 1: 1, i - 2: -1}) for i in range(2, n + 1)]
    proj = ch.chain.arrows[1][0]
    reps = [ch.chain.algebras[2].unit_element()]
    reps += [proj.apply((0, {2 + n + (i - 1): 1})) for i in range(1, n + 1)]
    reps += [proj.apply((1, {2 * n + (i - 1): 1})) for i in range(1, n + 1)]
    reps += [proj.apply((1, {4 * n + 1 + (i - 1): 1}))
             for i in range(1, n + 1)]
    reps.append(proj.apply((2, {0: 1})))
    return gens, reps


@pytest.mark.parametrize("ring", [ZZ, QQ])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 21])
def test_chain_addresses_u_by_label(monkeypatch, n, ring):
    """The ideal generators and the H(U/I) representatives, which
    `formality_chain_n_points` finds by label in U's basis, are the vectors
    at the offsets of the span's order."""
    from strathom import sphere_models

    seen = {}
    real_ideal = sphere_models.ideal_from_span
    real_span = sphere_models.subalgebra_from_span

    def ideal(U, elements):
        seen["gens"] = list(elements)
        return real_ideal(U, elements)

    def span(A, elements, **kw):
        seen.setdefault("spans", []).append(list(elements))
        return real_span(A, elements, **kw)

    monkeypatch.setattr(sphere_models, "ideal_from_span", ideal)
    monkeypatch.setattr(sphere_models, "subalgebra_from_span", span)
    E = SphereModel(n, ring=ring).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    gens, reps = _by_offsets(ch, n)
    assert seen["gens"] == gens
    assert seen["spans"][1] == reps


def test_chain_survives_a_redundant_spanning_element(monkeypatch):
    """With sum_p^(1) also placed ahead of U^0's p-block, its later copy is
    redundant and dropped from U's basis, so the p-block starts one
    position further on: the chain found by label still verifies, and each
    H(U/I) basis element is the class of the U basis element of its
    label."""
    from strathom import sphere_models

    n = 4
    real = sphere_models._subalgebra_span_n_points

    def with_redundant(E, n):
        elements, labels = real(E, n)
        at, dup = labels.index("p1^(0)"), labels.index("sum_p^(1)")
        elements.insert(at, elements[dup])
        labels.insert(at, labels[dup])
        return elements, labels

    monkeypatch.setattr(sphere_models, "_subalgebra_span_n_points",
                        with_redundant)
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    assert ch.chain.algebras[1].labels[0].index("sum_p^(1)") == 2 + n
    verdict = verify_formality_chain(ch.chain)
    assert verdict.ok, (verdict.arrow_reports, verdict.notes)
    h_incl = ch.chain.arrows[2][0]
    for q, labels in ch.chain.algebras[3].labels.items():
        for k, label in enumerate(labels):
            if label != "1":
                i = ch.chain.algebras[1].labels[q].index(label)
                assert h_incl.apply((q, {k: 1})) == \
                    ch.chain.arrows[1][0].apply((q, {i: 1})), label


def test_quotient_identifies_hp_classes():
    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    quot, proj = ch.chain.algebras[2], ch.chain.arrows[1][0]
    # hp_11, hp_12, hp_13 in degree 2 of U project to the same class
    images = [proj.apply((2, {i: 1}))[1] for i in range(n)]
    assert images[0] == images[1] == images[2]
    assert images[0]
    # quotient ranks drop by the ideal ranks; degree 2 goes 2n -> n+1
    assert dict(quot.dims) == {0: 2 * n + 3, 1: 4 * n + 2, 2: n + 1}
    # projection composed with inclusion-of-complement is the identity on
    # complement coordinates: quotient labels name ambient basis directions
    for q in quot.degrees():
        for k, lab in enumerate(quot.labels[q]):
            i = ch.chain.algebras[1].labels[q].index(lab)
            assert proj.apply((q, {i: 1}))[1] == {k: 1}


def test_h_quot_basis_labels():
    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    h_quot = ch.chain.algebras[3]
    assert h_quot.dims == {0: n + 1, 1: 2 * n, 2: 1}
    assert h_quot.labels[2] == ["hp_11"]


def test_broken_ideal_breaks_the_chain():
    """Wrongly including he_11 in the ideal makes H(I) nonzero and the
    projection fails to be a quasi-isomorphism."""
    from strathom.dg import FormalityChain, ideal_from_span, quotient

    n = 3
    E = SphereModel(n).resolution_n_points().end_algebra()
    ch = formality_chain_n_points(E, n)
    sub = ch.chain.algebras[1]
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
                    assert mult_entry(H, q1, q2, i, j) == {}


# ------------------------------------------------------ identities checked once


def test_each_identity_is_checked_once_per_object(monkeypatch):
    """Validating the n = 4 resolution, building End J and the n-point
    chain and verifying the chain computes d.d = 0 of each complex and
    d.f = f.d of each chain map at most once, and no mapping cone's d.d.
    It reduces each complex at most once, and builds one mapping cone for
    all stalks of the resolution and one for each of the three arrows.

    A product of two stored matrices is one of these identities when the
    pair is (d^(q+1), d^q) of a complex, or (d_Y^q, f^q) or (f^(q+1), d_X^q)
    of a chain map; every product is counted by the identities of its
    operands, which are kept alive so that no id is reused."""
    from collections import Counter

    from strathom import chain_complex as cc, rep_complex
    from strathom.exact_linalg import ExactMatrix

    products, operands, reduced = Counter(), [], Counter()
    complexes, maps, cones = [], [], {cc: set(), rep_complex: set()}

    def recorder(cls, seen):
        real = cls.__init__

        def init(self, *args, **kwargs):
            real(self, *args, **kwargs)
            seen.append(self)
        monkeypatch.setattr(cls, "__init__", init)

    def matmul(a, b, real=ExactMatrix.__matmul__):
        operands.append((a, b))
        products[(id(a), id(b))] += 1
        return real(a, b)

    def counting(module):
        def cone(f, real=module.mapping_cone):
            out = real(f)
            cones[module].add(id(out))
            return out
        return cone

    def reduce_units(C, real=cc._reduce_units):
        reduced[id(C)] += 1
        return real(C)

    recorder(cc.ChainComplex, complexes)
    recorder(cc.ChainMap, maps)
    monkeypatch.setattr(ExactMatrix, "__matmul__", matmul)
    for module in cones:
        monkeypatch.setattr(module, "mapping_cone", counting(module))
    monkeypatch.setattr(cc, "_reduce_units", reduce_units)
    n = 4
    res = SphereModel(n).resolution_n_points()
    assert res.validate().ok
    E = res.end_algebra()
    assert verify_formality_chain(formality_chain_n_points(E, n).chain).ok
    # one cone over all stalks, then one for each of the three arrows
    assert (len(cones[rep_complex]), len(cones[cc])) == (1, 3)
    assert reduced and max(reduced.values()) == 1
    cones = cones[cc] | cones[rep_complex]
    checked = 0
    for C in complexes:
        for q, d in C.differentials.items():
            if q + 1 in C.differentials:
                count = products[(id(C.differentials[q + 1]), id(d))]
                assert count <= (id(C) not in cones), (C.ranks, q)
                checked += count
    for f in maps:
        for q, m in f.components.items():
            pairs = ((f.target.differentials.get(q), m),
                     (m, f.source.differentials.get(q - 1)))
            for a, b in pairs:
                if a is not None and b is not None:
                    count = products[(id(a), id(b))]
                    assert count <= 1, (f.source.ranks, f.target.ranks, q)
                    checked += count
    assert checked
