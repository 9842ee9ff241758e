import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strathom import dg
from strathom.dg import (
    DgAlgebra,
    DgMorphism,
    FormalityChain,
    algebra_from_products,
    cohomology_algebra,
    ideal_from_span,
    is_quasi_iso_dg,
    quotient,
    subalgebra_from_span,
    validate_dg_algebra,
    verify_formality_chain,
)
from strathom.exact_linalg import QQ, ZZ, ExactMatrix, _vec_axpy


def mult_entry(A, q1: int, q2: int, i: int, j: int) -> dict:
    """The structure constant e_i * e_j of degrees (q1, q2), {} if none."""
    return (A.mult.get((q1, q2)) or {}).get((i, j), {})


def dual_numbers_deg2(ring=ZZ):
    """R[t]/t^2 with t in degree 2 and zero differential."""
    return algebra_from_products(
        ring,
        basis=[(0, "1"), (2, "t")],
        unit_terms={"1": 1},
        differentials={},
        products={("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
                  ("t", "1"): {"t": 1}},
    )


def _identity(A):
    comps = {q: ExactMatrix.identity(A.dim(q), A.ring) for q in A.degrees()}
    return DgMorphism(A, A, comps, name="id")


def acyclic_interval(ring=ZZ):
    """Unit in degree 0, x in degree 0 is absent; d(y) = z pattern:
    basis 1 (deg 0), y (deg 0), z (deg 1) with d(y) = z, y*y = y."""
    return algebra_from_products(
        ring,
        basis=[(0, "1"), (0, "y"), (1, "z")],
        unit_terms={"1": 1},
        differentials={"y": {"z": 1}},
        products={
            ("1", "1"): {"1": 1}, ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
            ("1", "z"): {"z": 1}, ("z", "1"): {"z": 1},
            ("y", "y"): {"y": 1}, ("y", "z"): {"z": 1},
        },
    )


def test_dual_numbers_validate():
    assert validate_dg_algebra(dual_numbers_deg2()) == []


def test_validate_names_broken_associativity():
    a = dual_numbers_deg2()
    # perturb: t*t? no; break unit law instead by corrupting a constant
    a.mult[(0, 2)][(0, 0)] = {0: 2}
    problems = validate_dg_algebra(a)
    assert problems
    assert any("1*b != b" in p or "associativity" in p for p in problems)


def test_validate_catches_broken_leibniz():
    a = algebra_from_products(
        ZZ,
        basis=[(0, "1"), (0, "y"), (1, "z")],
        unit_terms={"1": 1},
        differentials={"y": {"z": 1}},
        products={
            ("1", "1"): {"1": 1}, ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
            ("1", "z"): {"z": 1}, ("z", "1"): {"z": 1},
            ("y", "y"): {"y": 1},  # y*z omitted: Leibniz on (y, y) fails
        },
    )
    problems = validate_dg_algebra(a)
    assert any("Leibniz" in p for p in problems)


def test_element_arithmetic():
    a = dual_numbers_deg2()
    one = a.unit_element()
    t = a.basis_element(2, 0)
    assert a.multiply(one, t) == t
    assert a.multiply(t, t)[1] == {}
    assert a.d_element(t)[1] == {}


def test_quotient_rejects_torsion():
    a = dual_numbers_deg2()
    ideal = ideal_from_span(a, [(2, {0: 2})])
    with pytest.raises(ValueError,
                       match="^quotient has torsion at degree 2: pivot 2$"):
        quotient(a, ideal)


def test_quotient_rejects_killing_the_unit():
    a = dual_numbers_deg2()
    ideal = ideal_from_span(a, [a.unit_element()])
    with pytest.raises(ValueError, match="^quotient kills the unit$"):
        quotient(a, ideal)


# ------------------------------------------------------------ cohomology


def test_cohomology_algebra_zero_differential_is_identity():
    a = dual_numbers_deg2()
    H, section = cohomology_algebra(a)
    assert H.dims == {0: 1, 2: 1}
    assert mult_entry(H, 0, 2, 0, 0) == {0: 1}
    assert mult_entry(H, 2, 2, 0, 0) == {}
    for q, lift in section.items():
        assert lift == ExactMatrix.identity(a.dim(q), a.ring)


def test_cohomology_algebra_of_acyclic_part():
    a = acyclic_interval()
    H, _ = cohomology_algebra(a)
    # y dies (d(y) = z), z dies (a boundary): only the unit class remains
    assert H.dims == {0: 1}
    assert mult_entry(H, 0, 0, 0, 0) == {0: 1}


def test_cohomology_algebra_rejects_torsion():
    # d(z) = 2w makes H^2 = Z/2; only unit products are nonzero
    a = algebra_from_products(
        ZZ,
        basis=[(0, "1"), (1, "z"), (2, "w")],
        unit_terms={"1": 1},
        differentials={"z": {"w": 2}},
        products={
            ("1", "1"): {"1": 1}, ("1", "z"): {"z": 1}, ("z", "1"): {"z": 1},
            ("1", "w"): {"w": 1}, ("w", "1"): {"w": 1},
        },
    )
    assert validate_dg_algebra(a) == []
    with pytest.raises(ValueError, match="torsion cohomology"):
        cohomology_algebra(a)


# ------------------------------------------------------------ sub/ideal/quotient


def test_subalgebra_full_span_is_identity():
    a = acyclic_interval()
    elements = [(q, {i: 1}) for q in a.degrees() for i in range(a.dim(q))]
    sub, incl = subalgebra_from_span(a, elements)
    assert sub.dims == a.dims
    assert incl.validate() == []
    assert is_quasi_iso_dg(incl).ok


def test_subalgebra_must_contain_unit():
    a = dual_numbers_deg2()
    with pytest.raises(ValueError, match="unit"):
        subalgebra_from_span(a, [(2, {0: 1})])


def test_subalgebra_must_be_d_closed():
    a = acyclic_interval()
    # span {1, y} without z: d(y) = z escapes
    with pytest.raises(ValueError, match="differential"):
        subalgebra_from_span(a, [(0, {0: 1}), (0, {1: 1})])


def test_subalgebra_unit_only():
    a = dual_numbers_deg2()
    sub, incl = subalgebra_from_span(a, [(0, {0: 1})])
    assert sub.dims == {0: 1}
    assert incl.validate() == []
    # misses H^2, so not a quasi-isomorphism
    assert not is_quasi_iso_dg(incl).ok


def test_ideal_zero_and_unit():
    a = dual_numbers_deg2()
    z = ideal_from_span(a, [])
    assert z.ranks() == {}
    full = ideal_from_span(a, [(0, dict(a.unit))])
    assert full.ranks() == {0: 1, 2: 1}


def test_ideal_closure_adds_products():
    a = acyclic_interval()
    ideal = ideal_from_span(a, [(0, {1: 1})])  # generated by y
    # y*z = z forces z in; y itself stays
    assert ideal.ranks() == {0: 1, 1: 1}
    assert not ideal.input_spanned_ideal


def test_ideal_restricted_complex_cohomology():
    from strathom.chain_complex import cohomology

    a = acyclic_interval()
    ideal = ideal_from_span(a, [(0, {1: 1}), (1, {0: 1})])
    assert ideal.input_spanned_ideal
    cc = ideal.restricted_complex()
    h = cohomology(cc)
    assert h.is_zero()


def test_quotient_by_zero_is_identity():
    a = dual_numbers_deg2()
    q, proj = quotient(a, ideal_from_span(a, []))
    assert q.dims == a.dims
    assert proj.validate() == []


def test_quotient_kills_unit_rejected():
    a = dual_numbers_deg2()
    with pytest.raises(ValueError, match="unit"):
        quotient(a, ideal_from_span(a, [(0, dict(a.unit))]))


def test_quotient_torsion_rejected():
    a = dual_numbers_deg2()
    with pytest.raises(ValueError, match="torsion"):
        quotient(a, ideal_from_span(a, [(2, {0: 2})]))


def test_quotient_by_acyclic_ideal_is_quasi_iso():
    a = acyclic_interval()
    ideal = ideal_from_span(a, [(0, {1: 1}), (1, {0: 1})])
    q, proj = quotient(a, ideal)
    assert proj.validate() == []
    assert is_quasi_iso_dg(proj).ok
    assert q.dims == {0: 1}


# ------------------------------------------------------------ chains


def test_formality_chain_identity():
    a = dual_numbers_deg2()
    chain = FormalityChain([a, a], [(_identity(a), "forward")])
    verdict = verify_formality_chain(chain)
    assert verdict.ok, (verdict.arrow_reports, verdict.notes)


def test_formality_chain_through_quotient():
    a = acyclic_interval()
    ideal = ideal_from_span(a, [(0, {1: 1}), (1, {0: 1})])
    q, proj = quotient(a, ideal)
    chain = FormalityChain([a, q], [(proj, "forward")])
    verdict = verify_formality_chain(chain)
    assert verdict.ok, (verdict.arrow_reports, verdict.notes)


def test_formality_chain_rejects_nonzero_terminal_differential():
    a = acyclic_interval()
    chain = FormalityChain([a, a], [(_identity(a), "forward")])
    verdict = verify_formality_chain(chain)
    assert not verdict.ok
    assert any("terminal" in n for n in verdict.notes)


def test_formality_chain_rejects_non_quasi_iso():
    a = dual_numbers_deg2()
    sub, incl = subalgebra_from_span(a, [(0, {0: 1})])
    chain = FormalityChain([a, sub], [(incl, "backward")])
    verdict = verify_formality_chain(chain)
    assert not verdict.ok
    assert any(not r["quasi_iso"] for r in verdict.arrow_reports)


def _line_with_dx_y(ring=ZZ):
    """<1, x, y | dx = y> with x in degree 0 and only the unit's
    products."""
    return algebra_from_products(
        ring, basis=[(0, "1"), (0, "x"), (1, "y")], unit_terms={"1": 1},
        differentials={"x": {"y": 1}},
        products={**{("1", b): {b: 1} for b in "1xy"},
                  **{(b, "1"): {b: 1} for b in "xy"}})


def test_formality_chain_reports_an_arrow_that_is_no_chain_map():
    # B = <1> -> A = <1, x, y | dx = y>, 1 -> 1 + x: d f(1) = y but
    # f(d 1) = 0, so the arrow has no mapping cone; the verdict says so
    # instead of raising
    a = _line_with_dx_y()
    b = algebra_from_products(ZZ, basis=[(0, "1")], unit_terms={"1": 1},
                              differentials={},
                              products={("1", "1"): {"1": 1}})
    f = DgMorphism(b, a, {0: ExactMatrix.from_rows([[1], [1]])})
    problems = f.validate()
    assert problems[0] == "does not commute with d at degree 0"
    with pytest.raises(ValueError, match="^invalid chain map: does not "
                       "commute with d at degree 0$"):
        is_quasi_iso_dg(f)
    verdict = verify_formality_chain(FormalityChain([a, b],
                                                    [(f, "backward")]))
    assert not verdict.ok
    assert verdict.arrow_reports == [
        {"index": 0, "direction": "backward", "valid": False,
         "problems": problems[:5], "quasi_iso": False}]


def test_formality_chain_reports_an_algebra_that_is_no_complex():
    # <1, x, y, z | dx = y, dy = z> has d.d != 0, so no arrow touching it
    # has a mapping cone; the verdict says so instead of raising
    a = algebra_from_products(
        ZZ, basis=[(0, "1"), (1, "x"), (2, "y"), (3, "z")],
        unit_terms={"1": 1}, differentials={"x": {"y": 1}, "y": {"z": 1}},
        products={**{("1", b): {b: 1} for b in "1xyz"},
                  **{(b, "1"): {b: 1} for b in "xyz"}})
    ident = DgMorphism(a, a, {q: ExactMatrix.identity(a.dim(q))
                              for q in a.degrees()})
    with pytest.raises(ValueError, match="^invalid source complex: d.d != 0 "
                       "at degree 1$"):
        is_quasi_iso_dg(ident)
    verdict = verify_formality_chain(FormalityChain([a, a],
                                                    [(ident, "forward")]))
    assert not verdict.ok
    assert verdict.arrow_reports == [
        {"index": 0, "direction": "forward", "valid": True,
         "quasi_iso": False}]
    assert verdict.notes[:2] == [
        f"algebra {i} is not a complex: d.d != 0 at degree 1" for i in (0, 1)]


def test_ideal_not_closed_under_d_is_rejected():
    # the ideal generated by x is spanned by x, and d(x) = y escapes it
    a = _line_with_dx_y()
    with pytest.raises(ValueError, match="^not closed under differential$"):
        ideal_from_span(a, [(0, {1: 1})])


# ------------------------------------------------------------ bilinear kernel


def _random_bilinear_case(kind, seed):
    """A random structure-constant table for one degree pair and, for each
    of the maps X (left), Y (right) and P (out), a random sparse matrix or
    None, the identity.  kind: "Z", "Q", or "Zbig" (entries past 2**62)."""
    rng = random.Random(seed)
    ring = QQ if kind == "Q" else ZZ
    top = 2 ** 70 if kind == "Zbig" else 3

    def entry():
        x = rng.randint(-top, top) if rng.random() < 0.6 else 0
        return ring.element(Fraction(x, rng.randint(1, 4)) if kind == "Q"
                            else x)

    dims = {q: rng.randint(1, 3) for q in (0, 1, 2)}
    q1, q2 = rng.choice([(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)])
    q3 = q1 + q2
    table = {}
    for i in range(dims[q1]):
        for j in range(dims[q2]):
            prod = {k: c for k in range(dims[q3]) for c in [entry()] if c}
            if prod:
                table[(i, j)] = prod
    A = DgAlgebra(ring, dims, {}, {0: ring.element(1)}, {},
                  {(q1, q2): table} if table else {})

    def matrix(r, c):
        if rng.random() < 0.3:
            return None
        return ExactMatrix.from_rows([[entry() for _ in range(c)]
                                      for _ in range(r)], ring, cols=c)

    X = matrix(dims[q1], rng.randint(0, 3))
    Y = matrix(dims[q2], rng.randint(0, 3))
    P = matrix(rng.randint(0, 3), dims[q3])
    return A, q1, q2, X, Y, P


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["Z", "Q", "Zbig"]), st.integers(0, 2 ** 32))
def test_bilinear_matches_multiply(kind, seed):
    A, q1, q2, X, Y, P = _random_bilinear_case(kind, seed)
    got = dg._bilinear(A.mult.get((q1, q2)),
                       None if P is None else P.columns,
                       None if X is None else X.by_rows(),
                       None if Y is None else Y.by_rows())

    def columns(M, q):
        if M is None:
            return [{i: A.ring.element(1)} for i in range(A.dim(q))]
        return [{i: v for i, v in enumerate(M.col(s)) if v}
                for s in range(M.cols)]

    want = {}
    for s, x in enumerate(columns(X, q1)):
        for t, y in enumerate(columns(Y, q2)):
            q3, prod = A.multiply((q1, x), (q2, y))
            vec = [prod.get(k, A.ring.element(0)) for k in range(A.dim(q3))]
            if P is not None:
                vec = P.matvec(vec)
            want.update({(s, t, m): c for m, c in enumerate(vec) if c})
    assert got == want


def test_cohomology_algebra_rejects_constants_past_the_basis():
    # x * x names degree 2, where the algebra has no basis
    a = DgAlgebra(ZZ, {0: 1, 1: 1}, {}, {0: 1}, {},
                  {(0, 0): {(0, 0): {0: 1}}, (0, 1): {(0, 0): {0: 1}},
                   (1, 0): {(0, 0): {0: 1}}, (1, 1): {(0, 0): {0: 1}}})
    with pytest.raises(ValueError, match=r"structure constants of \(1, 1\) "
                       "index past the basis"):
        cohomology_algebra(a)


def test_quotient_rejects_constants_past_the_basis():
    # y * y names basis element 2 of degree 0, which has two
    u = DgAlgebra(ZZ, {0: 2}, {}, {0: 1}, {},
                  {(0, 0): {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                            (1, 1): {2: 1}}})
    with pytest.raises(ValueError, match=r"structure constants of \(0, 0\) "
                       "index past the basis"):
        quotient(u, ideal_from_span(u, []))


def test_cohomology_algebra_detects_section_dependence():
    # d(z) = w and x * w = e break Leibniz on (x, z): d(x * z) = 0 but
    # x * d(z) = e.  So x * [e] is 0 on the section e and nonzero on a
    # section e + a*w with a != 0, and the perturbed re-check must see it.
    a = algebra_from_products(
        ZZ,
        basis=[(0, "1"), (0, "x"), (0, "z"), (1, "w"), (1, "e")],
        unit_terms={"1": 1},
        differentials={"z": {"w": 1}},
        products={
            ("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
            ("1", "z"): {"z": 1}, ("z", "1"): {"z": 1},
            ("1", "w"): {"w": 1}, ("w", "1"): {"w": 1},
            ("1", "e"): {"e": 1}, ("e", "1"): {"e": 1},
            ("x", "x"): {"x": 1}, ("x", "w"): {"e": 1},
        },
    )
    assert any("Leibniz" in p for p in validate_dg_algebra(a))
    with pytest.raises(AssertionError,
                       match="cohomology product depends on the section"):
        cohomology_algebra(a)


@pytest.mark.parametrize("pair", [("e", "w"), ("w", "e"), ("w", "w")],
                         ids=["z*b", "b*z", "b*b"])
def test_cohomology_algebra_section_check_sees_each_term(pair):
    # H^1 = [e] and H^2 = [f] with w = d(z) a boundary in degree 1; the one
    # product pair -> f is a lift times a boundary, a boundary times a
    # lift, or two boundaries, and each alone makes e * e depend on the
    # section
    a = algebra_from_products(
        ZZ,
        basis=[(0, "1"), (0, "z"), (1, "w"), (1, "e"), (2, "f")],
        unit_terms={"1": 1},
        differentials={"z": {"w": 1}},
        products={**{("1", x): {x: 1} for x in "1zwef"},
                  **{(x, "1"): {x: 1} for x in "zwef"},
                  pair: {"f": 1}},
    )
    with pytest.raises(AssertionError,
                       match="cohomology product depends on the section"):
        cohomology_algebra(a)


def test_formality_chain_rejects_misshaped_identification(monkeypatch):
    a = dual_numbers_deg2()
    chain = FormalityChain([a, a], [(_identity(a), "forward")])
    real = dg._induced_on_cohomology

    def one_row_too_many(f, src, tgt):
        out = real(f, src, tgt)
        m = out[2]
        out[2] = ExactMatrix(m.ring, m.rows + 1, m.cols, m.columns)
        return out

    monkeypatch.setattr(dg, "_induced_on_cohomology", one_row_too_many)
    verdict = verify_formality_chain(chain)
    assert not verdict.ok
    assert len(verdict.notes) == 1
    note = verdict.notes[0]
    assert note.startswith("identification failed: component at degree 2")
    assert "(1, 1)" in note and "(2, 1)" in note


def _multiplicativity_reference(f):
    """The pairwise check that DgMorphism.validate batches."""
    A, B = f.source, f.target
    out = []
    for q1 in A.degrees():
        for q2 in A.degrees():
            for i in range(A.dim(q1)):
                a = A.basis_element(q1, i)
                for j in range(A.dim(q2)):
                    b = A.basis_element(q2, j)
                    lhs = f.apply(A.multiply(a, b))[1]
                    rhs = B.multiply(f.apply(a), f.apply(b))[1]
                    if lhs != rhs:
                        out.append(f"not multiplicative on ({A.label(q1, i)}, "
                                   f"{A.label(q2, j)})")
    return out


@pytest.mark.parametrize("ring", [ZZ, QQ])
def test_morphism_validate_matches_pairwise_reference(ring):
    # y -> 2y, z -> 2z is a chain map, but 2y * 2y != f(y * y) = 2y
    a = acyclic_interval(ring)
    f = DgMorphism(a, a, {0: ExactMatrix.from_rows([[1, 0], [0, 2]], ring),
                          1: ExactMatrix.from_rows([[2]], ring)})
    problems = [p for p in f.validate() if p.startswith("not multiplicative")]
    assert problems == _multiplicativity_reference(f) == [
        "not multiplicative on (y, y)", "not multiplicative on (y, z)"]


def test_morphism_validate_matches_reference_on_sphere_chain():
    from strathom.sphere_models import SphereModel, formality_chain_n_points

    E = SphereModel(3).resolution_n_points().end_algebra()
    chain = formality_chain_n_points(E, 3)
    proj = chain.chain.arrows[1][0]
    assert proj.validate() == [] == _multiplicativity_reference(proj)
    comps = dict(proj.components)
    comps[0] = comps[0] + ExactMatrix.from_entries(
        *comps[0].shape, [(0, 0, 1), (0, 2, 1)], E.ring)
    f = DgMorphism(proj.source, proj.target, comps)
    problems = [p for p in f.validate() if p.startswith("not multiplicative")]
    assert problems and problems == _multiplicativity_reference(f)


# ------------------------------------------------------------ dg-algebra laws


def _validate_reference(A):
    """The pairwise loops that `validate_dg_algebra` ran before it checked
    the laws as identities of bilinear maps.  Associativity runs over the
    nonzero pairs times the basis, so its strings come in another order."""
    problems = []
    for q, d in A.diff.items():
        if d.shape != (A.dim(q + 1), A.dim(q)):
            problems.append(f"differential at degree {q} has shape {d.shape}, "
                            f"expected {(A.dim(q + 1), A.dim(q))}")
    if problems:
        return problems
    for q in A.degrees():
        d0, d1 = A.diff.get(q), A.diff.get(q + 1)
        if d0 is not None and d1 is not None and not (d1 @ d0).is_zero():
            problems.append(f"d.d != 0 at degree {q}")
    for (q1, q2), table in A.mult.items():
        for (i, j), prod in table.items():
            if i >= A.dim(q1) or j >= A.dim(q2):
                problems.append(f"structure constant at bad index "
                                f"({q1},{q2},{i},{j})")
            elif any(k >= A.dim(q1 + q2) for k in prod):
                problems.append(f"product of ({q1},{i}) and ({q2},{j}) "
                                f"lands outside degree {q1 + q2}")
    if problems:
        return problems
    if A.d_element(A.unit_element())[1]:
        problems.append("unit is not a cycle")
    one = A.unit_element()
    for q in A.degrees():
        for i in range(A.dim(q)):
            b = A.basis_element(q, i)
            if A.multiply(one, b) != b:
                problems.append(f"1*b != b for {A.label(q, i)}")
            if A.multiply(b, one) != b:
                problems.append(f"b*1 != b for {A.label(q, i)}")
    for q1 in A.degrees():
        sign = -1 if q1 % 2 else 1
        for q2 in A.degrees():
            for i in range(A.dim(q1)):
                a = A.basis_element(q1, i)
                da = A.d_element(a)
                for j in range(A.dim(q2)):
                    b = A.basis_element(q2, j)
                    lhs = A.d_element(A.multiply(a, b))
                    rhs = A.multiply(da, b)
                    rhs2 = A.multiply(a, A.d_element(b))
                    acc = dict(rhs[1])
                    _vec_axpy(acc, rhs2[1], sign)
                    if lhs[1] != acc:
                        problems.append(
                            f"Leibniz fails on ({A.label(q1, i)}, "
                            f"{A.label(q2, j)})")
    # associativity over potentially nonzero triples
    nonzero_pairs = []
    for (q1, q2), table in A.mult.items():
        for (i, j), prod in table.items():
            if prod:
                nonzero_pairs.append((q1, i, q2, j))
    seen = set()
    for (q1, i, q2, j) in nonzero_pairs:
        ab = A.multiply(A.basis_element(q1, i), A.basis_element(q2, j))
        for q3 in A.degrees():
            for k in range(A.dim(q3)):
                key = (q1, i, q2, j, q3, k)
                if key in seen:
                    continue
                seen.add(key)
                lhs = A.multiply(ab, A.basis_element(q3, k))
                rhs = A.multiply(
                    A.basis_element(q1, i),
                    A.multiply(A.basis_element(q2, j), A.basis_element(q3, k)))
                if lhs != rhs:
                    problems.append(
                        f"associativity fails on ({A.label(q1, i)}, "
                        f"{A.label(q2, j)}, {A.label(q3, k)})")
    for (q2, j, q3, k) in nonzero_pairs:
        bc = A.multiply(A.basis_element(q2, j), A.basis_element(q3, k))
        for q1 in A.degrees():
            for i in range(A.dim(q1)):
                key = (q1, i, q2, j, q3, k)
                if key in seen:
                    continue
                seen.add(key)
                lhs = A.multiply(
                    A.multiply(A.basis_element(q1, i),
                               A.basis_element(q2, j)),
                    A.basis_element(q3, k))
                rhs = A.multiply(A.basis_element(q1, i), bc)
                if lhs != rhs:
                    problems.append(
                        f"associativity fails on ({A.label(q1, i)}, "
                        f"{A.label(q2, j)}, {A.label(q3, k)})")
    return problems


def _random_dg_algebra(ring, seed):
    """A square-zero extension R + M (M * M = 0, d(1) = 0, d^2 = 0 on M),
    which is a dg algebra, with its unit, Leibniz, d^2 and associativity
    then broken at random.  Labels are "q:i"."""
    rng = random.Random(seed)

    def entry(top=2):
        x = rng.randint(-top, top)
        return ring.element(Fraction(x, rng.randint(1, 3))
                            if ring.is_field else x)

    dims = {q: rng.randint(0, 2) for q in (-1, 0, 1, 2)}
    dims[0] += 1  # the unit is basis element 0 of degree 0
    degs = [q for q in dims if dims[q]]
    labels = {q: [f"{q}:{i}" for i in range(n)] for q, n in dims.items()}
    diff = {}
    for q in (-1, 0, 1):  # nonzero d only on alternate degrees: d^2 = 0
        if (q % 2 == seed % 2 or rng.random() < 0.15) and dims.get(q + 1):
            entries = [(r, c, entry()) for r in range(dims[q + 1])
                       for c in range(dims[q])
                       if c or q != 0 or rng.random() < 0.1]  # keep d(1) = 0
            diff[q] = ExactMatrix.from_entries(dims[q + 1], dims[q], entries,
                                               ring)
    one = ring.element(1)
    mult = {}
    for q in degs:
        mult.setdefault((0, q), {}).update(
            {(0, i): {i: one} for i in range(dims[q])})
        mult.setdefault((q, 0), {}).update(
            {(i, 0): {i: one} for i in range(dims[q])})
    for _ in range(rng.randint(0, 4)):  # products that break the laws
        q1, q2 = rng.choice(degs), rng.choice(degs)
        if dims.get(q1 + q2):
            i, j = rng.randrange(dims[q1]), rng.randrange(dims[q2])
            k = rng.randrange(dims[q1 + q2])
            c = entry()
            if c:
                mult.setdefault((q1, q2), {})[(i, j)] = {k: c}
    unit = {0: one}
    if rng.random() < 0.2:
        unit = {0: ring.element(rng.choice([-1, 2]))}
    return DgAlgebra(ring, dims, labels, unit, diff, mult)


def _assoc_key(problem):
    inner = problem[len("associativity fails on ("):-1]
    return [tuple(map(int, e.split(":"))) for e in inner.split(", ")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_validate_matches_pairwise_reference(ring, seed):
    A = _random_dg_algebra(ring, seed)
    got, want = validate_dg_algebra(A), _validate_reference(A)
    assert sorted(got) == sorted(want)

    def assoc(ps):
        return [p for p in ps if p.startswith("associativity")]

    assert [p for p in got if p not in assoc(got)] == \
        [p for p in want if p not in assoc(want)]
    # associativity in (q1, q2, q3, i, j, k) order
    order = [[e[0] for e in key] + [e[1] for e in key]
             for key in map(_assoc_key, assoc(got))]
    assert order == sorted(order)


def test_random_dg_algebras_break_every_law():
    # the generator reaches each kind of failure the property compares
    seen = set()
    for seed in range(200):
        for ring in (ZZ, QQ):
            for p in _validate_reference(_random_dg_algebra(ring, seed)):
                seen.add(p.split(" ")[0])
    assert {"d.d", "1*b", "b*1", "Leibniz", "associativity"} <= seen


def test_formality_chain_names_non_multiplicative_identification(
        monkeypatch):
    a = dual_numbers_deg2()
    chain = FormalityChain([a, a], [(_identity(a), "forward")])
    real = dg._induced_on_cohomology

    def doubled_in_degree_0(f, src, tgt):
        out = real(f, src, tgt)
        out[0] = out[0].scale(2)
        return out

    monkeypatch.setattr(dg, "_induced_on_cohomology", doubled_in_degree_0)
    verdict = verify_formality_chain(chain)
    assert not verdict.ok
    # f(1 * 1) = 2 but f(1) * f(1) = 4; f(1 * t) = t but f(1) * f(t) = 2t
    assert verdict.notes == [
        f"identification is not multiplicative at degrees {pair}"
        for pair in ("(0, 0)", "(0, 2)", "(2, 0)")]


# ------------------------------------------------- products on the support


def _random_entry(ring, rng, top=2):
    x = 0
    while x == 0:
        x = rng.randint(-top, top)
    return ring.element(Fraction(x, rng.randint(1, 3)) if ring.is_field
                        else x)


def _random_sparse_algebra(ring, rng, dims, density, inside=None):
    """Sparse random structure constants on `dims` (degrees 0..2); no law
    need hold.  With `inside` ({q: basis indices}), a product of two inside
    elements and the differential of an inside element stay inside."""
    def vec(q, within):
        rows = inside[q] if within and inside else range(dims[q])
        return {k: _random_entry(ring, rng) for k in rows
                if rng.random() < 0.5}

    mult = {}
    for q1 in dims:
        for q2 in dims:
            if q1 + q2 not in dims:
                continue
            for i in range(dims[q1]):
                for j in range(dims[q2]):
                    if rng.random() < density:
                        within = inside is not None and i in inside[q1] \
                            and j in inside[q2]
                        prod = vec(q1 + q2, within)
                        if prod:
                            mult.setdefault((q1, q2), {})[(i, j)] = prod
    diff = {}
    for q in dims:
        if q + 1 in dims and rng.random() < 0.6:
            entries = []
            for j in range(dims[q]):
                if rng.random() < 0.5:
                    within = inside is not None and j in inside[q]
                    entries.extend((i, j, c)
                                   for i, c in vec(q + 1, within).items())
            diff[q] = ExactMatrix.from_entries(dims[q + 1], dims[q], entries,
                                               ring)
    labels = {q: [f"{q}:{i}" for i in range(n)] for q, n in dims.items()}
    return DgAlgebra(ring, dims, labels, {0: ring.element(1)}, diff, mult)


def _random_morphism(ring, seed):
    """A degree-wise map between two random sparse algebras in degrees
    0..2, mostly not multiplicative.  The target has structure constants
    in degree pairs where the source has none."""
    rng = random.Random(seed)
    dims_a = {q: rng.randint(1, 3) for q in (0, 1, 2)}
    dims_b = {q: rng.randint(1, 3) for q in (0, 1, 2)}
    A = _random_sparse_algebra(ring, rng, dims_a, 0.3)
    for pair in rng.sample(sorted(A.mult), len(A.mult) // 2):
        del A.mult[pair]
    B = _random_sparse_algebra(ring, rng, dims_b, 0.4)
    comps = {}
    for q in (0, 1, 2):
        comps[q] = ExactMatrix.from_entries(dims_b[q], dims_a[q], [
            (r, c, _random_entry(ring, rng)) for r in range(dims_b[q])
            for c in range(dims_a[q]) if rng.random() < 0.5], ring)
    return DgMorphism(A, B, comps)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_not_multiplicative_matches_pairwise_reference(ring, seed):
    f = _random_morphism(ring, seed)
    got = [f"not multiplicative on ({f.source.label(q1, i)}, "
           f"{f.source.label(q2, j)})"
           for q1, q2, i, j in f._not_multiplicative()]
    assert got == _multiplicativity_reference(f)


def test_random_morphisms_reach_target_only_pairs():
    # the generator reaches the cases the property compares: failures in
    # degree pairs where only the target has constants, and many failures
    only_target = failing = 0
    for seed in range(100):
        for ring in (ZZ, QQ):
            f = _random_morphism(ring, seed)
            bad = list(f._not_multiplicative())
            failing += bool(bad)
            only_target += any((q1, q2) not in f.source.mult
                               for q1, q2, _, _ in bad)
    assert only_target >= 20 and failing >= 150


def test_not_multiplicative_rejects_misshaped_component():
    a = acyclic_interval()
    f = DgMorphism(a, a, {0: ExactMatrix.identity(2),
                          1: ExactMatrix.zeros(1, 2)})
    with pytest.raises(ValueError, match="component at degree 1"):
        list(f._not_multiplicative())


def _subalgebra_reference(A, elements):
    """The all-pairs `subalgebra_from_span`: (dims, unit, diff, mult), with
    its error messages and their order."""
    from strathom.exact_linalg import ColumnLattice

    lattices, per_degree = {}, {}
    for pos, (q, coeffs) in enumerate(elements):
        if not coeffs:
            continue
        lat = lattices.setdefault(q, ColumnLattice(A.ring))
        if lat.add(dict(coeffs), coord_key=pos):
            per_degree.setdefault(q, []).append(pos)
    for q, positions in per_degree.items():
        if len(positions) != lattices[q].rank:
            raise ValueError(
                f"spanning set at degree {q} is not a lattice basis after "
                "reduction; provide an independent set")
    index_of = {pos: k for positions in per_degree.values()
                for k, pos in enumerate(positions)}
    dims = {q: len(positions) for q, positions in per_degree.items()}

    def coords_in_span(q, coeffs, what):
        if not coeffs:
            return {}
        lat = lattices.get(q)
        co = lat.coordinates(coeffs) if lat else None
        if co is None:
            raise ValueError(f"span not closed under {what}")
        return {index_of[pos]: c for pos, c in co.items()}

    unit = coords_in_span(0, A.unit_element()[1],
                          "unit membership (sub-algebra must contain 1)")
    diff = {}
    for q, positions in sorted(per_degree.items()):
        if (q + 1) not in per_degree:
            for pos in positions:
                if A.d_element(elements[pos])[1]:
                    raise ValueError(
                        f"span not closed under differential at degree {q}")
            continue
        entries = []
        for j, pos in enumerate(positions):
            img = A.d_element(elements[pos])
            try:
                co = coords_in_span(q + 1, img[1], "differential")
            except ValueError:
                raise ValueError(
                    f"span not closed under differential at degree {q}, "
                    f"element #{pos}")
            entries.extend((i, j, c) for i, c in co.items())
        diff[q] = ExactMatrix.from_entries(dims[q + 1], dims[q], entries,
                                           A.ring)
    mult = {}
    for q1, pos1 in per_degree.items():
        for q2, pos2 in per_degree.items():
            table = {}
            for i, p1 in enumerate(pos1):
                for j, p2 in enumerate(pos2):
                    prod = A.multiply(elements[p1], elements[p2])
                    if not prod[1]:
                        continue
                    try:
                        co = coords_in_span(q1 + q2, prod[1],
                                            "multiplication")
                    except ValueError:
                        raise ValueError(
                            "span not closed under multiplication: product "
                            f"of elements #{p1} and #{p2} escapes")
                    if co:
                        table[(i, j)] = co
            if table:
                mult[(q1, q2)] = table
    return dims, unit, diff, mult


def _random_span_case(ring, seed):
    """A random algebra with a basis subset S whose span is closed under d
    and products, unless a constant or an entry of d was bent out of it,
    and a spanning
    set of span(S): S mixed by unitriangular matrices, in shuffled order,
    with a redundant sum and a zero element."""
    rng = random.Random(seed)
    dims = {q: rng.randint(1, 4) for q in (0, 1, 2)}
    inside = {q: sorted(rng.sample(range(n), rng.randint(1, n)))
              for q, n in dims.items()}
    if rng.random() < 0.9 and 0 not in inside[0]:
        inside[0] = [0] + inside[0]  # the unit e_0 is in span(S)
    A = _random_sparse_algebra(ring, rng, dims, 0.5, inside)
    inner = [(q1, q2, key) for (q1, q2), table in A.mult.items()
             for key in table
             if key[0] in inside[q1] and key[1] in inside[q2]]
    outside = {q: [k for k in range(dims[q]) if k not in inside[q]]
               for q in dims}
    if inner and rng.random() < 0.4:
        q1, q2, key = rng.choice(inner)
        if outside[q1 + q2]:
            A.mult[(q1, q2)][key][rng.choice(outside[q1 + q2])] = \
                _random_entry(ring, rng)
    bendable = [q for q in A.diff if outside[q + 1]]
    if bendable and rng.random() < 0.2:
        q = rng.choice(bendable)
        x = _random_entry(ring, rng)
        i, j = rng.choice(outside[q + 1]), rng.choice(inside[q])
        d = A.diff[q]  # overwrite entry (i, j) of d with x
        A.diff[q] = d + ExactMatrix.from_entries(
            *d.shape, [(i, j, x - d[i, j])], ring)
    elements = []
    for q, rows in inside.items():
        for a, row in enumerate(rows):
            v = {row: ring.element(rng.choice([1, -1]))}
            for later in rows[a + 1:]:
                if rng.random() < 0.4:
                    v[later] = ring.element(rng.randint(-2, 2))
            elements.append((q, {k: c for k, c in v.items() if c}))
    rng.shuffle(elements)
    if rng.random() < 0.3:
        q, v = rng.choice(elements)
        w = [x for x in elements if x[0] == q][0][1]
        s = dict(v)
        _vec_axpy(s, w, 1)
        elements.append((q, s))
    if rng.random() < 0.2:
        elements.insert(rng.randrange(len(elements) + 1), (1, {}))
    return A, elements


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_subalgebra_matches_all_pairs_reference(ring, seed):
    A, elements = _random_span_case(ring, seed)
    try:
        want = _subalgebra_reference(A, elements)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            subalgebra_from_span(A, elements)
        assert str(got.value) == str(exc)
        return
    sub, _ = subalgebra_from_span(A, elements)
    dims, unit, diff, mult = want
    assert sub.dims == dims and sub.unit == unit
    assert {q: m.tolist() for q, m in sub.diff.items()} == \
        {q: m.tolist() for q, m in diff.items() if m.rows and m.cols}
    # the same tables, inserted in the same order
    assert [(k, list(t.items())) for k, t in sub.mult.items()] == \
        [(k, list(t.items())) for k, t in mult.items()]


def test_random_spans_reach_every_outcome():
    outcomes = set()
    for seed in range(150):
        for ring in (ZZ, QQ):
            A, elements = _random_span_case(ring, seed)
            try:
                _, _, _, mult = _subalgebra_reference(A, elements)
                outcomes.add("closed with products" if mult else "closed")
            except ValueError as exc:
                outcomes.add(str(exc).split(":")[0].split(" at ")[0])
    assert {"closed with products", "span not closed under multiplication",
            "span not closed under differential",
            "span not closed under unit membership (sub-algebra must "
            "contain 1)"} <= outcomes


def _ideal_reference(U, elements):
    """The naive fixed point: every pass multiplies every echelon vector by
    every basis element on both sides, until a pass adds nothing."""
    from strathom.dg import DgIdeal
    from strathom.exact_linalg import ColumnLattice

    lattices = {}
    for q, coeffs in elements:
        if coeffs:
            lattices.setdefault(q, ColumnLattice(U.ring)).add(dict(coeffs))
    grew_any = False
    changed = True
    while changed:
        changed = False
        for q in list(lattices):
            for vec in list(lattices[q].basis_vectors()):
                x = (q, vec)
                for qb in U.degrees():
                    for i in range(U.dim(qb)):
                        b = U.basis_element(qb, i)
                        for pq, pc in (U.multiply(b, x), U.multiply(x, b)):
                            if pc and lattices.setdefault(
                                    pq, ColumnLattice(U.ring)).add(dict(pc)):
                                changed = grew_any = True
    lattices = {q: lat for q, lat in lattices.items() if lat.rank}
    for q, lat in lattices.items():
        tgt = lattices.get(q + 1)
        for vec in lat.basis_vectors():
            img = U.d_element((q, vec))
            if img[1] and (tgt is None or
                           tgt.echelon_coordinates(img[1]) is None):
                raise ValueError("not closed under differential")
    return DgIdeal(U, lattices, input_spanned_ideal=not grew_any)


def _random_ideal_case(ring, seed):
    """A random sparse algebra, often with zero differential, and a few
    generators: small multiples of basis vectors or sparse combinations."""
    rng = random.Random(seed)
    dims = {q: rng.randint(1, 4) for q in (0, 1, 2)}
    A = _random_sparse_algebra(ring, rng, dims, 0.25)
    if rng.random() < 0.6:
        A.diff = {}
    gens = []
    for _ in range(rng.randint(1, 3)):
        q = rng.choice([0, 1, 2])
        if rng.random() < 0.5:
            gens.append((q, {rng.randrange(dims[q]):
                             ring.element(rng.choice([1, 2, 3, -2]))}))
        else:
            gens.append((q, {k: _random_entry(ring, rng, 3)
                             for k in range(dims[q]) if rng.random() < 0.5}))
    return A, gens


def _quotient_or_error(U, ideal):
    try:
        return quotient(U, ideal)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, QQ]), st.integers(0, 2 ** 32))
def test_ideal_matches_naive_fixed_point(ring, seed):
    U, gens = _random_ideal_case(ring, seed)
    try:
        want = _ideal_reference(U, gens)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ideal_from_span(U, gens)
        assert str(got.value) == str(exc)
        return
    got = ideal_from_span(U, gens)
    assert got.ranks() == want.ranks()
    assert got.input_spanned_ideal == want.input_spanned_ideal
    q_got, q_want = _quotient_or_error(U, got), _quotient_or_error(U, want)
    if isinstance(q_want, str):
        assert q_got == q_want
        return
    (Qg, pg), (Qw, pw) = q_got, q_want
    assert (Qg.dims, Qg.labels, Qg.unit, Qg.mult) == \
        (Qw.dims, Qw.labels, Qw.unit, Qw.mult)
    assert {q: m.tolist() for q, m in Qg.diff.items()} == \
        {q: m.tolist() for q, m in Qw.diff.items()}
    assert {q: m.tolist() for q, m in pg.components.items()} == \
        {q: m.tolist() for q, m in pw.components.items()}


def test_random_ideals_reach_growth_and_gcd_steps(monkeypatch):
    # generators that do not span their ideal, and a Z closure that
    # combines two columns by their gcd
    import strathom.exact_linalg as el

    calls = []
    real = el._xgcd
    monkeypatch.setattr(el, "_xgcd", lambda a, b: calls.append(1) or
                        real(a, b))
    grew = gcd = quotients = 0
    for seed in range(150):
        for ring in (ZZ, QQ):
            U, gens = _random_ideal_case(ring, seed)
            calls.clear()
            try:
                ideal = ideal_from_span(U, gens)
            except ValueError:
                continue
            grew += not ideal.input_spanned_ideal
            gcd += ring is ZZ and bool(calls)
            quotients += not isinstance(_quotient_or_error(U, ideal), str)
    assert grew >= 50 and gcd >= 5 and quotients >= 50


def test_ideal_closure_gcd_step():
    # z * z = 3y joins the generator 2y: the lattice 2Z y + 3Z y = Z y is
    # reached by a gcd step, so y itself is in the ideal
    a = algebra_from_products(
        ZZ, basis=[(0, "1"), (0, "y"), (0, "z")], unit_terms={"1": 1},
        differentials={},
        products={**{("1", x): {x: 1} for x in "1yz"},
                  **{(x, "1"): {x: 1} for x in "yz"},
                  ("z", "z"): {"y": 3}})
    gens = [(0, {1: 2}), (0, {2: 1})]
    for ideal in (ideal_from_span(a, gens), _ideal_reference(a, gens)):
        assert ideal.ranks() == {0: 2}
        assert not ideal.input_spanned_ideal
        assert ideal.lattices[0].echelon_coordinates({1: 1}) is not None


def test_closures_form_products_only_on_the_support(monkeypatch):
    # the n-point chain and its verification form every product through
    # the one kernel on the structure constants, none element by element
    # through `DgAlgebra.multiply`
    from strathom.sphere_models import SphereModel, formality_chain_n_points

    E = SphereModel(8).resolution_n_points().end_algebra()
    pairwise, kernel = [], []
    real_pairwise, real_kernel = dg.DgAlgebra.multiply, dg._bilinear
    monkeypatch.setattr(dg.DgAlgebra, "multiply",
                        lambda *a: pairwise.append(1) or real_pairwise(*a))
    monkeypatch.setattr(dg, "_bilinear", lambda *a, **k: kernel.append(1)
                        or real_kernel(*a, **k))
    ch = formality_chain_n_points(E, 8)
    assert verify_formality_chain(ch.chain).ok
    assert pairwise == [] and kernel


# ------------------------------------------------------ laws on real algebras


@pytest.mark.parametrize("ring,n", [(ZZ, n) for n in range(2, 13)] +
                         [(QQ, n) for n in range(2, 6)])
def test_end_of_sphere_resolution_validates(ring, n):
    from strathom.sphere_models import SphereModel

    E = SphereModel(n, ring=ring).resolution_n_points().end_algebra()
    assert validate_dg_algebra(E) == []


def _generated_end(seed, ring):
    """End J of the injective coresolution of the direct sum of the reps of
    `bench/gen.py` smoke instance 0 of `seed`."""
    import importlib.util
    from pathlib import Path

    from strathom.cli import _build_reps
    from strathom.quiver_rep import (
        StratPoset, Quiver, direct_sum, injective_coresolution)
    from strathom.rep_complex import ComplexOfReps, end_dg_algebra

    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset_doc, reps_doc = gen.instance(seed, 0, "smoke")
    quiver = Quiver(StratPoset(
        [(s["name"], s["dim"]) for s in poset_doc["strata"]],
        [tuple(c) for c in poset_doc["covers"]], acyclicity_asserted=True))
    reps = _build_reps(reps_doc, quiver, ring)
    names = sorted(reps)
    total = direct_sum([reps[a] for a in names], names=names) \
        if len(names) > 1 else reps[names[0]]
    cores = injective_coresolution(total)
    return end_dg_algebra(ComplexOfReps(quiver, ring,
                                        dict(enumerate(cores.terms)),
                                        dict(enumerate(cores.maps))))


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_end_of_generated_instance_validates(seed, ring):
    E = _generated_end(seed, ring)
    assert E.mult and validate_dg_algebra(E) == []


def test_validate_end_memory_stays_sparse():
    # dense product blocks peaked at 43 MiB on this input
    import tracemalloc

    from strathom.sphere_models import SphereModel

    E = SphereModel(12).resolution_n_points().end_algebra()
    tracemalloc.start()
    try:
        assert validate_dg_algebra(E) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
