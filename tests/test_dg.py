import random
from fractions import Fraction

import numpy as np
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
    assert H.mult_entry(0, 2, 0, 0) == {0: 1}
    assert H.mult_entry(2, 2, 0, 0) == {}
    for q, lift in section.items():
        assert lift == ExactMatrix.identity(a.dim(q), a.ring)


def test_cohomology_algebra_of_acyclic_part():
    a = acyclic_interval()
    H, _ = cohomology_algebra(a)
    # y dies (d(y) = z), z dies (a boundary): only the unit class remains
    assert H.dims == {0: 1}
    assert H.mult_entry(0, 0, 0, 0) == {0: 1}


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


# ------------------------------------------------------------ bilinear kernel


def _random_product_case(kind, seed):
    """A random structure-constant table for one degree pair, operands X
    and Y, and a map P (or None).  kind: "Z", "Q", or "Zbig" (entries
    around 2**40)."""
    rng = random.Random(seed)
    ring = QQ if kind == "Q" else ZZ
    top = 2 ** 40 if kind == "Zbig" else 3

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
        return ExactMatrix.from_rows([[entry() for _ in range(c)]
                                      for _ in range(r)], ring, cols=c)

    X = matrix(dims[q1], rng.randint(0, 3))
    Y = matrix(dims[q2], rng.randint(0, 3))
    P = matrix(rng.randint(0, 3), dims[q3]) if rng.random() < 0.5 else None
    return A, q1, q2, X, Y, P


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Z", "Q", "Zbig"]), st.integers(0, 2 ** 32))
def test_product_blocks_match_multiply(kind, seed):
    A, q1, q2, X, Y, P = _random_product_case(kind, seed)
    blocks = list(A.product_blocks(q1, q2, X, Y, P))
    assert len(blocks) == X.cols
    for s, block in enumerate(blocks):
        rows = P.rows if P is not None else A.dim(q1 + q2)
        assert block.shape == (rows, Y.cols)
        x = (q1, {i: v for i, v in enumerate(X.col(s)) if v})
        for t in range(Y.cols):
            y = (q2, {j: v for j, v in enumerate(Y.col(t)) if v})
            q3, prod = A.multiply(x, y)
            want = [prod.get(k, 0) for k in range(A.dim(q3))]
            if P is not None:
                want = P.matvec([A.ring.element(v) for v in want])
            assert list(block[:, t]) == want


def test_product_blocks_overflow_falls_back_to_python_ints():
    big = 2 ** 40
    A = DgAlgebra(ZZ, {0: 1}, {}, {0: 1}, {}, {(0, 0): {(0, 0): {0: big}}})
    X = ExactMatrix.from_rows([[big]])
    (block,) = A.product_blocks(0, 0, X, X)
    assert block.dtype == object and block[0, 0] == big ** 3
    (small,) = A.product_blocks(0, 0, ExactMatrix.from_rows([[2]]),
                                ExactMatrix.from_rows([[3]]))
    assert small.dtype == np.int64 and small[0, 0] == 6 * big


def test_product_blocks_reject_misshaped_operands():
    a = dual_numbers_deg2()
    with pytest.raises(ValueError, match="need dims"):
        list(a.product_blocks(0, 2, ExactMatrix.identity(2),
                              ExactMatrix.identity(1)))


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
    H, _ = cohomology_algebra(a, verify_section=False)
    assert H.dims == {0: 2, 1: 1}
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
        out[2] = ExactMatrix.vstack([m, ExactMatrix.zeros(1, m.cols)])
        return out

    monkeypatch.setattr(dg, "_induced_on_cohomology", one_row_too_many)
    verdict = verify_formality_chain(chain)
    assert not verdict.ok
    assert len(verdict.notes) == 1
    note = verdict.notes[0]
    assert note.startswith("identification failed: degree 2")
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
    proj = chain.projection
    assert proj.validate() == [] == _multiplicativity_reference(proj)
    comps = dict(proj.components)
    bent = comps[0].data.copy()
    bent[0, 0] += 1
    bent[0, 2] += 1
    comps[0] = ExactMatrix(E.ring, bent)
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
            m = ExactMatrix.zeros(dims[q + 1], dims[q], ring)
            for r in range(m.rows):
                for c in range(m.cols):
                    if c or q != 0 or rng.random() < 0.1:  # keep d(1) = 0
                        m.data[r, c] = entry()
            diff[q] = m
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
