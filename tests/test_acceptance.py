"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output).  Wall-time bounds are asserted where the criterion fixes
one.
"""

import random
import time
from contextlib import contextmanager

import pytest

from strathom.chain_complex import cohomology, cone_report
from strathom.dg import (
    DgMorphism,
    is_quasi_iso_dg,
    validate_dg_algebra,
    verify_formality_chain,
)
from strathom.exact_linalg import (
    QQ,
    ZZ,
    ExactMatrix,
    kernel_basis,
    rank,
    smith_normal_form,
)
from strathom.quiver_rep import ext_all, projective_resolution
from strathom.rep_complex import end_dg_algebra
from strathom.sphere_models import (
    SphereModel,
    de_rham_model,
    formality_chain_n_points,
    formality_witness_one_point,
    formality_witness_trivial,
)

from test_exact_linalg import determinant
from test_rep_complex import TRIVIAL_TABLE, shift_complex_of_reps, table_of


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    holder = {"elapsed": None}
    try:
        yield holder
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    holder["elapsed"] = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({holder['elapsed']:.2f}s)", flush=True)


def h_betti(E):
    return {q: r["betti"] for q, r in cone_report(E.complex()).items()
            if r["betti"]}


def check_leibniz_and_d_squared(A):
    cc = A.complex()
    for q in cc.degrees():
        d0, d1 = cc.d(q), cc.d(q + 1)
        if d0.cols and d1.rows:
            assert (d1 @ d0).is_zero()
    for q1 in A.degrees():
        sign = -1 if q1 % 2 else 1
        for q2 in A.degrees():
            for i in range(A.dim(q1)):
                a = A.basis_element(q1, i)
                da = A.d_element(a)
                for j in range(A.dim(q2)):
                    b = A.basis_element(q2, j)
                    lhs = A.d_element(A.multiply(a, b))[1]
                    rhs = dict(A.multiply(da, b)[1])
                    for k, c in A.multiply(a, A.d_element(b))[1].items():
                        w = rhs.get(k, 0) + sign * c
                        if w == 0:
                            rhs.pop(k, None)
                        else:
                            rhs[k] = w
                    assert lhs == rhs


def check_euler(cc):
    h = cohomology(cc)
    chi_rank = sum((-1) ** q * r for q, r in cc.ranks.items())
    chi_h = sum((-1) ** q * h.betti(q) for q in cc.support())
    assert chi_rank == chi_h


def test_criterion_1_trivial_stratification():
    with criterion("1 trivial stratification") as c:
        model = SphereModel(2)
        res = model.resolution_trivial()
        assert res.validate().ok
        E = res.end_algebra()
        assert {q: E.dim(q) for q in E.degrees()} == {0: 6, 1: 8, 2: 4}
        rows = {}
        for degree in (0, 1, 2):
            for key, img in table_of(E, degree).items():
                rows[(degree,) + key] = img
        assert rows == TRIVIAL_TABLE
        prof = cone_report(E.complex())
        assert h_betti(E) == {0: 1, 2: 1}
        assert all(not r["torsion"] for r in prof.values())
        w = formality_witness_trivial(E)
        assert w.validate() == []
        assert is_quasi_iso_dg(w).ok
    assert c["elapsed"] < 1.0


def test_criterion_2_one_point_stratification():
    with criterion("2 one-point stratification") as c:
        model = SphereModel(2)
        res = model.resolution_one_point()
        assert res.validate().ok
        E = res.end_algebra()
        assert {q: E.dim(q) for q in E.degrees()} == \
            {-1: 1, 0: 9, 1: 11, 2: 4}
        cc = E.complex()
        assert kernel_basis(cc.d(0)).cols == 3
        assert rank(cc.d(0)) == 6
        assert kernel_basis(cc.d(1)).cols == 8
        assert rank(cc.d(1)) == 3
        assert kernel_basis(cc.d(2)).cols == 4
        assert h_betti(E) == {0: 2, 1: 2, 2: 1}
        # the representative system is closed under multiplication: this is
        # exactly what the witness sub-algebra construction certifies
        w = formality_witness_one_point(E)
        assert w.validate() == []
        assert is_quasi_iso_dg(w).ok
        assert w.source.dims == {0: 2, 1: 2, 2: 1}
    assert c["elapsed"] < 1.0


def test_criterion_3_n_point_stratification():
    with criterion("3 n-point stratification, n = 2..20") as c:
        for n in range(2, 21):
            model = SphereModel(n)
            res = model.resolution_n_points()
            E = res.end_algebra()
            assert {q: E.dim(q) for q in E.degrees()} == \
                {-1: n, 0: 5 * n + 2, 1: 7 * n, 2: 2 * n}, n
            assert h_betti(E) == {0: n + 1, 1: 2 * n, 2: 1}, n
            chain = formality_chain_n_points(E, n)
            assert dict(chain.chain.algebras[1].dims) == \
                {0: 2 * n + 3, 1: 5 * n + 1, 2: 2 * n}, n
            assert chain.ideal.ranks() == {1: n - 1, 2: n - 1}, n
            assert cohomology(chain.ideal.restricted_complex()).is_zero(), n
            verdict = verify_formality_chain(chain.chain)
            assert verdict.ok, (n, verdict.arrow_reports, verdict.notes)
    assert c["elapsed"] < 10.0


def test_criterion_4_ext_vanishing():
    with criterion("4 Ext table, n = 2..6, q = 1..4") as c:
        for n in range(2, 7):
            model = SphereModel(n)
            reps = {s: model.closure_rep(s) for s in model.poset.strata}
            hom_table = model.hom_rank_table()
            for s in model.poset.strata:
                res = projective_resolution(reps[s])
                for t in model.poset.strata:
                    table = ext_all(reps[s], reps[t], 4, res)
                    assert table[0] == (hom_table[(s, t)], []), (n, s, t)
                    for q in (1, 2, 3, 4):
                        assert table[q] == (0, []), (n, s, t, q)
    assert c["elapsed"] < 30.0


def test_criterion_5_resolutions_exact():
    with criterion("5 stalkwise exactness of the three resolutions"):
        m2 = SphereModel(2)
        assert m2.resolution_trivial().validate().ok
        assert m2.resolution_one_point().validate().ok
        for n in range(2, 11):
            assert SphereModel(n).resolution_n_points().validate().ok, n


def test_criterion_6_de_rham_model():
    with criterion("6 de Rham model, n = 2..10") as c:
        for n in range(2, 11):
            dr = de_rham_model(n)
            A = dr.algebra
            assert A.total_dim() == 9, n
            assert validate_dg_algebra(A) == [], n
            idx = {lab: (q, i) for q, labs in A.labels.items()
                   for i, lab in enumerate(labs)}
            for a in ("tau_C", "tau_D"):
                for b in ("tau_C", "tau_D"):
                    prod = A.multiply(A.basis_element(*idx[a]),
                                      A.basis_element(*idx[b]))
                    assert prod[1] == {}, n
            dims = dr.h_entry_dims()
            assert dims == {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1}, n
            assert dr.h_algebra.total_dim() == 5, n
            assert dr.projection.validate() == [], n
            assert is_quasi_iso_dg(dr.projection).ok, n
    assert c["elapsed"] < 1.0


def test_criterion_7_property_suites():
    with criterion("7 property suites") as c:
        # Smith normal form invariants on 1000 random integer matrices
        rng = random.Random(20260809)
        for _ in range(1000):
            r = rng.randint(1, 20)
            cdim = rng.randint(1, 20)
            m = ExactMatrix.from_rows(
                [[rng.randint(-10, 10) for _ in range(cdim)]
                 for _ in range(r)])
            res = smith_normal_form(m)
            assert res.D == res.U @ m @ res.V
            assert determinant(res.U) in (1, -1)
            assert determinant(res.V) in (1, -1)
            diag = res.diagonal()
            nz = [d for d in diag if d != 0]
            assert diag[:len(nz)] == nz
            assert all(d >= 0 for d in diag)
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0

        # d^2 = 0 and Leibniz on every constructed dg algebra, plus the
        # Euler characteristic identity on the underlying complexes
        m2z = SphereModel(2)
        algebras = []
        E_trivial = m2z.resolution_trivial().end_algebra()
        algebras.append(E_trivial)
        algebras.append(m2z.resolution_one_point().end_algebra())
        for n in (2, 3, 4):
            En = SphereModel(n).resolution_n_points().end_algebra()
            chain = formality_chain_n_points(En, n)
            algebras.extend(chain.chain.algebras[:4])
        dr = de_rham_model(3)
        algebras.extend([dr.algebra, dr.h_algebra])
        for A in algebras:
            check_leibniz_and_d_squared(A)
            check_euler(A.complex())

        # End shift-invariance on the trivial resolution for shifts -2..2
        X = m2z.resolution_trivial().complex
        for k in (-2, -1, 0, 1, 2):
            E2 = end_dg_algebra(shift_complex_of_reps(X, k)) \
                if k else E_trivial
            comps = {}
            for mdeg in E_trivial.degrees():
                s = 1 if (k * mdeg) % 2 == 0 else -1
                comps[mdeg] = ExactMatrix.from_entries(
                    E2.dim(mdeg), E_trivial.dim(mdeg), (
                        (E2.hom.find(mdeg, l.kind, l.indices, l.p - k), i, s)
                        for i, l in enumerate(E_trivial.hom.labels(mdeg))),
                    ZZ)
            phi = DgMorphism(E_trivial, E2, comps)
            assert phi.validate() == [], k
            assert is_quasi_iso_dg(phi).ok, k

        # integer and rational runs agree on every Betti number
        for n in (2, 3):
            mz = SphereModel(n)
            mq = SphereModel(n, ring=QQ)
            makers = ["resolution_n_points"]
            if n == 2:
                makers += ["resolution_trivial", "resolution_one_point"]
            for maker in makers:
                Ez = getattr(mz, maker)().end_algebra()
                Eq = getattr(mq, maker)().end_algebra()
                assert h_betti(Ez) == h_betti(Eq), (n, maker)
                repz = cone_report(Ez.complex())
                assert all(not r["torsion"] for r in repz.values())
    assert c["elapsed"] < 60.0
