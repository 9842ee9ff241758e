"""Bounded cochain complexes of free modules.

Complexes carry per-degree ranks, optional basis labels, and differentials
d^q: C^q -> C^(q+1).  Cohomology is computed exactly as ker/im subquotients;
quasi-isomorphisms are detected through acyclicity of the mapping cone, for
which a rank-and-invariant-factor check avoids transform bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .exact_linalg import (
    CoeffRing,
    ExactMatrix,
    SubquotientModule,
    invariant_factors,
    kernel_basis,
    subquotient,
)


class ChainComplex:
    """Bounded complex of finitely generated free modules."""

    def __init__(self, ring: CoeffRing, ranks: Dict[int, int],
                 differentials: Dict[int, ExactMatrix],
                 labels: Optional[Dict[int, list]] = None):
        self.ring = ring
        self.ranks = {q: r for q, r in ranks.items() if r}
        self.differentials = {
            q: d for q, d in differentials.items()
            if d.rows or d.cols
        }
        self.labels = labels or {}

    def rank(self, q: int) -> int:
        return self.ranks.get(q, 0)

    def degrees(self) -> List[int]:
        return sorted(self.ranks)

    def support(self) -> range:
        degs = self.degrees()
        if not degs:
            return range(0, 0)
        return range(degs[0], degs[-1] + 1)

    def d(self, q: int) -> ExactMatrix:
        m = self.differentials.get(q)
        if m is None:
            return ExactMatrix.zeros(self.rank(q + 1), self.rank(q), self.ring)
        return m


def validate_complex(C: ChainComplex) -> list:
    """All shape and d.d = 0 violations; empty list means valid."""
    problems = []
    for q in list(C.differentials):
        d = C.d(q)
        if d.shape != (C.rank(q + 1), C.rank(q)):
            problems.append(f"differential at degree {q} has shape "
                            f"{d.shape}, expected {(C.rank(q + 1), C.rank(q))}")
    for q in C.degrees():
        d0, d1 = C.d(q), C.d(q + 1)
        if d0.cols and d1.rows and d0.rows == d1.cols:
            if not (d1 @ d0).is_zero():
                problems.append(f"d.d != 0 at degree {q}")
    return problems


@dataclass
class CohomologyProfile:
    """Per-degree subquotients H^q = ker d^q / im d^(q-1)."""

    ring: CoeffRing
    modules: Dict[int, SubquotientModule]

    def betti(self, q: int) -> int:
        m = self.modules.get(q)
        return m.betti if m else 0

    def torsion(self, q: int) -> list:
        m = self.modules.get(q)
        return list(m.torsion) if m else []

    def is_zero(self) -> bool:
        return all(m.is_zero for m in self.modules.values())


def cohomology(C: ChainComplex) -> CohomologyProfile:
    """Exact cohomology with representative lifts in every degree.

    Complexes are immutable by convention, so the profile is memoized on
    the instance.
    """
    cached = getattr(C, "_cohomology_profile", None)
    if cached is not None:
        return cached
    problems = validate_complex(C)
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    modules = {}
    for q in C.support():
        if not C.rank(q):
            continue
        ker = kernel_basis(C.d(q))
        im = C.d(q - 1)
        modules[q] = subquotient(ker, im)
    profile = CohomologyProfile(C.ring, modules)
    C._cohomology_profile = profile
    return profile


def cone_report(C: ChainComplex) -> Dict[int, dict]:
    """Per-degree betti/torsion of C computed from invariant factors only."""
    ranks = {}
    torsion = {}
    for q, d in C.differentials.items():
        factors = invariant_factors(d)
        ranks[q] = len(factors)
        torsion[q + 1] = [f for f in factors if f != 1]
    report = {}
    for q in C.support():
        n = C.rank(q)
        if not n:
            continue
        report[q] = {
            "betti": n - ranks.get(q, 0) - ranks.get(q - 1, 0),
            "torsion": torsion.get(q, []),
        }
    return report


class ChainMap:
    """Degree-wise map of complexes commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Dict[int, ExactMatrix]):
        self.source = source
        self.target = target
        self.components = {q: f for q, f in components.items()
                           if f.rows or f.cols}

    def component(self, q: int) -> ExactMatrix:
        f = self.components.get(q)
        if f is None:
            return ExactMatrix.zeros(self.target.rank(q), self.source.rank(q),
                                     self.source.ring)
        return f

    def validate(self) -> list:
        problems = []
        for q, f in self.components.items():
            want = (self.target.rank(q), self.source.rank(q))
            if f.shape != want:
                problems.append(f"component at degree {q} has shape "
                                f"{f.shape}, expected {want}")
        if problems:
            return problems
        degs = set(self.source.degrees()) | set(self.target.degrees())
        for q in degs:
            lhs = self.target.d(q) @ self.component(q)
            rhs = self.component(q + 1) @ self.source.d(q)
            if not (lhs - rhs).is_zero():
                problems.append(f"does not commute with d at degree {q}")
        return problems

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self . other (other first)."""
        if other.target is not self.source and \
                other.target.ranks != self.source.ranks:
            raise ValueError("chain maps not composable")
        comps = {}
        for q in set(self.source.degrees()) | set(other.source.degrees()):
            m = self.component(q) @ other.component(q)
            if m.rows and m.cols:
                comps[q] = m
        return ChainMap(other.source, self.target, comps)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)^q = source^(q+1) (+) target^q with
    d(x, y) = (-d_src x, f(x) + d_tgt y)."""
    problems = f.validate()
    if problems:
        raise ValueError("invalid chain map: " + "; ".join(problems))
    X, Y = f.source, f.target
    ring = X.ring
    ranks = {}
    degs = set()
    for q in X.degrees():
        degs.add(q - 1)
    degs.update(Y.degrees())
    for q in degs:
        r = X.rank(q + 1) + Y.rank(q)
        if r:
            ranks[q] = r
    diffs = {}
    for q in sorted(ranks):
        rows = X.rank(q + 2) + Y.rank(q + 1)
        cols = ranks[q]
        if not rows or not cols:
            continue
        top = ExactMatrix.hstack(
            [-X.d(q + 1), ExactMatrix.zeros(X.rank(q + 2), Y.rank(q), ring)],
            ring=ring) if X.rank(q + 2) else None
        bottom = ExactMatrix.hstack(
            [f.component(q + 1), Y.d(q)], ring=ring) if Y.rank(q + 1) else None
        blocks = [b for b in (top, bottom) if b is not None]
        diffs[q] = ExactMatrix.vstack(blocks, ring=ring)
    cone = ChainComplex(ring, ranks, diffs)
    bad = validate_complex(cone)
    if bad:
        raise AssertionError("mapping cone failed validation: " + "; ".join(bad))
    return cone


@dataclass
class QuasiIsoReport:
    ok: bool
    cone_profile: Dict[int, dict]

    def __bool__(self):
        return self.ok


def is_quasi_iso(f: ChainMap) -> QuasiIsoReport:
    """True iff the mapping cone is acyclic (betti and torsion zero)."""
    cone = mapping_cone(f)
    report = cone_report(cone)
    ok = all(r["betti"] == 0 and not r["torsion"] for r in report.values())
    return QuasiIsoReport(ok, report)


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """C[k]^q = C^(q+k), differentials scaled by (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    ranks = {q - k: r for q, r in C.ranks.items()}
    diffs = {}
    for q, d in C.differentials.items():
        diffs[q - k] = d if sign == 1 else -d
    labels = {q - k: ls for q, ls in C.labels.items()}
    return ChainComplex(C.ring, ranks, diffs, labels)


def identity_chain_map(C: ChainComplex) -> ChainMap:
    comps = {q: ExactMatrix.identity(C.rank(q), C.ring) for q in C.degrees()}
    return ChainMap(C, C, comps)
