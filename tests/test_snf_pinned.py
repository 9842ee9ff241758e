"""Pinned Smith transforms: `_snf_any(M, transforms=True)` on fixed
matrices, recorded as literals.

Kernel bases are trailing columns of V, and solves and cohomology read U,
so every output byte rests on the exact U, V and D the Smith engine returns,
not only on D.  Any change to the pivot rule or to the row and column
updates shows up here directly, before it reaches the golden tables.
"""

from fractions import Fraction as F

import pytest

from strathom.exact_linalg import QQ, ZZ, ExactMatrix, _snf_any

from test_exact_linalg import assert_exact

B40 = 2 ** 40

# (rows, ring, number of columns)
CASES = {
    # vertex-edge incidence of K4 (rows: edges, columns: vertices)
    "incidence-k4": ([[-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1],
                      [0, -1, 1, 0], [0, -1, 0, 1], [0, 0, -1, 1]], ZZ, 4),
    # boundary of the triangle, transposed: a cycle of rank 2
    "incidence-cycle": ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], ZZ, 3),
    # factors 1, 2, 6 mixed by unimodular row and column operations
    "planted-2-6": ([[1, 2, 0, 1], [1, 4, 6, 1], [0, 2, 12, 0],
                     [2, 4, 6, 2]], ZZ, 4),
    "fix-up": ([[2, 0], [0, 3]], ZZ, 2),
    "negative-pivot": ([[-4, 6], [10, -14], [6, -9]], ZZ, 2),
    "unit-off-corner": ([[3, 5, 1], [7, -1, 2]], ZZ, 3),
    "wide-entries": ([[B40 + 1, 2 * B40, 3], [3, B40 + 7, -B40],
                      [5, 2 ** 62, 2 ** 62 + 1]], ZZ, 3),
    "zero-lines": ([[0, 0, 0, 0, 0], [0, 2, 0, 4, 0], [0, 0, 0, 0, 0],
                    [0, 3, 0, -1, 0]], ZZ, 5),
    "all-zero": ([[0, 0, 0], [0, 0, 0]], ZZ, 3),
    "empty-rows": ([], ZZ, 3),
    "empty-cols": ([[], [], []], ZZ, 0),
    "q-mixed-denominators": ([[F(1, 2), F(2, 3), 0], [F(3, 4), 0, F(-5, 6)],
                              [1, F(1, 3), F(1, 5)]], QQ, 3),
    "q-rank-deficient": ([[F(1, 2), 1], [1, 2], [0, F(1, 7)]], QQ, 2),
    "q-wide-denominator": ([[F(3, B40 + 1), F(1, 2), 0],
                            [F(2, 3), F(-1, B40 - 1), F(5, 7)]], QQ, 3),
}

# (U, V, D, diag) as recorded
PINNED = {
    "incidence-k4": (
        [[-1, 0, 0, 0, 0, 0],
         [1, -1, 0, 0, 0, 0],
         [0, 1, -1, 0, 0, 0],
         [1, -1, 0, 1, 0, 0],
         [1, 0, -1, 0, 1, 0],
         [0, 1, -1, 0, 0, 1]],
        [[1, 1, 1, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 0],
         [0, 0, 0, 0],
         [0, 0, 0, 0]],
        [1, 1, 1, 0]),
    "incidence-cycle": (
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [1, 1, 0]),
    "planted-2-6": (
        [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0], [-3, 1, -1, 1]],
        [[1, -2, 6, -1], [0, 1, -3, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 0]],
        [1, 2, 6, 0]),
    "fix-up": (
        [[1, 1], [3, 2]],
        [[-1, 3], [1, -2]],
        [[1, 0], [0, 6]],
        [1, 6]),
    "negative-pivot": (
        [[-1, 0, -1], [2, 1, 0], [-3, 0, -2]],
        [[1, 3], [1, 2]],
        [[1, 0], [0, 2], [0, 0]],
        [1, 2]),
    "unit-off-corner": (
        [[1, 0], [-2, 1]],
        [[0, 1, 11], [0, 0, 1], [1, -3, -38]],
        [[1, 0, 0], [0, 1, 0]],
        [1, 1]),
    "wide-entries": (
        [[-366503875925, -1, 0],
         [1332548620109333521,
          -488384040063088018925067158107,
          -116439828887722019867699],
         [-13835063552840302595,
          5070602400917529293104751837170,
          1208925819615728686333961]],
        [[0, 1, 1073967861739658593602159002557775244841085],
         [0, 0, 1],
         [1,
          402975273204876391568728,
          432782492497795836857629905745945756436844321800612672891502603263]],
        [[1, 0, 0],
         [0, 1, 0],
         [0, 0, 11150372599280523367090339299572479806144414]],
        [1, 1, 11150372599280523367090339299572479806144414]),
    "zero-lines": (
        [[0, 0, 0, -1], [0, 1, 0, 4], [0, 0, 1, 0], [1, 0, 0, 0]],
        [[0, 0, 0, 1, 0],
         [0, 1, 0, 0, 0],
         [0, 0, 1, 0, 0],
         [1, 3, 0, 0, 0],
         [0, 0, 0, 0, 1]],
        [[1, 0, 0, 0, 0], [0, 14, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
        [1, 14, 0, 0]),
    "all-zero": (
        [[1, 0], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0]],
        [0, 0]),
    "empty-rows": (
        [],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [],
        []),
    "empty-cols": (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [],
        [[], [], []],
        []),
    "q-mixed-denominators": (
        [[6, 0, 0], [-234, -12, -45], [F(127, 93), F(2, 31), F(25, 93)]],
        [[-1, 0, 4], [1, 0, -3], [0, 1, 171]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [1, 1, 1]),
    "q-rank-deficient": (
        [[2, 0, 0], [0, 0, 7], [-2, 1, 0]],
        [[1, -2], [0, 1]],
        [[1, 0], [0, 1], [0, 0]],
        [1, 1]),
    "q-wide-denominator": (
        [[1880551274956822835072568, -7696581394425],
         [5304709646610530131843881772081522377741194212378,
          -21710723931133880135708596954500606525]],
        [[-470137818739205708768145,
          -1196132953798592626468852,
          6044629098073145873530875],
         [1, 6527259504569, -32985348833250],
         [0, 1116390756878686451370937, -5641653824868269481962192]],
        [[1, 0, 0], [0, 1, 0]],
        [1, 1]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_smith_transforms_are_pinned(name):
    rows, ring, cols = CASES[name]
    m = ExactMatrix.from_rows(rows, ring, cols=cols)
    U, V, D, diag = _snf_any(m, transforms=True)
    assert [U.tolist(), V.tolist(), D.tolist(), diag] == list(PINNED[name])
    assert D == U @ m @ V
    assert_exact(U.entries + V.entries + D.entries + diag, ring,
                 canonical=True)
