"""Seeded inputs for the compute-random workload.

The shape is fixed so that the work per instance stays nearly constant
across seeds: the number of strata in each dimension, the number of covers
of each edge and face, the number of representations and the total stalk
rank of their direct sum.  Only the incidences, the summands and the base
changes are random.  The program sees only the JSON files written here.
"""

import json
import random

SHAPES = {
    # points, edges, faces, representations, summands per representation,
    # total stalk rank of the direct sum in dimensions 0, 1 and 2
    "full": dict(points=3, edges=4, faces=2, reps=4, summands=2,
                 ranks=(8, 5, 3)),
    "smoke": dict(points=3, edges=2, faces=1, reps=2, summands=1,
                  ranks=(4, 2, 1)),
}


def _poset(rng, shape):
    points = [f"P{i + 1}" for i in range(shape["points"])]
    edges = [f"E{i + 1}" for i in range(shape["edges"])]
    faces = [f"F{i + 1}" for i in range(shape["faces"])]
    while True:
        ends = {e: set(rng.sample(points, 2)) for e in edges}
        # faces sit on two edges that share exactly one point, so that
        # every face has the same closure: 1 face, 2 edges, 3 points
        pairs = [(e1, e2) for i, e1 in enumerate(edges) for e2 in edges[i + 1:]
                 if len(ends[e1] | ends[e2]) == 3]
        if pairs:
            break
    covers = [[p, e] for e in edges for p in sorted(ends[e])]
    for f in faces:
        covers += [[e, f] for e in rng.choice(pairs)]
    strata = ([(p, 0) for p in points] + [(e, 1) for e in edges]
              + [(f, 2) for f in faces])
    return strata, covers


def _closure(covers, strata):
    """up[a] = the strata b with a <= b (reflexive, transitive)."""
    up = {s: {s} for s, _ in strata}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = up[b] - up[a]
            if new:
                up[a] |= new
                changed = True
    return up


def _hasse(covers, up):
    pairs = {(a, b) for a, b in covers}
    return sorted((a, b) for a, b in pairs
                  if not any(c not in (a, b) and c in up[a] and b in up[c]
                             for c in up[a]))


def _unimodular(rng, n):
    """(g, g^-1) as integer row lists, from a few elementary operations."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # g <- E g with E = I + c e_ij; g^-1 <- g^-1 E^-1
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= c * row[i]
    if rng.random() < 0.5:
        g[0] = [-x for x in g[0]]
        for row in ginv:
            row[0] = -row[0]
    return g, ginv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _summands(rng, shape, strata, up):
    """Summands (kind, stratum, support) for each representation.

    Random closure and projective summands are drawn while they fit, then
    padded with closures of edges and points and projectives of faces until
    the direct sum has exactly the shape's stalk rank in each dimension.
    """
    dim = dict(strata)
    down = {s: {a for a, _ in strata if s in up[a]} for s, _ in strata}
    names = [s for s, _ in strata]
    by_dim = {d: [s for s, e in strata if e == d] for d in (0, 1, 2)}
    need = list(shape["ranks"])
    picks = []
    for _ in range(shape["reps"] * shape["summands"]):
        for _ in range(100):
            s = rng.choice(names)
            kind = rng.choice(("closure", "projective"))
            supp = down[s] if kind == "closure" else up[s]
            left = [need[d] - sum(1 for t in supp if dim[t] == d)
                    for d in (0, 1, 2)]
            # an edge closure pads one edge with two points
            if min(left) >= 0 and left[0] >= 2 * left[1]:
                picks.append((kind, s, supp))
                need = left
                break
    for d, kind, count in ((1, "closure", need[1]),
                           (2, "projective", need[2]),
                           (0, "closure", need[0] - 2 * need[1])):
        for _ in range(count):
            s = rng.choice(by_dim[d])
            picks.append((kind, s, down[s] if kind == "closure" else up[s]))
    rng.shuffle(picks)
    return [picks[k::shape["reps"]] for k in range(shape["reps"])]


def _rep(rng, name, parts, hasse, strata):
    stalks = {}
    for s, _ in strata:
        at = [k for k, (_, _, supp) in enumerate(parts) if s in supp]
        if at:
            stalks[s] = at
    base = {s: _unimodular(rng, len(at)) for s, at in stalks.items()}
    arrows = {}
    for a, b in hasse:
        if a not in stalks or b not in stalks:
            continue
        src, dst = stalks[a], stalks[b]
        m = [[int(i == j) for j in src] for i in dst]
        if not any(any(row) for row in m):
            continue
        g_b, _ = base[b]
        _, ginv_a = base[a]
        arrows[f"({a},{b})"] = _matmul(_matmul(g_b, m), ginv_a)
    return {"name": name,
            "stalks": {s: len(at) for s, at in stalks.items()},
            "arrows": arrows}


def instance(seed, index, size="full"):
    """(poset document, reps document) for instance `index` of `seed`."""
    shape = SHAPES[size]
    rng = random.Random(f"compute-random/{size}/{seed}/{index}")
    strata, covers = _poset(rng, shape)
    up = _closure(covers, strata)
    hasse = _hasse(covers, up)
    per_rep = _summands(rng, shape, strata, up)
    reps = [_rep(rng, f"R{k + 1}", parts, hasse, strata)
            for k, parts in enumerate(per_rep)]
    poset = {"strata": [{"name": s, "dim": d} for s, d in strata],
             "covers": covers, "acyclicity_asserted": True}
    return poset, {"reps": reps}


def write_instance(seed, index, size, poset_path, reps_path):
    poset, reps = instance(seed, index, size)
    for path, doc in ((poset_path, poset), (reps_path, reps)):
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
