"""Inputs for `compute` on two families of posets, as the JSON documents
the CLI reads.

- The cell model of the d-sphere: the strata Ak and Bk (the cells e_k^+
  and e_k^-, of dimension k) for k = 0..d, where every k-cell lies in the
  closure of both (k+1)-cells.  It is the iterated suspension of S^0, and at
  d = 2 it is the poset of `SphereModel(2)`.  Its reps are the skyscraper S
  at A0 and the constant representation C.
- The Boolean lattice B_k: the subsets of {0..k-1} under inclusion, named
  "b" followed by their sorted elements, with the constant representation.

Run as a script to write one pair of files:
    python tests/cell_models.py sphere 4 poset.json reps.json
    python tests/cell_models.py boolean 4 poset.json reps.json
"""

import itertools
import json
import sys


def boolean_lattice(k: int):
    """(strata, covers) of B_k: strata as (name, dim) and covers as
    (smaller, larger) name pairs."""
    subsets = [frozenset(c) for r in range(k + 1)
               for c in itertools.combinations(range(k), r)]
    name = lambda s: "b" + "".join(str(i) for i in sorted(s))
    covers = [(name(s), name(s | {i})) for s in subsets for i in range(k)
              if i not in s]
    return [(name(s), len(s)) for s in subsets], covers


def sphere_cells(d: int):
    """(strata, covers) of the cell model of S^d."""
    strata = [(f"{s}{k}", k) for k in range(d + 1) for s in "AB"]
    covers = [(f"{s}{k}", f"{t}{k + 1}") for k in range(d)
              for s in "AB" for t in "AB"]
    return strata, covers


def _documents(strata, covers, skyscraper=None):
    """(poset, reps) documents: the constant rank-1 representation C, after
    the rank-1 skyscraper S at the given stratum when there is one."""
    poset = {"strata": [{"name": s, "dim": k} for s, k in strata],
             "covers": [list(c) for c in covers],
             "acyclicity_asserted": True}
    constant = {"name": "C", "stalks": {s: 1 for s, _ in strata},
                "arrows": {f"({a},{b})": [[1]] for a, b in covers}}
    reps = [constant]
    if skyscraper is not None:
        reps.insert(0, {"name": "S", "stalks": {skyscraper: 1}, "arrows": {}})
    return poset, {"reps": reps}


def sphere_documents(d: int):
    """(poset, reps) for `compute` on S^d: S at A0, then C."""
    return _documents(*sphere_cells(d), skyscraper="A0")


def boolean_documents(k: int):
    """(poset, reps) for `compute` on B_k with C alone."""
    return _documents(*boolean_lattice(k))


def write_documents(docs, poset_path, reps_path):
    for path, doc in zip((poset_path, reps_path), docs):
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)


if __name__ == "__main__":
    family, size, poset_path, reps_path = sys.argv[1:]
    make = {"sphere": sphere_documents, "boolean": boolean_documents}[family]
    write_documents(make(int(size)), poset_path, reps_path)
