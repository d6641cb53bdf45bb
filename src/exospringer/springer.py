"""The Springer table and the inductive determination of the correspondence.

The correspondence pairs the orbit labelled by a bipartition with the
irreducible of the same label.  determine_correspondence re-derives
this instead of assuming it: base axioms pin the open orbit to the
identity representation and the point orbit to the sign representation
at every rank, the geometric branching constraint (each orbit's
representation restricts to exactly the sum over its removable-node
predecessors) is imposed, and the resulting assignment problem is
solved by exhaustion.  Uniqueness failures raise instead of being
silently resolved.
"""

from dataclasses import dataclass

from . import bicomb, hyperoct
from .bicomb import Bipartition, bipartitions_of, fiber_dim_d, orbit_dim, \
    removable_nodes


class AmbiguousAssignmentError(RuntimeError):
    pass


@dataclass
class OrbitRecord:
    label: Bipartition
    orbit_dim: int
    d: int
    irrep: Bipartition
    irrep_dim: int
    covers: tuple  # labels directly below in the closure order
    census_count: int | None = None

    def to_json(self):
        out = {"label": str(self.label), "dim_orbit": self.orbit_dim,
               "d": self.d, "irrep": str(self.irrep),
               "irrep_dim": self.irrep_dim,
               "covers": [str(c) for c in self.covers]}
        if self.census_count is not None:
            out["census_count"] = self.census_count
        return out


@dataclass
class SpringerTable:
    n: int
    records: tuple

    def to_json(self):
        return {"n": self.n, "rows": [r.to_json() for r in self.records]}

    def record(self, label):
        for r in self.records:
            if r.label == label:
                return r
        raise KeyError(label)


def springer_table(n):
    """All orbit rows at rank n, labels doubling as irrep labels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    covers_down = {}
    for lower, upper in bicomb.hasse_covers(n):
        covers_down.setdefault(upper, []).append(lower)
    records = []
    for label in bipartitions_of(n):
        records.append(OrbitRecord(
            label=label,
            orbit_dim=orbit_dim(label, n),
            d=fiber_dim_d(label, n),
            irrep=label,
            irrep_dim=hyperoct.irrep_dim(label),
            covers=tuple(sorted(covers_down.get(label, []),
                                key=Bipartition.sort_key)),
        ))
    # fiber_dim_d has checked dim + 2d = 2n^2 for every row
    if not sum_squares_check(n):
        raise AssertionError("squared irrep dims do not sum to |W_%d| = %d"
                             % (n, hyperoct.wn_order(n)))
    return SpringerTable(n, tuple(records))


def _branch_children(n):
    """label -> frozenset of labels appearing in its restriction (from
    characters, multiplicity-free checked)."""
    matrix = hyperoct.restrict_branching(n)
    out = {}
    for label, row in matrix.items():
        if not all(v in (0, 1) for v in row.values()):
            raise AssertionError("branching of %s is not multiplicity-free"
                                 % (label,))
        out[label] = frozenset(k for k, v in row.items() if v == 1)
    return out


def _count_matchings(candidates):
    """Number of perfect matchings, counted up to 2 (enough to tell a
    unique one), plus one witness matching."""
    orbits = sorted(candidates, key=Bipartition.sort_key)
    found = []

    def backtrack(assigned, used):
        if len(found) >= 2:
            return
        if len(assigned) == len(orbits):
            found.append(dict(assigned))
            return
        # most-constrained orbit first
        pending = [o for o in orbits if o not in assigned]
        pick = min(pending, key=lambda o: len(candidates[o] - used))
        for irrep in sorted(candidates[pick] - used, key=Bipartition.sort_key):
            assigned[pick] = irrep
            backtrack(assigned, used | {irrep})
            del assigned[pick]

    backtrack({}, frozenset())
    return len(found), (found[0] if found else None)


def determine_correspondence(n_max):
    """Re-derive the orbit <-> irrep bijection for each rank <= n_max.

    Returns {rank: {orbit label: irrep label}}.  Raises
    AmbiguousAssignmentError if the constraints ever admit zero or
    several bijections; checks that the unique solution is the identity.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    solution = {}
    prev = {Bipartition((), ()): Bipartition((), ())}
    for n in range(1, n_max + 1):
        labels = bipartitions_of(n)
        branch = _branch_children(n)
        candidates = {}
        for orbit in labels:
            # representation forced on the orbit: restriction must equal
            # the sum of the (already determined) reps one rank down
            required = frozenset(prev[child]
                                 for _, _, child in removable_nodes(orbit))
            candidates[orbit] = {irrep for irrep in labels
                                 if branch[irrep] == required}
        # base axioms, available at every rank
        trivial = Bipartition((n,), ())
        sign = Bipartition((), (1,) * n)
        axioms = {trivial: trivial, sign: sign}
        for orbit, irrep in axioms.items():
            if irrep not in candidates[orbit]:
                raise AmbiguousAssignmentError(
                    "axiom %s -> %s conflicts with branching at rank %d"
                    % (orbit, irrep, n))
            candidates[orbit] = {irrep}
        count, witness = _count_matchings(candidates)
        if count != 1:
            raise AmbiguousAssignmentError(
                "rank %d admits %s bijections" % (n, "no" if count == 0 else str(count)))
        if any(witness[label] != label for label in labels):
            raise AssertionError("constraint solution differs from the identity map")
        solution[n] = witness
        prev = witness
    return solution


def verify_restriction(n):
    """Compare the character-side branching against removable nodes.

    Returns a (possibly empty) list of mismatch reports; entries not in
    {0, 1} are reported too.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    matrix = hyperoct.restrict_branching(n)
    report = []
    for label in bipartitions_of(n):
        removal_set = {r for _, _, r in removable_nodes(label)}
        for other in bipartitions_of(n - 1):
            got = matrix[label][other]
            expected = 1 if other in removal_set else 0
            if got != expected:
                report.append({"check": "restriction", "n": n,
                               "instance": "%s -> %s" % (label, other),
                               "expected": expected, "got": got})
    return report


def d_difference_check(n):
    """Exact law d(label) - d(child) = 2r - 2 or 2r - 1 per removal row r."""
    if n < 2:
        raise ValueError("n must be >= 2")
    report = []
    for label in bipartitions_of(n):
        d_here = fiber_dim_d(label, n)
        for comp, row, child in removable_nodes(label):
            expected = 2 * row - 2 if comp == 1 else 2 * row - 1
            got = d_here - fiber_dim_d(child, n - 1)
            if got != expected:
                report.append({"check": "d-difference", "n": n,
                               "instance": "%s remove comp %d row %d" % (label, comp, row),
                               "expected": expected, "got": got})
    return report


def sum_squares_check(n):
    """Sum of squared irreducible dimensions == |W_n| (exact)."""
    total = sum(hyperoct.irrep_dim(label) ** 2 for label in bipartitions_of(n))
    return total == hyperoct.wn_order(n)
