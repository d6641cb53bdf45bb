"""The Springer table and the inductive determination of the correspondence.

springer_table returns the table as the JSON rows that `springer`
prints.  The correspondence pairs the orbit labelled by a bipartition
with the irreducible of the same label; determine_correspondence
re-derives this instead of assuming it: base axioms pin the open orbit
to the identity representation and the point orbit to the sign
representation at every rank, the geometric branching constraint (each
orbit's representation restricts to exactly the sum over its
removable-node predecessors) is imposed, and the resulting assignment
problem is solved by exhaustion.  Uniqueness failures raise instead of
being silently resolved.  The per-rank checks (verify_restriction,
d_difference_check, sum_squares_check) return lists of mismatch reports,
each built by mismatch, which also builds every record of the CLI's
verify suites.
"""

from . import bicomb, hyperoct
from .bicomb import Bipartition, bipartitions_of, fiber_dim_d, orbit_dim, \
    removable_nodes


class AmbiguousAssignmentError(RuntimeError):
    pass


def springer_table(n):
    """The Springer table at rank n as the JSON rows `springer` prints:
    one dict per label, in bipartitions_of(n) order, each label doubling
    as its irrep's label, and every label a str."""
    if n < 1:
        raise ValueError("n must be >= 1")
    covers_down = {}        # each upper's lowers, in bipartitions_of order
    for lower, upper in bicomb.hasse_covers(n):
        covers_down.setdefault(upper, []).append(str(lower))
    rows = [{"label": str(label), "dim_orbit": orbit_dim(label, n),
             "d": fiber_dim_d(label, n), "irrep": str(label),
             "irrep_dim": hyperoct.irrep_dim(label),
             "covers": covers_down.get(label, [])}
            for label in bipartitions_of(n)]
    # fiber_dim_d has checked dim + 2d = 2n^2 for every row
    if sum_squares_check(n):
        raise AssertionError("squared irrep dims do not sum to |W_%d| = %d"
                             % (n, hyperoct.wn_order(n)))
    return rows


def _count_matchings(candidates):
    """Number of perfect matchings of {orbit: set of irreps}, counted up to
    2 (enough to tell a unique one), plus one witness matching.

    Orbits and irreps are indexed once by their sort_key order, and each
    candidate set is an int bitmask over the irrep positions.  Depth-first,
    the pending orbit with the fewest free candidates, (mask & ~used)
    .bit_count(), is picked next (the first in sort_key order on a tie),
    and its free irreps are tried in ascending bit order.  The search keeps
    its own stack, one frame per picked orbit, so its depth is not bound by
    Python's recursion limit.  The witness lists its orbits in the order
    they were picked.
    """
    orbits = sorted(candidates, key=Bipartition.sort_key)
    irreps = sorted(set().union(*candidates.values()), key=Bipartition.sort_key)
    bit = {irrep: 1 << k for k, irrep in enumerate(irreps)}
    masks = [sum(bit[irrep] for irrep in candidates[orbit]) for orbit in orbits]
    found = []
    frames = []  # [orbit, its untried free irreps, the rest pending, used, tried]
    pending, used = list(range(len(orbits))), 0
    while True:
        if pending:
            # most-constrained orbit first
            pick = min(pending, key=lambda o: (masks[o] & ~used).bit_count())
            frames.append([pick, masks[pick] & ~used,
                           [o for o in pending if o != pick], used, 0])
        else:
            found.append({orbits[o]: irreps[tried.bit_length() - 1]
                          for o, _, _, _, tried in frames})
            if len(found) == 2:
                break
        while frames and not frames[-1][1]:
            frames.pop()
        if not frames:
            break
        frame = frames[-1]
        low = frame[1] & -frame[1]
        frame[1] ^= low
        frame[4] = low
        pending, used = frame[2], frame[3] | low
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
        # irreps by the set of labels in their restriction
        by_restriction = {}
        for irrep, row in hyperoct.restrict_branching(n).items():
            if not all(v in (0, 1) for v in row.values()):
                raise AssertionError("branching of %s is not multiplicity-free"
                                     % (irrep,))
            below = frozenset(k for k, v in row.items() if v == 1)
            by_restriction.setdefault(below, set()).add(irrep)
        candidates = {}
        for orbit in labels:
            # representation forced on the orbit: restriction must equal
            # the sum of the (already determined) reps one rank down
            required = frozenset(prev[child]
                                 for _, _, child in removable_nodes(orbit))
            candidates[orbit] = by_restriction.get(required, set())
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


def mismatch(check, n, instance, expected, got):
    """One mismatch record of a verify report."""
    return {"check": check, "n": n, "instance": instance,
            "expected": expected, "got": got}


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
                report.append(mismatch("restriction", n, "%s -> %s"
                                       % (label, other), expected, got))
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
                report.append(mismatch("d-difference", n, "%s remove comp %d row %d"
                                       % (label, comp, row), expected, got))
    return report


def sum_squares_check(n):
    """Sum of squared irreducible dimensions == |W_n| (exact): [], or one
    mismatch report whose `got` is the sum."""
    total = sum(hyperoct.irrep_dim(label) ** 2 for label in bipartitions_of(n))
    if total == hyperoct.wn_order(n):
        return []
    return [mismatch("sum-squares", n, "sum of squared dims",
                     hyperoct.wn_order(n), total)]
