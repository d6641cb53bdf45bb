"""Brute-force verification over small prime fields.

Everything here enumerates honestly: the symplectic group by closure
from transvection generators, the exotic cone point by point, orbits
by union-find under the generator action.  Hard size gates (n <= 2,
p in {3, 5}, and no group listed with more than |Sp_4(F_3)| = 51,840
elements) keep the combinatorial explosion out; anything bigger
raises SizeGateError, before any enumeration, instead of silently
grinding.

The census is one serial labelling pass over every cone x in code
order, with v = 0 and one vector per line through 0: a label depends on
v only through the span of (commutant of x) . v, which c.v shares for
every c != 0, so each line is labelled once, at its smallest-code
vector, and counted p - 1 times.  The orbit check reuses these labels.
"""

import random

from . import classify
from .bicomb import format_bipartition
from .ffield import FpMatrix, _unflatten
from .symplectic import ExoticPair, SymplecticSpace

CENSUS_MAX_N = 2
CENSUS_PRIMES = (3, 5)
GROUP_MAX_ORDER = 51840  # |Sp_4(F_3)|; Sp_4(F_5) has 9,360,000 elements


class SizeGateError(ValueError):
    pass


def _gate(n, p):
    if n > CENSUS_MAX_N:
        raise SizeGateError("census is gated to n <= %d (got n=%d)" % (CENSUS_MAX_N, n))
    if p not in CENSUS_PRIMES:
        raise SizeGateError("census is gated to p in %r (got p=%d)" % (CENSUS_PRIMES, p))


def _gate_group(n, p):
    """Refuse to list Sp_2n(F_p) element by element when it is too large."""
    _gate(n, p)
    order = sp_group_order(n, p)
    if order > GROUP_MAX_ORDER:
        raise SizeGateError(
            "Sp_%d(F_%d) has %d elements; listing a group is gated to at "
            "most %d" % (2 * n, p, order, GROUP_MAX_ORDER))


def sp_group_order(n, q):
    """|Sp_2n(F_q)| = q^(n^2) prod_{i=1}^{n} (q^(2i) - 1)."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order


def gl_class_count(n, p):
    """Number of conjugacy classes of GL_n(F_p), n <= 2."""
    if n == 1:
        return p - 1
    if n == 2:
        return p * p - 1
    raise SizeGateError("class count implemented for n <= 2 only")


def transvection(space, u, c=1):
    """x -> x + c <x, u> u; symplectic for every u and c."""
    dim, p = space.dim, space.p
    cols = []
    for k in range(dim):
        e = [0] * dim
        e[k] = 1
        coeff = (c * space.pairing(tuple(e), u)) % p
        col = [(e[i] + coeff * u[i]) % p for i in range(dim)]
        cols.append(col)
    mat = FpMatrix._trusted(tuple(zip(*cols)), p)
    if not space.membership(mat, "H_group"):
        raise AssertionError("transvection along %r is not symplectic" % (u,))
    return mat


def sp_generators(space):
    """Transvections along e_i, f_i and e_i + f_j; generate Sp_2n(F_p)."""
    n = space.n
    gens = []
    frame = [space.e(i) for i in range(1, n + 1)]
    frame += [space.f(i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ei, fj = space.e(i), space.f(j)
            frame.append(tuple((a + b) % space.p for a, b in zip(ei, fj)))
    for u in frame:
        gens.append(transvection(space, u))
    return gens


def sp_group_elements(n, p):
    """All of Sp_2n(F_p) by breadth-first closure from the generators."""
    _gate_group(n, p)
    space = SymplecticSpace(n, p)
    gens = sp_generators(space)
    start = FpMatrix.identity(2 * n, p)
    seen = {start.entries: start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for t in gens:
                h = g * t
                if h.entries not in seen:
                    seen[h.entries] = h
                    nxt.append(h)
        frontier = nxt
    elements = list(seen.values())
    if len(elements) != sp_group_order(n, p):
        raise AssertionError(
            "closure found %d elements but |Sp_%d(F_%d)| = %d"
            % (len(elements), 2 * n, p, sp_group_order(n, p)))
    return elements


def self_adjoint_basis(space):
    """Basis of {x : x* = x}, of dimension 2n^2 - n."""
    dim, p = space.dim, space.p
    rows = []
    units = []
    for i in range(dim):
        for j in range(dim):
            m = [[0] * dim for _ in range(dim)]
            m[i][j] = 1
            units.append(FpMatrix._trusted(tuple(map(tuple, m)), p))
    images = [space.adjoint(u) - u for u in units]
    for i in range(dim):
        for j in range(dim):
            rows.append([img.entries[i][j] for img in images])
    ker = FpMatrix(rows, p).kernel_basis()
    basis = []
    for coeffs in ker.basis:
        m = [[0] * dim for _ in range(dim)]
        for val, unit in zip(coeffs, units):
            if val:
                for a in range(dim):
                    for b in range(dim):
                        m[a][b] = (m[a][b] + val * unit.entries[a][b]) % p
        basis.append(FpMatrix._trusted(tuple(map(tuple, m)), p))
    if len(basis) != 2 * space.n * space.n - space.n:
        raise AssertionError("self-adjoint basis has %d elements, expected %d"
                             % (len(basis), 2 * space.n * space.n - space.n))
    return basis


def _digits(code, p, k):
    """The k base-p digits of code, least significant first."""
    return [code // p ** i % p for i in range(k)]


def _decode_matrix(code, basis, space):
    dim, p = space.dim, space.p
    m = [[0] * dim for _ in range(dim)]
    for digit, b in zip(_digits(code, p, len(basis)), basis):
        if digit:
            for i in range(dim):
                row = b.entries[i]
                mi = m[i]
                for j in range(dim):
                    if row[j]:
                        mi[j] = (mi[j] + digit * row[j]) % p
    return FpMatrix._trusted(tuple(map(tuple, m)), p)


def self_adjoint_count(space):
    return space.p ** (2 * space.n * space.n - space.n)


def iter_self_adjoint(space):
    """Every self-adjoint matrix, in the fixed coordinate order."""
    basis = self_adjoint_basis(space)
    for code in range(self_adjoint_count(space)):
        yield _decode_matrix(code, basis, space)


def _is_nilpotent(x):
    return x.is_nilpotent()


def _is_unipotent(x):
    return (x - FpMatrix.identity(x.rows, x.p)).is_nilpotent()


def iter_vectors(space):
    dim, p = space.dim, space.p
    for code in range(p ** dim):
        yield tuple(_digits(code, p, dim))


def _cone_xs(space, flavor):
    """The self-adjoint x, in code order, that lie on the cone of the
    flavor: nilpotent for 'lie', unipotent for 'group'."""
    keep = _is_nilpotent if flavor == "lie" else _is_unipotent
    for x in iter_self_adjoint(space):
        if keep(x):
            yield x


def _line_reps(space):
    """(v, weight) for v = 0 (weight 1) and, on each line through 0, the
    smallest-code vector, whose last non-zero coordinate is 1 (weight
    p - 1); in code order."""
    reps = []
    for v in iter_vectors(space):
        if next((c for c in reversed(v) if c), 1) == 1:
            reps.append((v, space.p - 1 if any(v) else 1))
    return reps


def enumerate_exotic_nilcone(n, p, flavor="lie"):
    """Stream of exotic pairs (x self-adjoint nilpotent/unipotent, v),
    in a fixed deterministic order."""
    _gate(n, p)
    space = SymplecticSpace(n, p)
    for x in _cone_xs(space, flavor):
        for v in iter_vectors(space):
            yield ExoticPair._trusted(space, x, v, flavor)


def seeded_basis_change(space, seed):
    """A reproducible symplectic element: a seeded word in the generators."""
    rng = random.Random(seed)
    gens = sp_generators(space)
    g = FpMatrix.identity(space.dim, space.p)
    for _ in range(12):
        g = g * rng.choice(gens)
    return g


def _census_chunk(space, flavor, basis_seed, check_orbits):
    """Label counts and first representatives over the whole cone, with
    each point first carried to (g x g^-1, g v) under a seeded g when
    basis_seed is set.  With check_orbits it also returns the
    {(x entries, v): label} map of the line representatives it labelled,
    and None without.  (The name is kept for perfbench's layer trace.)"""
    lines = _line_reps(space)
    g = None
    if basis_seed:
        g = seeded_basis_change(space, basis_seed)
        gi = g.inverse()
        # g is linear, so it carries each line, and its weight, to a line
        lines = [(g.apply(v), weight) for v, weight in lines]
    counts = {}
    reps = {}
    labelled = {} if check_orbits else None
    for x in _cone_xs(space, flavor):
        if g is not None:
            x = g * x * gi
        labeler = classify.exotic_labeler(
            x if flavor == "lie" else space.log_map(x))
        for v, weight in lines:
            label = format_bipartition(labeler(v))
            counts[label] = counts.get(label, 0) + weight
            if label not in reps:
                reps[label] = (x.to_json(), list(v))
            if check_orbits:
                labelled[x.entries, v] = label
    return counts, reps, labelled


class CensusResult:
    def __init__(self, n, p, flavor, label_counts, total_points, reps,
                 orbit_checks=None):
        self.n = n
        self.p = p
        self.flavor = flavor
        self.label_counts = label_counts
        self.total_points = total_points
        self.reps = reps
        self.orbit_checks = orbit_checks or []

    def to_json(self):
        return {"n": self.n, "p": self.p, "flavor": self.flavor,
                "labels": dict(sorted(self.label_counts.items())),
                "total_points": self.total_points,
                "orbit_checks": self.orbit_checks}


def orbit_census(n, p, flavor="lie", check_orbits=False, basis_seed=0):
    """Count cone points per label; optionally verify orbit structure.

    One serial pass labels 0 and one vector per line for every cone x.
    check_orbits reuses those labels for the union-find transitivity
    test under the generator action, and adds the exact orbit-stabilizer
    comparison (this needs the full group, so it is the slow part).  A
    nonzero basis_seed classifies through a seeded symplectic change of
    basis; the counts must not change (conjugation invariance).
    """
    if check_orbits:
        _gate_group(n, p)
    else:
        _gate(n, p)
    space = SymplecticSpace(n, p)
    counts, reps, labelled = _census_chunk(space, flavor, basis_seed,
                                           check_orbits)
    result = CensusResult(n, p, flavor, counts, sum(counts.values()), reps)
    if check_orbits:
        result.orbit_checks = _orbit_checks(space, result, labelled)
    return result


class UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def class_count(self):
        return len({self.find(x) for x in self.parent})


def _generator_classes(space, points, move, what):
    """Union-find of `points` (a set or dict) under the generators of Sp,
    where move(point, g, g^-1) is the image of a point under g; an image
    outside `points` raises AssertionError naming `what`."""
    moves = [(g, g.inverse()) for g in sp_generators(space)]
    uf = UnionFind()
    for point in points:
        uf.add(point)
    for point in points:
        for g, gi in moves:
            moved = move(point, g, gi)
            if moved not in points:
                raise AssertionError("a generator moved a point off the %s" % what)
            uf.union(point, moved)
    return uf


def _orbit_checks(space, result, labelled):
    """Union-find transitivity plus orbit-stabilizer arithmetic per label.
    `labelled` maps the census's (x entries, v) to their labels, one v per
    line; each line's p - 1 multiples c.v share its label."""
    n, p = space.n, space.p
    points = {(xe, tuple(c * a % p for a in v)): label
              for (xe, v), label in labelled.items() for c in range(1, p)}
    conjugates = {}  # (x entries, id(g)) -> g x g^-1: one per x, not per (x, v)

    def move(pt, g, gi):
        xe, v = pt
        key = (xe, id(g))
        if key not in conjugates:
            conjugates[key] = (g * FpMatrix._trusted(xe, p) * gi).entries
        return conjugates[key], g.apply(v)

    uf = _generator_classes(space, points, move, "cone")
    roots_per_label = {}
    for key, label in points.items():
        roots_per_label.setdefault(label, set()).add(uf.find(key))

    group = sp_group_elements(n, p)
    order = sp_group_order(n, p)
    checks = []
    for label, count in sorted(result.label_counts.items()):
        xj, vj = result.reps[label]
        x = FpMatrix.from_json(xj)
        v = tuple(vj)
        stab = _stabilizer_order(group, x, v)
        checks.append({
            "label": label,
            "count": count,
            "stabilizer_order": stab,
            "orbit_stabilizer_ok": stab * count == order,
            "transitive": len(roots_per_label[label]) == 1,
        })
    return checks


def _stabilizer_order(group, x, v):
    count = 0
    for g in group:
        if g.apply(v) == v and g * x == x * g:
            count += 1
    return count


def stabilizer_census(pair):
    """|{g in Sp : g x g^-1 = x, g v = v}| by enumeration (n <= 2)."""
    space = pair.space
    group = sp_group_elements(space.n, space.p)
    return _stabilizer_order(group, pair.x, pair.v)


def klyachko_census(n, p):
    """Count H-orbits on the invertible self-adjoint locus.

    The orbit count must equal the number of GL_n(F_p) conjugacy
    classes, and every orbit must contain an embedded diag(x, x^T).
    """
    _gate(n, p)
    space = SymplecticSpace(n, p)
    points = {x.entries: x for x in iter_self_adjoint(space) if x.is_invertible()}
    uf = _generator_classes(space, points,
                            lambda xe, g, gi: (g * points[xe] * gi).entries,
                            "invertible self-adjoint locus")
    orbit_count = uf.class_count()
    expected = gl_class_count(n, p)

    covered = set()
    for g in _iter_gl(n, p):
        embedded = space.klyachko_embed(space.embed_gl(g))
        covered.add(uf.find(embedded.entries))
    all_roots = {uf.find(xe) for xe in points}

    return {
        "n": n, "p": p,
        "points": len(points),
        "orbit_count": orbit_count,
        "gl_class_count": expected,
        "count_matches": orbit_count == expected,
        "every_orbit_hit_by_embedding": covered == all_roots,
    }


def _iter_gl(n, p):
    for code in range(p ** (n * n)):
        m = FpMatrix._trusted(_unflatten(_digits(code, p, n * n), n, n), p)
        if m.is_invertible():
            yield m
