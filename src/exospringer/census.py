"""Brute-force verification over small prime fields.

Everything here enumerates honestly: the symplectic group by closure
from transvection generators, the exotic cone point by point.  Hard size
gates keep the combinatorial explosion out: the census, its orbit check
and the Klyachko count are gated to n <= 2 and p in {3, 5}, and listing
the group (`sp_group_elements`, `stabilizer_census`) to at most
|Sp_4(F_3)| = 51,840 elements.  Anything bigger raises SizeGateError,
before any enumeration, instead of silently grinding.

Points are integer codes: base-p digits, a vector's coordinates or a
self-adjoint x's entries at the leading (i, j) of `adjoint_units(1)`.
`_linear_rows` enumerates every F_p^k in code order, so a point's code
is its position, made once; `_entry_rows` holds each entry of x, one
row per entry, at every code.  Each generator of Sp acts on codes as two
permutation tables, built per call by linearity.  Orbits are union-find
classes of point ints k p^(2n) + v-code, k the position of x on the locus.

The census is one serial labelling pass over every cone x in code
order, with v = 0 and one vector per line through 0: a label depends on
v only through the span of (commutant of x) . v, which c.v shares for
every c != 0, so each line is labelled once, at its smallest-code
vector, and counted p - 1 times.  A seed moves these line vectors only:
x -> g x g^-1 permutes the cone, so the points (x, g v) are the points
(g x g^-1, g v) in another order.  The orbit check reuses the labels.
The line vectors are packed once per pass, coordinate i of the k-th
vector as byte k of one int (`classify.packed_labeler`), so each row of
a cone x's chain basis meets every vector in one big-int sum, whose
bytes are the dot products: at most 2n (p - 1)^2 = 64 < 256 at (2, 5),
so none carries.  The nonzero bytes, kept at each chain's first nonzero
row, make one pattern byte per vector (2n <= 8 rows), and the label
depends only on (chain lengths, pattern): one pass-level dict names it.
The cone scan first reads the trace of every code, one sum of the
diagonal entry rows: a nilpotent x has trace 0 and a unipotent one 2n,
so only the p^(d-1) codes of that hyperplane (of p^d, d = 2n^2 - n) are
built as matrices.  `power_is_zero`, the nilpotence test that
`ExoticPair.validate` uses too, decides each of them on x's rows,
stopping at the first nonzero entry of x^n (or (x - 1)^n).  A group
point x is labelled through x - 1, as `ExoticPair.nilpotent_part` does:
the scan has shown what `log_map` would check.

The Klyachko locus, the invertible self-adjoint x, is read at every
code at once too.  x* = x means x^T J = J x, so J x is skew, and
det J = 1, so det x = Pf(J x)^2: `_pfaffian_rows` expands Pf(J x) over
the entry rows, and the locus is where it is nonzero.  No x is built
or ranked on that path; the tests keep the rank as its oracle.

The Klyachko embedding of g in GL_n is diag(g, g^T), linear in g, so
`_klyachko_table` reads every embedded code off one `_linear_table` over
GL_n's p^(n^2) codes, from n^2 + 1 checked `klyachko_embed` calls; a
singular g lands off the locus.

Every transvection, a generator or a factor of the seeded basis change,
is one rank-one update, `_times_transvection`, checked symplectic in
closed form; `_action_tables` checks each generator by membership too.
"""

import random
from collections import Counter
from itertools import compress
from operator import mul

from . import classify
from .ffield import FpMatrix, _unflatten, power_is_zero
from .symplectic import ExoticPair, SymplecticSpace

CENSUS_MAX_N = 2
CENSUS_PRIMES = (3, 5)
GROUP_MAX_ORDER = 51840  # |Sp_4(F_3)|; Sp_4(F_5) has 9,360,000 elements


class SizeGateError(ValueError):
    pass


def _gate(n, p, flavor="lie"):
    if flavor not in ("lie", "group"):
        raise ValueError("flavor must be 'lie' or 'group'")
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


def _times_transvection(space, g, u):
    """g T for the transvection T = 1 + u (J u)^T along u, as the rank-one
    update g + (g u)(J u)^T, with T never built: only the columns where
    J u is nonzero change.  T* = 1 - u (J u)^T, so
    T* T = 1 - ((J u).u) u (J u)^T and T is symplectic iff (J u).u = 0:
    checked, with AssertionError otherwise.  No dense product is formed:
    J u is u moved by J's signed permutation, and g u reads only the
    columns of g where u is nonzero (two at most on the frame)."""
    p = space.p
    ju = [0] * len(u)
    for (pb, s), c in zip(space._signed_perm, u):
        ju[pb] = s * c % p          # column b of J is s_b e_pi(b)
    if sum(map(mul, ju, u)) % p:
        raise AssertionError("transvection along %r is not symplectic" % (u,))
    touched = [(k, b) for k, b in enumerate(ju) if b]
    support = [(k, a) for k, a in enumerate(u) if a]
    rows = []
    for row in g.entries:
        c = sum(row[k] * a for k, a in support) % p
        if c:
            row = list(row)
            for k, b in touched:
                row[k] = (row[k] + c * b) % p
            row = tuple(row)
        rows.append(row)
    return FpMatrix._trusted(tuple(rows), p)


def transvection(space, u):
    """x -> x + <x, u> u, that is 1 + u (J u)^T: `_times_transvection` on
    the identity, which checks (J u).u = 0, so T is symplectic."""
    return _times_transvection(space, space._one, u)


def _sp_frame(space):
    """e_i, f_i and e_i + f_j: the directions of the generating transvections."""
    n = space.n
    frame = [space.e(i) for i in range(1, n + 1)]
    frame += [space.f(i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ei, fj = space.e(i), space.f(j)
            frame.append(tuple((a + b) % space.p for a, b in zip(ei, fj)))
    return frame


def sp_generators(space):
    """Transvections along e_i, f_i and e_i + f_j; generate Sp_2n(F_p)."""
    return [transvection(space, u) for u in _sp_frame(space)]


def sp_group_elements(n, p):
    """All of Sp_2n(F_p) by breadth-first closure from the generators,
    each g T formed as the rank-one update `_times_transvection`."""
    _gate_group(n, p)
    space = SymplecticSpace(n, p)
    frame = _sp_frame(space)
    seen = {space._one.entries: space._one}
    frontier = [space._one]
    while frontier:
        nxt = []
        for g in frontier:
            for u in frame:
                h = _times_transvection(space, g, u)
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


def _adjoint_coordinates(space, x):
    """x's coordinates in `adjoint_eigenbasis(1)`: its entries at the leading
    (i, j) of `space.adjoint_units(1)`; AssertionError unless self-adjoint."""
    if not space.membership(x, "g_minus_theta"):
        raise AssertionError("%r is not self-adjoint" % (x,))
    return [x.entries[i][j] for i, j, _, _, _ in space.adjoint_units(1)]


def _encode(space, x):
    """x's code, its digits x's `_adjoint_coordinates` (checked)."""
    return _vector_code(_adjoint_coordinates(space, x), x.p)


def _vector_code(v, p):
    return sum(a * p ** i for i, a in enumerate(v))


def _linear_rows(columns, p):
    """rows[j][c] = coordinate j of the image of code c under the linear
    map taking the unit p^i to columns[i]: coordinate j of the image of
    c + d p^i (c < p^i) is that of c plus d columns[i][j], so the rows grow
    one input digit at a time, with no product per code."""
    rows = [[0] for _ in columns[0]]
    for column in columns:
        # a = 0 repeats the row p times (its entries are already reduced)
        rows = [[(y + d * a) % p for d in range(p) for y in row] if a
                else row * p for row, a in zip(rows, column)]
    return rows


def _all_vectors(k, p):
    """Every vector of F_p^k as a tuple, in code order."""
    return zip(*_linear_rows([[int(i == j) for j in range(k)]
                              for i in range(k)], p))


def _linear_table(columns, p):
    """The image code of each code under the linear map of F_p^k taking
    the unit p^i to the vector columns[i]."""
    rows = _linear_rows(columns, p)
    table = rows[-1]
    for row in reversed(rows[:-1]):
        table = [t * p + y for t, y in zip(table, row)]
    return table


def _action_tables(space, generators):
    """(x-table, v-table) per generator g, built per call by linearity:
    the code of g x g^-1 for each self-adjoint code x, and of g v for each
    vector code v.  Each g is checked to be symplectic, g* g = 1, so that
    g^-1 = g*; AssertionError otherwise."""
    p, basis = space.p, space.adjoint_eigenbasis(1)
    tables = []
    for g in generators:
        if not space.membership(g, "H_group"):
            raise AssertionError("generator %r is not symplectic" % (g,))
        gi = space.adjoint(g)
        x_columns = [_adjoint_coordinates(space, g * b * gi) for b in basis]
        tables.append((_linear_table(x_columns, p),
                       _linear_table(list(zip(*g.entries)), p)))
    return tables


def _entry_rows(space):
    """Row k holds entry k (row-major) of the self-adjoint x at every code."""
    return _linear_rows([sum(b.entries, ()) for b in space.adjoint_eigenbasis(1)],
                        space.p)


def iter_self_adjoint(space):
    """Every self-adjoint matrix, in code order."""
    dim, p = space.dim, space.p
    for flat in zip(*_entry_rows(space)):
        yield FpMatrix._trusted(_unflatten(flat, dim, dim), p)


def _pfaffian_rows(space):
    """Pf(J x) at every self-adjoint code.  J x is skew for self-adjoint x,
    and det J = 1, so det x = Pf(J x)^2: x is invertible exactly where
    this is nonzero.  Row pi(b) of J x is s_b times row b of x
    (`space._signed_perm`), so J x is read off x's `_entry_rows`, and Pf
    is expanded along the first index i:
    Pf(A) = sum over the k-th other index j of (-1)^k A_ij Pf(A without i, j)."""
    dim, p = space.dim, space.p
    rows = _entry_rows(space)
    jx = {}                 # (pi(b), j) -> (s_b, the code row of x_bj)
    for b, (pb, s) in enumerate(space._signed_perm):
        for j in range(dim):
            jx[pb, j] = s, rows[b * dim + j]

    def pf(index):
        if not index:
            return [1] * len(rows[0])
        first, rest = index[0], index[1:]
        total = [0] * len(rows[0])
        for k, j in enumerate(rest):
            s, row = jx[first, j]
            sign = -s if k % 2 else s
            minor = pf(rest[:k] + rest[k + 1:])
            total = [(t + sign * a * m) % p for t, a, m in zip(total, row, minor)]
        return total

    return pf(tuple(range(dim)))


def _is_nilpotent(x):
    """x^n = 0 for 2n x 2n x; exact for self-adjoint x only, whose Jordan
    type lambda u lambda (|lambda| = n) has parts <= n."""
    return power_is_zero(x.entries, x.rows // 2, x.p)


def _is_unipotent(x):
    """(x - 1)^n = 0; decides unipotence for self-adjoint x only."""
    return power_is_zero(x.entries, x.rows // 2, x.p, minus_one=True)


def iter_vectors(space):
    """Every vector of F_p^2n, in code order."""
    return _all_vectors(space.dim, space.p)


def _cone_xs(space, flavor):
    """(code, x) for the self-adjoint x, in code order, that lie on the
    cone of the flavor: nilpotent for 'lie', unipotent for 'group'.  Only
    the codes of trace 0 (or 2n) are built, and `power_is_zero` decides them."""
    dim, p = space.dim, space.p
    keep = _is_nilpotent if flavor == "lie" else _is_unipotent
    target = 0 if flavor == "lie" else dim % p
    rows = _entry_rows(space)
    on_plane = [sum(t) % p == target
                for t in zip(*rows[::dim + 1])]   # the diagonal rows
    codes = compress(range(len(on_plane)), on_plane)
    flats = zip(*[list(compress(row, on_plane)) for row in rows])
    for code, flat in zip(codes, flats):
        x = FpMatrix._trusted(_unflatten(flat, dim, dim), p)
        if keep(x):
            yield code, x


def _line_reps(space):
    """v = 0 and, on each line through 0, the smallest-code vector, whose
    last non-zero coordinate is 1; in code order."""
    return [v for v in iter_vectors(space)
            if next((c for c in reversed(v) if c), 1) == 1]


def enumerate_exotic_nilcone(n, p, flavor="lie"):
    """Stream of exotic pairs (x self-adjoint nilpotent/unipotent, v),
    in a fixed deterministic order.  The flavor and the size gate are
    checked at the call, before the stream is returned."""
    _gate(n, p, flavor)
    space = SymplecticSpace(n, p)
    vectors = list(iter_vectors(space))
    return (ExoticPair._trusted(space, x, v, flavor)
            for _, x in _cone_xs(space, flavor) for v in vectors)


def seeded_basis_change(space, seed):
    """A reproducible symplectic element: a seeded word of 12 generating
    transvections, multiplied in as rank-one updates; the word is
    checked to be symplectic once, at the end."""
    rng = random.Random(seed)
    frame = _sp_frame(space)
    g = space._one
    for _ in range(12):
        g = _times_transvection(space, g, rng.choice(frame))
    if not space.membership(g, "H_group"):
        raise AssertionError("seeded basis change %d is not symplectic" % seed)
    return g


def _census_chunk(space, flavor, basis_seed, check_orbits):
    """Label counts and first representatives (x, v) over the cone: each
    cone x in code order with 0 and one v per line, moved to g v by a
    seeded g when basis_seed is set.  check_orbits adds the cone's x-codes
    in scan order and each point's label at k p^(2n) + v-code, k the
    position of its x; else None.  (The name is kept for perfbench.)

    One `classify.packed_labeler` packs the line vectors once, one byte
    per vector (2n (p - 1)^2 < 256 holds at every gated size), and gives
    each cone x one pattern byte per vector, its first nonzero chain rows,
    with a label per pattern.  Counts go by pattern: only v = 0 has
    pattern 0 and weighs 1, every other line weighs p - 1.  A label's
    representative is the first vector of its first pattern in scan order.
    """
    p, size = space.p, space.p ** space.dim
    vs = _line_reps(space)
    if basis_seed:
        g = seeded_basis_change(space, basis_seed)
        vs = [g.apply(v) for v in vs]   # g is linear: lines go to lines
    label_lines = classify.packed_labeler(vs, p)
    counts, reps = {}, {}
    codes, labels = [], []  # filled under check_orbits only
    if check_orbits:        # the line of each v-code: c.v, c != 0, is on v's
        line_of = [0] * size
        for j, v in enumerate(vs):
            for c in range(1, p):
                line_of[_vector_code([c * a % p for a in v], p)] = j
    for code, x in _cone_xs(space, flavor):
        # the scan showed x self-adjoint with (x - 1)^n = 0, so x - 1 is
        # `log_map(x)`, as in `ExoticPair.nilpotent_part`
        patterns, label = label_lines(x if flavor == "lie" else x - space._one)
        for pattern, k in Counter(patterns).items():   # in scan order
            name = label[pattern]
            counts[name] = counts.get(name, 0) + (p - 1 if pattern else 1) * k
            if name not in reps:
                reps[name] = (x, vs[patterns.index(pattern)])
        if check_orbits:
            codes.append(code)
            labels += [label[patterns[j]] for j in line_of]
    return counts, reps, (codes, labels) if check_orbits else None


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
    check_orbits reuses those labels in a union-find under the generators:
    each label's points must form one orbit of exactly `count` points,
    whose size gives the stabilizer order (`_orbit_checks`); no group is
    listed.  A nonzero basis_seed moves each line's vector by a seeded
    symplectic g, which permutes the lines; x -> g x g^-1 permutes the
    cone, so x stays: the same points are labelled.  Equal counts show
    that labels are constant on lines, not invariance, which check_orbits
    tests.
    """
    _gate(n, p, flavor)
    space = SymplecticSpace(n, p)
    counts, reps, points = _census_chunk(space, flavor, basis_seed, check_orbits)
    checks = _orbit_checks(space, counts, reps, *points) if check_orbits else None
    return CensusResult(n, p, flavor, counts, sum(counts.values()), reps, checks)


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

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


def _generator_classes(space, codes, size, what):
    """The root of each point k * size + v-code (k the position of its x in
    `codes`, a locus in scan order; size is p^(2n), or 1 where v = 0) in a
    union-find under the tables of `_action_tables`.  Every such v-code of
    a kept x is a point, so the locus test, AssertionError naming `what`,
    runs once per (generator, x)."""
    position = {code: k for k, code in enumerate(codes)}
    uf = UnionFind(len(codes) * size)
    for x_table, v_table in _action_tables(space, sp_generators(space)):
        for k, code in enumerate(codes):
            moved = position.get(x_table[code])
            if moved is None:
                raise AssertionError("a generator moved a point off the %s" % what)
            for point, image in enumerate(v_table[:size], k * size):
                uf.union(point, moved * size + image)
    return [uf.find(point) for point in range(len(codes) * size)]


def _orbit_checks(space, counts, reps, codes, labels):
    """Per label, over the points of `_census_chunk`'s codes and labels
    joined under the generators: `transitive` if its points lie in one
    class, `orbit_stabilizer_ok` if the class of its representative, its
    orbit, has exactly `count` points, and the stabilizer order
    |Sp_2n(F_p)| / |orbit|, checked to divide.  `sp_group_elements` checks
    that the generators make Sp_2n(F_p) wherever it can list the group."""
    p, width = space.p, space.p ** space.dim
    roots = _generator_classes(space, codes, width, "cone")
    # the points of each class, and the classes each label's points meet
    sizes = Counter(roots)
    classes = Counter(label for label, _ in set(zip(labels, roots)))

    order = sp_group_order(space.n, p)
    checks = []
    for label, count in sorted(counts.items()):
        x, v = reps[label]
        k = codes.index(_encode(space, x))
        size = sizes[roots[k * width + _vector_code(v, p)]]
        if order % size:
            raise AssertionError(
                "the orbit of %s has %d points, which does not divide "
                "|Sp_%d(F_%d)| = %d" % (label, size, 2 * space.n, p, order))
        checks.append({"label": label, "count": count,
                       "stabilizer_order": order // size,
                       "orbit_stabilizer_ok": size == count,
                       "transitive": classes[label] == 1})
    return checks


def _stabilizer_order(group, x, v):
    return sum(1 for g in group if g.apply(v) == v and g * x == x * g)


def stabilizer_census(pair):
    """|{g in Sp : g x g^-1 = x, g v = v}| by enumeration (n <= 2)."""
    group = sp_group_elements(pair.space.n, pair.space.p)
    return _stabilizer_order(group, pair.x, pair.v)


def klyachko_census(n, p):
    """Count H-orbits on the invertible self-adjoint locus, the codes
    where Pf(J x) is nonzero (`_pfaffian_rows`).

    The orbit count must equal the number of GL_n(F_p) conjugacy
    classes, and every orbit must contain an embedded diag(x, x^T),
    read off `_klyachko_table`.
    """
    _gate(n, p)
    space = SymplecticSpace(n, p)
    pfaffians = _pfaffian_rows(space)
    codes = list(compress(range(len(pfaffians)), pfaffians))
    roots = _generator_classes(space, codes, 1, "invertible self-adjoint locus")
    root_of = dict(zip(codes, roots))
    orbit_count = len(set(roots))
    covered = {root_of[code] for code in _klyachko_table(space) if pfaffians[code]}

    return {
        "n": n, "p": p,
        "points": len(codes),
        "orbit_count": orbit_count,
        "gl_class_count": gl_class_count(n, p),
        "count_matches": orbit_count == gl_class_count(n, p),
        "every_orbit_hit_by_embedding": covered == set(roots),
    }


def _klyachko_table(space):
    """The code of `klyachko_embed(embed_gl(g))` for every n x n g, in the
    code order of g's row-major entries.  The embedding a -> a a*,
    a = diag(g, 1), is diag(g, g^T), linear in g, so column (i, j) is the
    image of 1 + E_ij minus the image of 1, each through `klyachko_embed`
    (1 + E_ii is invertible too, as p is odd).  A singular g has a
    singular image, so its code lies off the Pf locus."""
    n, p = space.n, space.p

    def image(g):
        return _adjoint_coordinates(space, space.klyachko_embed(space.embed_gl(
            FpMatrix._trusted(_unflatten(g, n, n), p))))

    one = [int(i == j) for i in range(n) for j in range(n)]
    base = image(one)
    columns = []
    for k in range(n * n):
        unit = list(one)
        unit[k] += 1
        columns.append([(a - b) % p for a, b in zip(image(unit), base)])
    return _linear_table(columns, p)
