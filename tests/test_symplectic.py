import itertools

import pytest

from conftest import random_matrix, random_invertible, random_sp_element, zeros
from exospringer import symplectic
from exospringer.bicomb import Bipartition, bipartitions_of, parse_bipartition
from exospringer.census import transvection
from exospringer.ffield import FpMatrix, Subspace, nilpotent_jordan_type
from exospringer.symplectic import (
    ExoticPair, NotInAError, NotInGIotaThetaError, SizeMismatchError,
    SymplecticSpace, normal_form_pair, nu_blocks)


def all_matrices(rows, cols, p):
    for flat in itertools.product(range(p), repeat=rows * cols):
        yield FpMatrix([flat[i * cols:(i + 1) * cols] for i in range(rows)], p)


def theta_group(sp, g):
    """theta(g) = J^-1 g^-T J = (g^-1)*; involutive, with Sp fixed."""
    return sp.adjoint(g.inverse())


def test_form_conventions():
    sp = SymplecticSpace(2, 3)
    assert sp.J.transpose() == -sp.J
    assert sp.J.is_invertible()
    for i in (1, 2):
        for j in (1, 2):
            assert sp.pairing(sp.e(i), sp.f(j)) == (1 if i == j else 0)
            assert sp.pairing(sp.e(i), sp.e(j)) == 0
            assert sp.pairing(sp.f(i), sp.f(j)) == 0


def test_theta_examples(rng):
    sp = SymplecticSpace(2, 3)
    one = FpMatrix.identity(4, 3)
    assert theta_group(sp, one) == one
    g = random_sp_element(rng, sp)
    assert sp.membership(g, "H_group")
    assert theta_group(sp, g) == g                      # fixed points are Sp
    for _ in range(10):
        a = random_invertible(rng, 4, 3)
        b = random_invertible(rng, 4, 3)
        assert theta_group(sp, theta_group(sp, a)) == a  # involutive
        assert theta_group(sp, a * b) == theta_group(sp, a) * theta_group(sp, b)
    with pytest.raises(ZeroDivisionError):
        theta_group(sp, zeros(4, 4, 3))


def test_klyachko_block_identity(rng):
    # a theta(a)^-1 = diag(x, x^T) for a = diag(x, 1)
    sp = SymplecticSpace(2, 5)
    for _ in range(5):
        x = random_invertible(rng, 2, 5)
        a = sp.embed_gl(x)
        product = a * theta_group(sp, a).inverse()
        assert product == sp.pair_block(x, x.transpose())
        assert product == sp.klyachko_embed(a)


def test_adjoint_examples(rng):
    sp = SymplecticSpace(1, 7)
    assert sp.adjoint(FpMatrix.identity(2, 7)) == FpMatrix.identity(2, 7)
    m = FpMatrix([[1, 2], [3, 4]], 7)
    a, b, c, d = 1, 2, 3, 4
    assert sp.adjoint(m) == FpMatrix([[d, -b % 7], [-c % 7, a]], 7)
    sp2 = SymplecticSpace(2, 5)
    for _ in range(10):
        x = random_matrix(rng, 4, 4, 5)
        u = tuple(rng.randrange(5) for _ in range(4))
        v = tuple(rng.randrange(5) for _ in range(4))
        assert sp2.pairing(x.apply(u), v) == sp2.pairing(u, sp2.adjoint(x).apply(v))
    # the signed-permutation adjoint and everything read through it, against
    # products with the matrices J and J^-1
    non_members = 0
    for n in range(1, 5):
        for p in (3, 5, 2**31 - 1):
            sp = SymplecticSpace(n, p)
            dim, J = 2 * n, sp.J
            inv_J = J.inverse()
            for _ in range(3):
                x = random_matrix(rng, dim, dim, p)
                assert sp.adjoint(x) == inv_J * x.transpose() * J
                g = random_invertible(rng, dim, p)
                assert theta_group(sp, g) == inv_J * g.inverse().transpose() * J
                for m in (x, g):
                    member = m.transpose() * J * m == J
                    assert sp.membership(m, "H_group") == member
                    non_members += not member
                h = random_sp_element(rng, sp, word_len=4)
                assert h.transpose() * J * h == J
                assert sp.membership(h, "H_group")
                u = tuple(rng.randrange(p) for _ in range(dim))
                w = tuple(rng.randrange(p) for _ in range(dim))
                assert sp.pairing(u, w) == sum(
                    a * b for a, b in zip(u, J.apply(w))) % p
                units = [tuple(int(i == k) for i in range(dim))
                         for k in range(dim)]
                columns = [tuple((a + sp.pairing(e, u) * b) % p
                                 for a, b in zip(e, u)) for e in units]
                assert transvection(sp, u) == FpMatrix(list(zip(*columns)), p)
    assert non_members > 0


def test_sp_lie_members_are_skew_adjoint(rng):
    sp = SymplecticSpace(2, 5)
    for h in sp.adjoint_eigenbasis(-1):
        assert sp.membership(h, "sp_lie")
        assert sp.adjoint(h) == -h


def test_adjoint_eigenbasis_is_canonical_echelon():
    # the self-adjoint basis fixes the census's code order, so it must be
    # the canonical reduced-echelon basis of its span, and so must sp's
    for n in range(1, 5):
        for p in (3, 5, 2**31 - 1):
            sp = SymplecticSpace(n, p)
            for sign in (1, -1):
                basis = sp.adjoint_eigenbasis(sign)
                assert len(basis) == 2 * n * n - sign * n
                for x in basis:
                    assert sp.adjoint(x) == sign * x
                flat = [sum(x.entries, ()) for x in basis]
                assert flat == list(Subspace(4 * n * n, flat, p).basis)


def test_membership_dimension_counts():
    # n=1: self-adjoint 2x2 are exactly the scalars (enumerated)
    sp = SymplecticSpace(1, 3)
    sa = [m for m in all_matrices(2, 2, 3) if sp.membership(m, "g_minus_theta")]
    assert sorted(tuple(x.entries) for x in sa) == \
        sorted((FpMatrix.identity(2, 3) * a).entries for a in range(3))
    assert len(sa) == 3 ** (2 * 1 * 1 - 1)
    # dimension of the linear loci via kernel ranks, n = 1, 2
    for n, p in ((1, 3), (2, 3), (2, 5)):
        spn = SymplecticSpace(n, p)
        dim = 2 * n
        units = []
        for i in range(dim):
            for j in range(dim):
                m = [[0] * dim for _ in range(dim)]
                m[i][j] = 1
                units.append(FpMatrix(m, p))
        self_adj = [spn.adjoint(u) - u for u in units]
        skew_adj = [spn.adjoint(u) + u for u in units]
        for images, expected in ((self_adj, 2 * n * n - n),
                                 (skew_adj, 2 * n * n + n)):
            rows = []
            for i in range(dim):
                for j in range(dim):
                    rows.append([img.entries[i][j] for img in images])
            nullity = dim * dim - FpMatrix(rows, p).rank()
            assert nullity == expected


def test_identity_in_g_iota_theta():
    for n, p in ((1, 3), (2, 3), (3, 5)):
        sp = SymplecticSpace(n, p)
        assert sp.membership(FpMatrix.identity(2 * n, p), "G_iota_theta")


def test_g_theta_g_inverse_lands_in_locus(rng):
    sp = SymplecticSpace(2, 3)
    for _ in range(15):
        g = random_invertible(rng, 4, 3)
        x = g * theta_group(sp, g).inverse()
        assert sp.membership(x, "G_iota_theta")


def test_log_examples():
    sp = SymplecticSpace(1, 5)
    one = FpMatrix.identity(2, 5)
    assert sp.log_map(one).is_zero()
    for a in range(1, 5):
        x = one * a
        assert sp.log_map(x) == one * (a - 1)
    with pytest.raises(NotInGIotaThetaError):
        sp.log_map(FpMatrix([[1, 1], [0, 1]], 5))   # not self-adjoint


def test_log_bijection_unipotent_to_nilpotent_n1():
    # full census at n=1: unipotent self-adjoint <-> nilpotent self-adjoint
    for p in (3, 5):
        sp = SymplecticSpace(1, p)
        one = FpMatrix.identity(2, p)
        unipotent = [m for m in all_matrices(2, 2, p)
                     if sp.membership(m, "g_minus_theta")
                     and m.is_invertible() and (m - one).power(2).is_zero()]
        nilpotent = [m for m in all_matrices(2, 2, p)
                     if sp.membership(m, "g_minus_theta") and m.power(2).is_zero()]
        images = {sp.log_map(m).entries for m in unipotent}
        assert len(images) == len(unipotent)
        assert images == {m.entries for m in nilpotent}


def test_klyachko_examples():
    p = 3
    sp = SymplecticSpace(3, p)
    assert sp.klyachko_embed(FpMatrix.identity(6, p)) == FpMatrix.identity(6, p)
    # regular unipotent x: the embedded matrix has GL Jordan type (n, n)
    x = FpMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]], p)
    emb = sp.klyachko_embed(sp.embed_gl(x))
    assert nilpotent_jordan_type(emb - FpMatrix.identity(6, p)) == (3, 3)
    sp1 = SymplecticSpace(1, 3)
    two = sp1.klyachko_embed(sp1.embed_gl(FpMatrix([[2]], 3)))
    assert two == FpMatrix.identity(2, 3) * 2
    with pytest.raises(NotInAError):
        sp1.klyachko_embed(FpMatrix([[1, 1], [0, 1]], 3))
    with pytest.raises(NotInAError):
        sp1.klyachko_embed(FpMatrix([[0, 0], [0, 1]], 3))
    # blocks are wrapped without re-reduction, so their shape and prime are checked
    for block in (FpMatrix([[4]], 5), FpMatrix.identity(2, 3)):
        with pytest.raises(ValueError, match="expected 1x1 blocks over F_3"):
            sp1.embed_gl(block)


VALUES = {
    "FpMatrix": lambda: (FpMatrix([[1, 2], [3, 4]], 5), "entries"),
    "Subspace": lambda: (Subspace(2, [(1, 2)], 5), "basis"),
    "SymplecticSpace": lambda: (SymplecticSpace(1, 5), "p"),
    "ExoticPair": lambda: (normal_form_pair(
        Bipartition((1,), ()), SymplecticSpace(1, 5)).pair, "v"),
    "Bipartition": lambda: (Bipartition((2,), (1,)), "first"),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_value_types_refuse_attribute_assignment(kind):
    # each type's own __setattr__ guard refuses a slot it has as well as a
    # new name, and the value is left as it was
    value, slot = VALUES[kind]()
    before = getattr(value, slot)
    for name in (slot, "extra"):
        with pytest.raises(AttributeError, match="%s is immutable" % kind):
            setattr(value, name, before)
    assert getattr(value, slot) == before


def test_nu_blocks():
    assert nu_blocks((3, 3, 2, 1, 1, 1)) == ([2, 1, 3], [3, 2, 1],
                                             [1, 3, 4], [2, 3, 6])
    assert nu_blocks((2,)) == ([1], [2], [1], [1])


def test_normal_form_small_examples():
    p = 3
    sp2 = SymplecticSpace(2, p)
    # open orbit: cyclic vector over a regular unipotent
    nf = normal_form_pair(Bipartition((2,), ()), sp2)
    from exospringer.classify import cyclic_dim
    assert cyclic_dim(nf.pair) == 2
    # point orbit: x = 1, v = 0
    nf0 = normal_form_pair(Bipartition((), (1, 1)), sp2)
    assert nf0.pair.x == FpMatrix.identity(4, p)
    assert all(c == 0 for c in nf0.pair.v)
    # mixed: nu = (2), y = J_2, v = v_{1,1}
    nf1 = normal_form_pair(Bipartition((1,), (1,)), sp2)
    assert nf1.nu == (2,)
    assert nf1.mu1_values == (1,)
    assert nf1.pair.v == nf1.jordan_basis[(1, 1)]
    with pytest.raises(SizeMismatchError):
        normal_form_pair(Bipartition((1,), ()), sp2)


def test_normal_form_pairing_and_recurrences():
    # the construction asserts the Jordan recurrences and the duality
    # internally; exercise it across shapes with repeated block sizes
    sp = SymplecticSpace(4, 3)
    for text in ("2,2|-", "2,1|1", "1,1|1,1", "-|2,2", "2|1,1", "1|2,1"):
        nf = normal_form_pair(parse_bipartition(text), sp)
        assert nf.pair.space is sp
        member = nf.pair.space.membership(nf.pair.x, "G_iota_theta")
        assert member


def frame_unipotent(nf):
    """y with y - 1 shifting the Jordan basis down its chains and 0 on the
    f-span, solved from the frame as y = (images) (basis)^-1."""
    sp = nf.pair.space
    zero = (0,) * sp.dim
    keys = sorted(nf.jordan_basis)
    f_span = [sp.f(i) for i in range(1, sp.n + 1)]
    basis = [nf.jordan_basis[k] for k in keys] + f_span
    images = [tuple(a + b for a, b in zip(
        nf.jordan_basis[i, j], nf.jordan_basis.get((i, j - 1), zero)))
        for i, j in keys] + f_span
    return (FpMatrix(list(zip(*images)), sp.p)
            * FpMatrix(list(zip(*basis)), sp.p).inverse())


@pytest.mark.parametrize("p", (3, 5, 2**31 - 1))
def test_trusted_normal_forms_pass_the_checks_they_skip(monkeypatch, p):
    # normal_form_pair builds x as the block diag(y, y^T) and wraps the pair
    # unchecked: every normal form at n <= 4 still passes the validating
    # checks, and x is y theta(y)^-1 for the y its Jordan frame defines
    validated = []
    validate = ExoticPair.validate
    monkeypatch.setattr(ExoticPair, "validate", validated.append)
    for n in (1, 2, 3, 4):
        sp = SymplecticSpace(n, p)
        for label in bipartitions_of(n):
            nf = normal_form_pair(label, sp)
            assert validated == []
            validate(nf.pair)
            y = frame_unipotent(nf)
            assert nf.pair.x == y * theta_group(sp, y).inverse()


def test_fixed_point_counts_borel_torus():
    """Point counts of the upper-triangular fixed loci.

    U^theta: pairs (b unipotent upper-triangular, c) with c^T = b^-1 c b^T;
    counted by summing solution-space sizes of the linear c-condition.
    B^iota-theta: pairs (b upper-triangular invertible, c skew).
    T^iota-theta: diag(a, a).
    """
    for n, p in ((1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 5)):
        # unipotent upper triangular matrices, enumerated by free entries
        free = [(i, j) for i in range(n) for j in range(i + 1, n)]
        count_u_theta = 0
        for vals in itertools.product(range(p), repeat=len(free)):
            b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(free, vals):
                b[i][j] = v
            bm = FpMatrix(b, p)
            binv = bm.inverse()
            bt = bm.transpose()
            # c^T - b^-1 c b^T = 0 is linear in c; count its kernel
            rows = []
            units = []
            for i in range(n):
                for j in range(n):
                    m = [[0] * n for _ in range(n)]
                    m[i][j] = 1
                    units.append(FpMatrix(m, p))
            images = [u.transpose() - binv * u * bt for u in units]
            for i in range(n):
                for j in range(n):
                    rows.append([img.entries[i][j] for img in images])
            nullity = n * n - FpMatrix(rows, p).rank()
            count_u_theta += p ** nullity
        assert count_u_theta == p ** (n * n)

        skew_dim = n * (n - 1) // 2
        invertible_upper = (p - 1) ** n * p ** (n * (n - 1) // 2)
        count_b_iota = invertible_upper * p ** skew_dim
        assert count_b_iota == (p - 1) ** n * p ** (n * n - n)

        # T^{iota theta} = {diag(a, a)}: enumerate and check membership
        sp = SymplecticSpace(n, p)
        count_t = 0
        for diag in itertools.product(range(1, p), repeat=n):
            m = [[0] * (2 * n) for _ in range(2 * n)]
            for i, a in enumerate(diag):
                m[i][i] = a
                m[n + i][n + i] = a
            assert sp.membership(FpMatrix(m, p), "G_iota_theta")
            count_t += 1
        assert count_t == (p - 1) ** n


def test_u_theta_parametrization_lands_in_sp():
    # spot-check: solutions (b, c) do give symplectic group elements
    n, p = 2, 3
    sp = SymplecticSpace(n, p)
    found = 0
    for bvals in itertools.product(range(p), repeat=1):
        b = [[1, bvals[0]], [0, 1]]
        bm = FpMatrix(b, p)
        for cflat in itertools.product(range(p), repeat=4):
            c = [[cflat[0], cflat[1]], [cflat[2], cflat[3]]]
            cm = FpMatrix(c, p)
            if cm.transpose() == bm.inverse() * cm * bm.transpose():
                g = [[0] * 4 for _ in range(4)]
                btinv = bm.transpose().inverse()
                for i in range(2):
                    for j in range(2):
                        g[i][j] = bm.entries[i][j]
                        g[i][2 + j] = cm.entries[i][j]
                        g[2 + i][2 + j] = btinv.entries[i][j]
                assert sp.membership(FpMatrix(g, p), "H_group")
                found += 1
    assert found == p ** (n * n)


def test_exotic_pair_json_roundtrip():
    sp = SymplecticSpace(2, 3)
    nf = normal_form_pair(Bipartition((1,), (1,)), sp)
    back = ExoticPair.from_json(nf.pair.to_json())
    assert back == nf.pair
    assert back.to_json() == nf.pair.to_json()


def test_exotic_pair_json_checks_shapes_before_building_the_space(monkeypatch):
    pair = ExoticPair(SymplecticSpace(1, 3), zeros(2, 2, 3), (0, 0), "lie")
    good = pair.to_json()
    big_x = zeros(4, 4, 3).to_json()

    def no_space(*args):
        raise AssertionError("the space was built before the shape check")

    monkeypatch.setattr(symplectic, "SymplecticSpace", no_space)
    for n, x, v in ((1000, good["x"], [0, 0]), (0, good["x"], []),
                    (1, good["x"], [0, 0, 0, 0]), (1, big_x, [0, 0])):
        with pytest.raises(ValueError, match="n = %d does not fit" % n):
            ExoticPair.from_json(dict(good, n=n, x=x, v=v))


def test_exotic_pair_validation():
    sp = SymplecticSpace(1, 3)
    with pytest.raises(ValueError):
        ExoticPair(sp, FpMatrix([[1, 1], [0, 1]], 3), (0, 0), "lie")
    with pytest.raises(ValueError):
        ExoticPair(sp, FpMatrix.identity(2, 3), (0, 0), "lie")  # not nilpotent
    with pytest.raises(ValueError):
        ExoticPair(sp, zeros(2, 2, 3), (0, 0), "group")


def _corrupted_normal_form_errors():
    """The error raised by the normal-form check on each of three
    corrupted copies of the 1|1 normal form over F_3 (None if none)."""
    from exospringer.symplectic import _check_normal_form
    space = SymplecticSpace(2, 3)
    label = parse_bipartition("1|1")
    x = normal_form_pair(label, space).pair.x
    y = space.embed_gl(FpMatrix([row[:2] for row in x.entries[:2]], 3))

    def scale(vec, c):
        return tuple(c * a % 3 for a in vec)

    def jordan_off_chain(nf):
        nf.jordan_basis[(1, 2)] = scale(nf.jordan_basis[(1, 2)], 2)

    def dual_off_chain(nf):
        nf.dual_basis[(1, 1)] = scale(nf.dual_basis[(1, 1)], 2)

    def dual_not_dual(nf):
        # still a shift chain, but every pairing is 2 instead of 1
        nf.dual_basis = {k: scale(v, 2) for k, v in nf.dual_basis.items()}

    errors = []
    for corrupt in (None, jordan_off_chain, dual_off_chain, dual_not_dual):
        nf = normal_form_pair(label, space)
        if corrupt:
            corrupt(nf)
        try:
            _check_normal_form(space, nf, y)
            errors.append(None)
        except AssertionError as exc:
            errors.append(str(exc))
    return errors


def test_normal_form_check_survives_python_O():
    import os
    import pathlib
    import subprocess
    import sys
    expected = [None,
                "y - 1 does not shift the Jordan basis at (1, 2)",
                "theta(y)^-1 - 1 does not shift the dual basis at (1, 1)",
                "Jordan basis (1, 1) pairs to 2, not 1, with dual basis (1, 1)"]
    assert _corrupted_normal_form_errors() == expected
    # the same checks under -O, where bare asserts would be stripped
    tests = pathlib.Path(__file__).resolve().parent
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n"
            "from test_symplectic import _corrupted_normal_form_errors\n"
            "print(sys.flags.optimize, _corrupted_normal_form_errors())\n"
            % str(tests))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 %r\n" % (expected,)
