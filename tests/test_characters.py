import dataclasses
import gc
import hashlib
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from orthogonality_oracle import cyclotomic_orthogonality
from spectral_oracle import cantor_zassenhaus_roots

from motivelab import characters, twisted
from motivelab.characters import (
    VirtualCharacter,
    _canonical_table,
    _power_classes,
    character_table,
    decompose_class_function,
    idempotents,
    is_unit_at_I,
    permutation_character,
    rank,
    restrict,
    rr_arith,
)
from motivelab.cocycles import TwoCocycle
from motivelab.cyclotomic import Cyclotomic
from motivelab.errors import GroupMismatch, InvariantViolation, NonIntegralCharacter
from motivelab.groups import (
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_from_permutations,
    product_group,
    symmetric_group,
)
from motivelab.twisted import build_twisted, wedderburn_dims

BATTERY = [
    cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(6),
    cyclic_group(12), symmetric_group(3), symmetric_group(4),
    dihedral_group(6), dihedral_group(8), dihedral_group(12),
    elementary_abelian_group(2, 2), elementary_abelian_group(2, 3),
    elementary_abelian_group(3, 2),
    product_group(elementary_abelian_group(2, 2), symmetric_group(3)),
]


def test_cyclic3_rows():
    table = character_table(cyclic_group(3))
    z = Cyclotomic.root_of_unity(3)
    z2 = Cyclotomic.root_of_unity(3, 2)
    one = Cyclotomic.one()
    rows = {tuple(str(v) for v in row) for row in table.irreducibles}
    expected = {
        tuple(str(v) for v in (one, one, one)),
        tuple(str(v) for v in (one, z, z2)),
        tuple(str(v) for v in (one, z2, z)),
    }
    assert rows == expected


def test_degree_profiles():
    assert character_table(symmetric_group(3)).degrees == (1, 1, 2)
    assert character_table(dihedral_group(8)).degrees == (1, 1, 1, 1, 2)
    assert character_table(symmetric_group(4)).degrees == (1, 1, 2, 3, 3)


def test_degree_squares_sum():
    for G in BATTERY:
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order


def test_orthogonality_battery():
    for G in BATTERY:
        character_table(G).verify_orthogonality()


def test_column_orthogonality():
    for G in (symmetric_group(3), dihedral_group(8)):
        table = character_table(G)
        k = table.num_irreducibles
        sizes = table.class_sizes()
        for c1 in range(k):
            for c2 in range(k):
                acc = Cyclotomic.zero(table.exponent)
                for i in range(k):
                    acc = acc + table.value(i, c1) * table.value(i, c2).conjugate()
                expected = Fraction(G.order, sizes[c1]) if c1 == c2 else Fraction(0)
                assert acc == Cyclotomic.from_rational(expected)


def test_table_deterministic_across_seeds():
    a = character_table(symmetric_group(4), seed=0)
    b = character_table(symmetric_group(4), seed=12345)
    # cached table is reused; compare from fresh groups
    G2 = symmetric_group(4)
    G2._char_table = None
    c = character_table(G2, seed=999)
    assert a.degrees == c.degrees
    assert [[str(v) for v in row] for row in a.irreducibles] == \
        [[str(v) for v in row] for row in c.irreducibles]


def _s3_named():
    S3 = symmetric_group(3)
    table = character_table(S3)
    one = VirtualCharacter.trivial_character(S3)
    sgn = next(VirtualCharacter.irreducible(S3, i) for i in range(3)
               if table.degrees[i] == 1 and VirtualCharacter.irreducible(S3, i) != one)
    psi = next(VirtualCharacter.irreducible(S3, i) for i in range(3)
               if table.degrees[i] == 2)
    return S3, one, sgn, psi


def test_cyclic_ring_relation():
    for n in (2, 3, 5, 8, 12):
        G = cyclic_group(n)
        table = character_table(G)
        # some character generates: chi * chi^(n-1) = 1
        for i in range(table.num_irreducibles):
            chi = VirtualCharacter.irreducible(G, i)
            power = VirtualCharacter.trivial_character(G)
            for _ in range(n - 1):
                power = power.mul(chi)
            if power.mul(chi) == VirtualCharacter.trivial_character(G):
                break
        else:
            pytest.fail(f"no relation chi^{n} = 1 found in R(C{n})")


def test_s3_relations():
    S3, one, sgn, psi = _s3_named()
    assert rr_arith("mul", psi, psi) == one.add(sgn).add(psi)
    assert rr_arith("mul", sgn, sgn) == one


def test_unit_law_random():
    rng = np.random.default_rng(0)
    S3, one, _, _ = _s3_named()
    for _ in range(20):
        coeffs = [int(c) for c in rng.integers(-3, 4, size=3)]
        a = VirtualCharacter.from_coeffs(S3, coeffs)
        assert a.mul(one) == a


def test_mul_ring_laws_random():
    rng = np.random.default_rng(5)
    G = symmetric_group(3)
    for _ in range(15):
        a, b, c = (VirtualCharacter.from_coeffs(G, [int(x) for x in
                                                    rng.integers(-2, 3, size=3)])
                   for _ in range(3))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)


def test_rank():
    S3, one, sgn, psi = _s3_named()
    assert rank(one) == 1
    assert rank(VirtualCharacter.regular_character(S3)) == 6
    assert rank(psi) == 2
    idem = idempotents(S3)
    assert rank(idem.e_plus) == 1
    assert rank(idem.e_minus) == 0


def test_rank_is_ring_homomorphism():
    rng = np.random.default_rng(9)
    G = dihedral_group(8)
    k = character_table(G).num_irreducibles
    for _ in range(15):
        a = VirtualCharacter.from_coeffs(G, [int(x) for x in rng.integers(-2, 3, size=k)])
        b = VirtualCharacter.from_coeffs(G, [int(x) for x in rng.integers(-2, 3, size=k)])
        assert rank(a.add(b)) == rank(a) + rank(b)
        assert rank(a.mul(b)) == rank(a) * rank(b)


def test_idempotents_c2():
    G = cyclic_group(2)
    idem = idempotents(G)
    # e+ = (1 + sgn)/2: both coefficients 1/2
    assert sorted(idem.e_plus.coeffs) == [Fraction(1, 2), Fraction(1, 2)]


def test_idempotents_s3():
    S3, one, sgn, psi = _s3_named()
    idem = idempotents(S3)
    # e+ = (1 + chi + 2 psi)/6
    expected = one.scale(Fraction(1, 6)).add(sgn.scale(Fraction(1, 6))) \
        .add(psi.scale(Fraction(1, 3)))
    assert idem.e_plus == expected
    assert idem.e_plus.mul(idem.e_plus) == idem.e_plus


def test_is_unit_at_I():
    S3, one, sgn, psi = _s3_named()
    assert is_unit_at_I(one)
    assert is_unit_at_I(VirtualCharacter.regular_character(S3))
    assert not is_unit_at_I(one.sub(sgn))  # rank 0: in the augmentation ideal


def test_permutation_character_extremes():
    G = symmetric_group(3)
    assert permutation_character(G, G.full_subgroup()) == \
        VirtualCharacter.trivial_character(G)
    assert permutation_character(G, G.trivial_subgroup()) == \
        VirtualCharacter.regular_character(G)


def test_permutation_character_s3_mod_c2():
    S3, one, sgn, psi = _s3_named()
    t = S3.conjugacy_classes()[2].representative
    H = S3.generated_subgroup([t])
    pc = permutation_character(S3, H)
    assert pc == one.add(psi)
    # independent fixed-coset count per class
    from motivelab.groups import coset_space
    space = coset_space(S3, H)
    for idx, cls in enumerate(S3.conjugacy_classes()):
        fixed = sum(1 for i in range(space.size)
                    if space.action[cls.representative][i] == i)
        assert pc.class_value(idx) == Cyclotomic.from_rational(fixed)


def test_restrict_trivial_and_regular():
    G = symmetric_group(3)
    threecycle = G.conjugacy_classes()[1].representative
    H = G.generated_subgroup([threecycle])
    sub, _ = H.as_group()
    assert restrict(VirtualCharacter.trivial_character(G), H) == \
        VirtualCharacter.trivial_character(sub)
    assert restrict(VirtualCharacter.regular_character(G), H) == \
        VirtualCharacter.regular_character(sub).scale(2)


def test_restrict_psi_to_c3():
    S3, one, sgn, psi = _s3_named()
    threecycle = S3.conjugacy_classes()[1].representative
    H = S3.generated_subgroup([threecycle])
    sub, _ = H.as_group()
    r = restrict(psi, H)
    table = character_table(sub)
    triv = VirtualCharacter.trivial_character(sub)
    # sum of the two nontrivial linear characters
    assert rank(r) == 2
    assert r.coeffs[_index_of(triv)] == 0
    assert sorted(r.coeffs) == [0, 1, 1]


def _index_of(v):
    return next(i for i, c in enumerate(v.coeffs) if c == 1)


def test_decompose_rejects_non_integral():
    G = cyclic_group(2)
    with pytest.raises(NonIntegralCharacter):
        decompose_class_function(G, [Cyclotomic.from_rational(1),
                                     Cyclotomic.from_rational(0)])


def test_number_of_irreducibles_is_class_count():
    for G in BATTERY:
        assert character_table(G).num_irreducibles == len(G.conjugacy_classes())


# ---------------------------------------------------------------------------
# Tensor structure constants N_ij^k and the products built on them
# ---------------------------------------------------------------------------


def _a4():
    return group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])


def _a5():
    return group_from_permutations(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]])


def _q8():
    # the regular representation of Q8 on i^a j^b, a < 4, b < 2
    return group_from_permutations(8, [[1, 2, 3, 0, 5, 6, 7, 4],
                                       [4, 7, 6, 5, 2, 1, 0, 3]])


def _oracle(G, va, vb):
    """The product of two class functions by exact cyclotomic inner products:
    values multiplied pointwise, then decomposed over the irreducibles."""
    return decompose_class_function(G, [x * y for x, y in zip(va, vb)],
                                    allow_rational=True)


def _class_values(chi):
    return [chi.class_value(c) for c in range(character_table(chi.group).num_irreducibles)]


def _oracle_product(G, a, b):
    return _oracle(G, _class_values(a), _class_values(b))


@pytest.mark.parametrize("G", BATTERY + [cyclic_group(1), _a4(), _q8(), symmetric_group(4),
                                         _a5(), symmetric_group(5)],
                         ids=lambda G: G.label)
def test_structure_constants_match_inner_products(G):
    table = character_table(G)
    N = table.structure_constants
    k = table.num_irreducibles
    assert N.shape == (k, k, k) and not N.flags.writeable
    rows = table.irreducibles
    irr = [VirtualCharacter.irreducible(G, i) for i in range(k)]
    for i in range(k):
        for j in range(i, k):  # N is symmetric in i, j: see the ring-law test
            assert tuple(int(m) for m in N[i, j]) == _oracle(G, rows[i], rows[j])
            assert irr[i].mul(irr[j]).coeffs == tuple(N[i, j])


@pytest.mark.parametrize("G", BATTERY + [_a5()], ids=lambda G: G.label)
def test_structure_constants_ring_laws(G):
    table = character_table(G)
    N = table.structure_constants
    k = table.num_irreducibles
    assert np.array_equal(N, N.transpose(1, 0, 2))
    assert np.array_equal(np.einsum("ijm,mkl->ijkl", N, N),
                          np.einsum("jkm,iml->ijkl", N, N))
    triv = VirtualCharacter.trivial_character(G).coeffs.index(1)
    assert np.array_equal(N[triv], np.eye(k, dtype=N.dtype))


def _by_degree(G, d):
    table = character_table(G)
    return [i for i, di in enumerate(table.degrees) if di == d]


def test_s4_standard_square():
    G = symmetric_group(4)
    triv = VirtualCharacter.trivial_character(G)
    (two,) = _by_degree(G, 2)
    threes = _by_degree(G, 3)
    expected = triv.add(VirtualCharacter.irreducible(G, two))
    for i in threes:
        expected = expected.add(VirtualCharacter.irreducible(G, i))
    for i in threes:  # std and std (x) sign square to 1 + 2 + 3 + 3'
        std = VirtualCharacter.irreducible(G, i)
        assert std.mul(std) == expected


def test_a5_three_square():
    G = _a5()
    assert character_table(G).degrees == (1, 3, 3, 4, 5)
    triv = VirtualCharacter.trivial_character(G)
    (five,) = _by_degree(G, 5)
    for i in _by_degree(G, 3):  # 3 (x) 3 = 1 + 3 + 5, with the same 3
        three = VirtualCharacter.irreducible(G, i)
        assert three.mul(three) == triv.add(three).add(VirtualCharacter.irreducible(G, five))


@pytest.mark.parametrize("G", [symmetric_group(4), dihedral_group(16)], ids=lambda G: G.label)
def test_rational_products_are_exact(G):
    idem = idempotents(G)
    table = character_table(G)
    assert idem.e_plus.coeffs == tuple(Fraction(d, G.order) for d in table.degrees)
    for a in (idem.e_plus, idem.e_minus):
        for b in (idem.e_plus, idem.e_minus):
            assert a.mul(b).coeffs == _oracle_product(G, a, b)
    third = VirtualCharacter.from_coeffs(G, [Fraction(i + 1, 3)
                                             for i in range(len(table.degrees))])
    assert third.mul(idem.e_minus).coeffs == _oracle_product(G, third, idem.e_minus)


def test_mul_rejects_other_group():
    a = VirtualCharacter.trivial_character(symmetric_group(3))
    b = VirtualCharacter.trivial_character(cyclic_group(6))
    with pytest.raises(GroupMismatch):
        a.mul(b)


# ---------------------------------------------------------------------------
# The multiplicity array V and the integer orthogonality check
# ---------------------------------------------------------------------------

# sha256 prefixes of the rows (as strings) and of the structure constants N,
# recorded from the tables built before V was kept: the rows built from V and
# the N built from V's residues must not move
GOLDEN = {
    "C1": ("214b712f4983cc1c", "7c9fa136d4413fa6"),
    "C2": ("eb57eeb75b446abb", "570d9df4d176b54b"),
    "C3": ("0b7dcc272c760c51", "cb37f4ba02812e0f"),
    "C4": ("9a09a0e39ac6fa35", "320afa61886ef862"),
    "C6": ("5de2682c7dd3db83", "be2eb782eae5d4fd"),
    "C12": ("7cd300bf0bf43cc3", "4ab498d0951ab6f7"),
    "S3": ("561c0a68b9117a17", "97bfb3378b2e8449"),
    "S4": ("7cfb9316683117be", "45ed3cff8ca00c02"),
    "D6": ("561c0a68b9117a17", "97bfb3378b2e8449"),
    "D8": ("31a5b2c3a78af23e", "1aa4483a2ad4f605"),
    "D12": ("fef670e78dab0a17", "1f4d292e9d842326"),
    "E4": ("6f998e51ed3ad90e", "431c6eae27476646"),
    "E8": ("8563dcc1f3470c48", "abeeea2bd608d186"),
    "E9": ("107405b8a4d4638f", "6b52ed4ec8e6a7da"),
    "E4xS3": ("e325d299e2d2623d", "3c3eee34953a1c8e"),
    "P12": ("a47fe5c8feed8ddd", "cb04930648a7873c"),        # A4
    "P8": ("31a5b2c3a78af23e", "1aa4483a2ad4f605"),         # Q8
    "P60": ("76fa3bae1d38109e", "666a974869d4ba47"),        # A5
    "S5": ("ee3e3d94f581c483", "70973cefe5fb160f"),
    "D16": ("a9361445c5093091", "bf6bb41712ef01d6"),
    "D16xC2": ("fb2cafd5f883d56b", "8d82d65aefb73bce"),
    "C4xC4": ("37d4925f861569b8", "d89438b77a7e9941"),
    "D48": ("8adedaaedeb8953a", "bee29e08f53ae94f"),
    "D64": ("7a4fa20214a8780f", "c08117ead88eda25"),
    "S6": ("bb2200835c32e86c", "fa895b1c71ed03a3"),
    "S3xS4": ("d94685691ace1692", "a448887be5b38f67"),
    "S4xC5": ("23e6cd965754f850", "c4dcdcd386efb5f3"),
    "E16xS3": ("c8540d49f47d0005", "048f61209c473c97"),
    "C128": ("b7b24fd4a5b65f4c", "64abc077cc75d2e7"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _golden_groups():
    return BATTERY + [cyclic_group(1), _a4(), _q8(), _a5(), symmetric_group(5),
                      dihedral_group(16), product_group(dihedral_group(16), cyclic_group(2)),
                      product_group(cyclic_group(4), cyclic_group(4))]


def _large_golden_groups():
    """Pinned by hash only: the k^2 exact sums of the multiplicity test below
    are slow at k = 128."""
    S3, S4 = symmetric_group(3), symmetric_group(4)
    return [dihedral_group(48), dihedral_group(64), symmetric_group(6),
            product_group(S3, S4), product_group(S4, cyclic_group(5)),
            product_group(elementary_abelian_group(2, 4), S3), cyclic_group(128)]


@pytest.mark.parametrize("G", _golden_groups() + _large_golden_groups(), ids=lambda G: G.label)
def test_rows_and_structure_constants_unchanged(G):
    table = character_table(G)
    rows, N = GOLDEN[G.label]
    assert _sha(repr([[str(v) for v in r] for r in table.irreducibles]).encode()) == rows
    assert _sha(table.structure_constants.tobytes()) == N


@pytest.mark.parametrize("G", _golden_groups(), ids=lambda G: G.label)
def test_rows_are_the_multiplicity_sums(G):
    """chi_i(c) = sum_u V[i, c, u] zeta_e^u, the eigenvalue count being d_i."""
    table = character_table(G)
    V = table.multiplicities
    k, e = table.num_irreducibles, table.exponent
    assert V.shape == (k, k, e) and V.dtype == np.int64 and not V.flags.writeable
    assert np.array_equal(V.sum(axis=2), np.repeat([table.degrees], k, axis=0).T)
    for i in range(k):
        for c in range(k):
            value = Cyclotomic.zero(e)
            for u in np.flatnonzero(V[i, c]):
                value = value + int(V[i, c, u]) * Cyclotomic.root_of_unity(e, int(u))
            assert value == table.irreducibles[i][c]


def test_multiplicities_are_not_compared():
    G = symmetric_group(3)
    table = character_table(G)
    assert dataclasses.replace(table, multiplicities=np.zeros(1)) == table


@pytest.mark.parametrize("G", BATTERY + [_a5(), symmetric_group(5),
                                         product_group(dihedral_group(16), cyclic_group(2))],
                         ids=lambda G: G.label)
def test_orthogonality_agrees_with_cyclotomic_oracle(G):
    table = character_table(G)
    table.verify_orthogonality()
    assert cyclotomic_orthogonality(table) is None


def _corruptions(V, degrees, count, seed):
    """Seeded copies of V with one entry moved by +1 or -1 inside [0, d_i]."""
    rng = np.random.default_rng(seed)
    d = np.array(degrees)[:, None, None]
    for _ in range(count):
        delta = int(rng.choice([-1, 1]))
        spots = np.argwhere(V > 0 if delta < 0 else V < d)
        i, c, u = spots[rng.integers(len(spots))]
        W = V.copy()
        W[i, c, u] += delta
        yield W


@pytest.mark.parametrize("G", [symmetric_group(4), dihedral_group(16), _a5(),
                               product_group(cyclic_group(4), cyclic_group(4))],
                         ids=lambda G: G.label)
def test_corrupted_multiplicities_fail(G):
    table = character_table(G)
    for W in _corruptions(table.multiplicities, table.degrees, 12, seed=G.order):
        with pytest.raises(InvariantViolation, match="orthogonality"):
            dataclasses.replace(table, multiplicities=W).verify_orthogonality()
        # the same corruption, rows rebuilt from it, fails the oracle as well
        broken = _canonical_table(G, table.exponent, W, list(table.degrees))
        assert cyclotomic_orthogonality(broken) is not None
        with pytest.raises(InvariantViolation):
            broken.verify_orthogonality()


def test_multiplicities_out_of_range_fail():
    G = symmetric_group(4)
    table = character_table(G)
    for i, c, u, value in ((0, 1, 0, -1), (3, 0, 0, 4)):
        W = table.multiplicities.copy()
        W[i, c, u] = value
        with pytest.raises(InvariantViolation, match=r"\[0, d_i\]"):
            dataclasses.replace(table, multiplicities=W).verify_orthogonality()


def test_orthogonality_refuses_sums_beyond_exact_float64():
    """The float64 matmuls are exact while e |G| d^2 < 2^53: S4 (e = 12,
    d <= 3) with an order of 2^50 claimed is past it and refused."""
    table = character_table(symmetric_group(4))
    with pytest.raises(InvariantViolation, match="2\\^53"):
        dataclasses.replace(table, order=1 << 50).verify_orthogonality()


def test_dropped_group_is_freed_and_its_table_still_works():
    """The group caches its table and the table keeps no reference back, so
    no reference cycle keeps a dropped group (and its Cayley table) alive, and
    the table answers without it."""
    G = symmetric_group(4)
    table = character_table(G)
    alive = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert alive() is None
    finally:
        gc.enable()
    H = symmetric_group(4)
    assert table.order == 24
    assert table.class_sizes() == [c.size for c in H.conjugacy_classes()]
    table.verify_orthogonality()
    assert np.array_equal(table.structure_constants,
                          character_table(H).structure_constants)


# ---------------------------------------------------------------------------
# Class-algebra splitting
# ---------------------------------------------------------------------------


def _recorded_splits(monkeypatch, module):
    """Record the arguments and result of every split_class_algebra call
    made through module."""
    split, calls = characters.split_class_algebra, []

    def spy(*args):
        out = split(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, "split_class_algebra", spy)
    return calls


def _split_sha(out):
    return _sha(repr(sorted((tuple(w), d) for w, d in out)).encode())


def _check_central_characters(a, n, p, out):
    """Each omega is an algebra map of the class algebra mod p, 1 on the unit,
    the omegas are distinct, one per class, and the degrees square-sum to n."""
    a = np.asarray(a) % p
    omegas = np.array([w for w, _ in out], dtype=np.int64)
    assert len(out) == a.shape[0] == len({tuple(w) for w in omegas.tolist()})
    assert (omegas[:, 0] == 1).all()
    lhs = omegas[:, :, None] * omegas[:, None, :] % p                  # omega_i omega_j
    assert np.array_equal(lhs, np.einsum("ijl,wl->wij", a, omegas) % p)
    assert sum(d * d for _, d in out) == n


# sorted (omega, d) of the splits, the same for every seed
SPLIT_GOLDEN = {
    "S6": "829cecdffa6700ba",
    "D48": "59d5b434aab52160",
    "S3xS4": "4d31683b47c4401f",
    "E16xS3": "9eaa4aa9784e1493",
    "C100": "bed41187ceb115d4",
    "D64": "65ec7c1aba85df09",
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("make", [lambda: symmetric_group(6), lambda: dihedral_group(48),
                                  lambda: product_group(symmetric_group(3), symmetric_group(4)),
                                  lambda: product_group(elementary_abelian_group(2, 4),
                                                        symmetric_group(3)),
                                  lambda: dihedral_group(64)],
                         ids=["S6", "D48", "S3xS4", "E16xS3", "D64"])
def test_dixon_split_unchanged(monkeypatch, make, seed):
    calls = _recorded_splits(monkeypatch, characters)
    G = make()
    character_table(G, seed)
    [((a, _, n, p, _), out)] = calls
    assert _split_sha(out) == SPLIT_GOLDEN[G.label]
    _check_central_characters(a, n, p, out)


def test_split_cluster_path(monkeypatch):
    """E16xS3 has 48 classes but Dixon's prime is 31: no draw can separate
    48 eigenvalues in F_31, so eigenspaces are read off reduced rows over
    several rounds, every root's A - lam in one stacked elimination."""
    calls = _recorded_splits(monkeypatch, characters)
    eliminate, stacks = characters.eliminate_stack_mod_p, []

    def counting(M, p):
        stacks.append(M.shape)
        return eliminate(M, p)

    monkeypatch.setattr(characters, "eliminate_stack_mod_p", counting)
    G = product_group(elementary_abelian_group(2, 4), symmetric_group(3))
    character_table(G)
    [((a, _, n, p, _), out)] = calls
    assert p == 31 and len(out) == 48
    assert stacks and stacks[0][1:] == (48, 48)
    _check_central_characters(a, n, p, out)


@pytest.mark.parametrize("chunk", [1, 3 * 19 * 19, 3 * 48 * 48])
@pytest.mark.parametrize("make", [lambda: dihedral_group(64),
                                  lambda: product_group(elementary_abelian_group(2, 4),
                                                        symmetric_group(3))],
                         ids=["D64", "E16xS3"])
def test_split_chunks_do_not_show(monkeypatch, make, chunk):
    """One root per stacked elimination, or three on a space of dimension 19
    or 48, splits in the same order as the default chunk."""
    calls = _recorded_splits(monkeypatch, characters)
    character_table(make(), 3)
    monkeypatch.setattr(characters, "_STACK_CHUNK", chunk)
    character_table(make(), 3)
    [(_, default), (_, chunked)] = calls
    assert chunked == default


@pytest.mark.parametrize("seed", [0, 5])
def test_split_line_path(monkeypatch, seed):
    """The trivial cocycle of C100: a first draw with 100 distinct
    eigenvalues gives every eigenline from one inverse, with no elimination
    of A - lam."""
    calls = _recorded_splits(monkeypatch, twisted)

    def refuse(*args):
        raise AssertionError("the line path eliminates no A - lam")

    monkeypatch.setattr(characters, "eliminate_stack_mod_p", refuse)
    C = cyclic_group(100)
    assert wedderburn_dims(build_twisted(C, TwoCocycle.trivial(C, 100)), seed).dims == (1,) * 100
    [((a, _, n, p, _), out)] = calls
    assert _split_sha(out) == SPLIT_GOLDEN["C100"]
    _check_central_characters(a, n, p, out)


@pytest.mark.parametrize("G", _golden_groups() + _large_golden_groups(), ids=lambda G: G.label)
def test_power_classes_match_the_power_loop(G):
    """The Cayley walk of Dixon's table gives the class of r^t for t below
    the order of each representative r, as G.power does one at a time."""
    reps = G.class_representatives()
    orders = G.element_orders()[reps]
    for o in np.unique(orders).tolist():
        rs = reps[orders == o]
        want = [[G.class_index_of(G.power(int(r), t)) for t in range(o)] for r in rs]
        got = _power_classes(G, rs, o)
        assert got.dtype == np.int64 and got.tolist() == want


def _poly_product(factors, p):
    """Coefficients, highest degree first, of the product of the factors mod p."""
    f = np.ones(1, dtype=np.int64)
    for g in factors:
        f = np.convolve(f, np.asarray(g, dtype=np.int64)) % p
    return f


@pytest.mark.parametrize("p", [17, 577, 18433, 70001, 1465231])
def test_poly_roots_match_cantor_zassenhaus(p):
    """The roots found by evaluation on all of F_p equal those Cantor-Zassenhaus
    finds on coefficient lists, on seeded polynomials of degree up to 128: a
    product of distinct linear factors, and one with a repeated root and
    irreducible quadratic factors x^2 + b x + c (b^2 - 4c a non-residue);
    scaled by a unit and with leading zeros."""
    rng = np.random.default_rng(p)
    nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    for degree in (1, 2, 9, 40, 128):
        roots = [int(x) for x in rng.choice(p, size=min(degree, p), replace=False)]
        linear = [[1, -x % p] for x in roots]
        quadratics = []
        for _ in range(degree // 8):
            b, s = int(rng.integers(p)), int(rng.integers(1, p))
            quadratics.append([1, b, (b * b - nonresidue * s * s) * pow(4, -1, p) % p])
        mixed = linear[:max(1, len(linear) - 3 * len(quadratics))]
        for factors, want in ((linear, roots), (mixed + mixed[:1] + quadratics, [-c % p for _, c in mixed])):
            f = _poly_product(factors, p) * int(rng.integers(1, p)) % p
            got = characters._poly_roots(np.concatenate([[0, p], f]), p).tolist()
            assert got == sorted(want)
            assert got == cantor_zassenhaus_roots(f[::-1].tolist(), p, random.Random(degree))

