import functools

import numpy as np
import pytest

from motivelab.cocycles import (
    CoboundaryWitness,
    TwoCocycle,
    central_pairing_cocycle,
    class_arith,
    class_of,
    cocycle_in_space,
    cocycle_space,
    cocycle_validate,
    is_cohomologous,
    random_cocycle,
    schur_multiplier,
    verify_witness,
)
from motivelab.errors import BadModulus, ModulusMismatch, NotACocycle, NotAbelian, SizeBound
from motivelab.groups import (
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    product_group,
    symmetric_group,
)
from motivelab.intlinalg import in_span_mod


def _valid(alpha):
    return cocycle_validate(alpha.group, alpha.modulus, alpha.table).ok


def test_validate_trivial():
    G = symmetric_group(3)
    assert _valid(TwoCocycle.trivial(G, 6))


def test_validate_central_pairing():
    alpha = central_pairing_cocycle(cyclic_group(2))
    assert _valid(alpha)
    assert alpha.modulus == 2


def test_validate_flags_perturbation():
    alpha = central_pairing_cocycle(cyclic_group(2))
    table = [list(r) for r in alpha.table]
    table[2][3] = (table[2][3] + 1) % 2
    report = cocycle_validate(alpha.group, 2, table)
    assert not report.ok
    assert report.triple is not None
    with pytest.raises(NotACocycle, match="cocycle identity"):
        TwoCocycle.from_exponents(alpha.group, 2, table)


def test_validate_normalization():
    G = cyclic_group(2)
    report = cocycle_validate(G, 2, [[1, 0], [0, 0]])
    assert not report.ok and "normalization" in report.message
    with pytest.raises(NotACocycle, match="normalization"):
        TwoCocycle.from_exponents(G, 2, [[1, 0], [0, 0]])


def test_validate_typed_errors_on_raw_data():
    G = cyclic_group(2)
    for table in ([[0, 0]], [[0, 0], [0]], [[0, 0], 5], [[0, {}], [0, 0]]):
        with pytest.raises(NotACocycle):
            cocycle_validate(G, 2, table)
        with pytest.raises(NotACocycle):
            TwoCocycle.from_exponents(G, 2, table)
    # exponents are reduced first: the identity is checked on residues
    assert cocycle_validate(G, 2, [[4, -2], [10**30, 7]]).ok
    assert TwoCocycle.from_exponents(G, 2, [[4, -2], [10**30, 7]]).table == ((0, 0), (0, 1))


def _first_failure(G, m, table):
    """Reference: the first failing triple, by a direct loop over all of them."""
    n = G.order
    e = [[x % m for x in row] for row in table]
    for s in range(n):
        if e[0][s] or e[s][0]:
            return (0, s, 0)
    for tau in range(n):
        for rho in range(n):
            for sigma in range(n):
                if (e[rho][sigma] + e[tau][G.mul(rho, sigma)] - e[tau][rho]
                        - e[G.mul(tau, rho)][sigma]) % m:
                    return (tau, rho, sigma)
    return None


def test_validate_matches_triple_loop():
    rng = np.random.default_rng(9)
    for G in (cyclic_group(6), symmetric_group(3), dihedral_group(8)):
        n = G.order
        for m in (2, 12, (1 << 62) - 1):
            for changes in range(3):
                f = [0] + [int(x) for x in rng.integers(0, m, n - 1)]
                table = [[(f[r] + f[s] - f[G.mul(r, s)]) % m for s in range(n)]
                         for r in range(n)]
                for _ in range(changes):
                    i, j = (int(x) for x in rng.integers(0, n, 2))
                    table[i][j] = int(rng.integers(-m, 2 * m))
                report = cocycle_validate(G, m, table)
                assert report.triple == _first_failure(G, m, table)
                assert report.ok == (report.triple is None)


def test_modulus_bound():
    """int64 sums of two residues below 2^62 cannot wrap; larger moduli are refused."""
    G = cyclic_group(4)
    big = (1 << 62) - 1
    f = [0, big - 1, big - 2, big - 3]
    table = [[(f[r] + f[s] - f[G.mul(r, s)]) % big for s in range(4)] for r in range(4)]
    assert TwoCocycle.from_exponents(G, big, table).power(3).table == \
        tuple(tuple(3 * x % big for x in row) for row in table)
    table[1][2] = (table[1][2] + big - 1) % big
    assert not cocycle_validate(G, big, table).ok
    for m in (1 << 62, 10**20):
        with pytest.raises(BadModulus):
            cocycle_validate(G, m, [[0] * 4] * 4)
        with pytest.raises(BadModulus):
            TwoCocycle.from_exponents(G, m, [[0] * 4] * 4)


@pytest.mark.parametrize("seed", range(24))
def test_single_entry_corruptions_rejected_above_order_64(seed):
    """A change of entry (i, j) off row and column 0 breaks the identity at the
    triple (g, i, j) for every g other than 1 and i; the entry check finds it
    at every order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(65, 257))
    G = dihedral_group(n + n % 2) if seed % 2 else cyclic_group(n)
    m = (2, 3, G.order, 10**12)[seed % 4]
    f = [0] + [int(x) for x in rng.integers(0, m, size=G.order - 1)]
    t = G.cayley
    table = [[(f[r] + f[s] - f[int(t[r, s])]) % m for s in range(G.order)]
             for r in range(G.order)]
    base = TwoCocycle.from_exponents(G, m, table)
    assert base.table == tuple(map(tuple, table))
    broken = [list(r) for r in table]
    i, j = (int(x) for x in rng.integers(1, G.order, size=2))
    broken[i][j] = (broken[i][j] + int(rng.integers(1, m))) % m
    assert not cocycle_validate(G, m, broken).ok
    with pytest.raises(NotACocycle):
        TwoCocycle.from_exponents(G, m, broken)


def test_trusted_operations_yield_cocycles():
    """The operations that skip the entry check all return tables the check accepts."""
    from motivelab.groups import all_subgroups
    rng = np.random.default_rng(11)
    for G in (dihedral_group(8), symmetric_group(3), product_group(cyclic_group(2), cyclic_group(4))):
        n = G.order
        a, b = random_cocycle(G, n, rng), random_cocycle(G, n, rng)
        out = [a, b, a.mul(b), a.power(3), a.power(-5), a.inverse_cocycle(),
               a.promote(3 * n), TwoCocycle.trivial(G, n)]
        out += [a.restrict(H) for H in all_subgroups(G)]
        out += list(schur_multiplier(G).section)
        for alpha in out:
            assert _valid(alpha)
            assert all(0 <= x < alpha.modulus for row in alpha.table for x in row)
    for H in (cyclic_group(2), cyclic_group(6), elementary_abelian_group(2, 2)):
        assert _valid(central_pairing_cocycle(H))
    M = schur_multiplier(product_group(cyclic_group(6), cyclic_group(6)), max_group_order=36)
    assert all(_valid(alpha) for alpha in M.section)


def test_cocycle_space_trivial_group():
    space = cocycle_space(cyclic_group(1), 5)
    assert space == ()


def test_cocycle_space_c2_size_two():
    space = cocycle_space(cyclic_group(2), 2)
    assert len(space) == 1
    # the whole space: trivial table and the nontrivial one
    assert list(space[0]) == [0, 0, 0, 1]


def test_cocycle_space_contains_pairing():
    alpha = central_pairing_cocycle(cyclic_group(2))
    space = cocycle_space(alpha.group, 2)
    assert cocycle_in_space(space, alpha)


def test_cocycle_space_contains_random_members():
    rng = np.random.default_rng(0)
    for G in (cyclic_group(4), symmetric_group(3), elementary_abelian_group(2, 2)):
        n = G.order
        space = cocycle_space(G, n)
        for _ in range(10):
            alpha = random_cocycle(G, n, rng)
            assert _valid(alpha)
            assert cocycle_in_space(space, alpha)


def test_cocycle_space_composite_modulus_spans_every_cocycle():
    # the zipped generators mod 6 must reach every cocycle on S3 mod 6:
    # each sum of a mod-2 and a mod-3 cocycle, built from the prime spaces
    G = symmetric_group(3)
    space = cocycle_space(G, 6)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a2 = random_cocycle(G, 2, rng).promote(6)
        a3 = random_cocycle(G, 3, rng).promote(6)
        assert cocycle_in_space(space, a2.mul(a3))
    broken = [list(r) for r in TwoCocycle.trivial(G, 6).table]
    broken[1][2] = 1
    assert not in_span_mod(space, [x for row in broken for x in row], 6)
    with pytest.raises(NotACocycle):
        TwoCocycle.from_exponents(G, 6, broken)


def test_bad_modulus_is_typed():
    G = cyclic_group(2)
    for n in (0, -2):
        with pytest.raises(BadModulus):
            TwoCocycle.trivial(G, n)
        with pytest.raises(BadModulus):
            cocycle_space(G, n)


def test_central_pairing_needs_abelian_group():
    with pytest.raises(NotAbelian):
        central_pairing_cocycle(symmetric_group(3))


def test_cocycle_space_guard():
    with pytest.raises(SizeBound):
        cocycle_space(dihedral_group(256), 2)


def test_is_cohomologous_reflexive():
    G = symmetric_group(3)
    alpha = TwoCocycle.trivial(G, 6)
    w = is_cohomologous(alpha, alpha)
    assert w is not None
    assert all(v == 0 for v in w.values)


def test_c2_nontrivial_cocycle_trivializes_over_cx():
    # H^2(C2, C^x) = 0, but the witness needs fourth roots of unity
    G = cyclic_group(2)
    nt = TwoCocycle.from_exponents(G, 2, [[0, 0], [0, 1]])
    w = is_cohomologous(nt, TwoCocycle.trivial(G, 2))
    assert w is not None
    assert verify_witness(nt, TwoCocycle.trivial(G, 2), w)
    assert w.modulus == 4


def test_pairing_not_cohomologous_to_trivial():
    alpha = central_pairing_cocycle(cyclic_group(2))
    assert is_cohomologous(alpha, TwoCocycle.trivial(alpha.group, 2)) is None


def test_modulus_mismatch():
    G = cyclic_group(2)
    with pytest.raises(ModulusMismatch):
        is_cohomologous(TwoCocycle.trivial(G, 2), TwoCocycle.trivial(G, 4))


def test_witness_modulus_beyond_int64_is_bad_modulus():
    # the cocycle modulus 2^61 is accepted, but the witness needs 2^61 * exp(C4)
    G = cyclic_group(4)
    alpha = TwoCocycle.trivial(G, 2**61)
    with pytest.raises(BadModulus):
        is_cohomologous(alpha, alpha)
    with pytest.raises(BadModulus):
        verify_witness(alpha, alpha, CoboundaryWitness(2**63, (0,) * 4))


def test_schur_multiplier_table():
    cases = [
        (cyclic_group(6), ()),
        (symmetric_group(4), (2,)),
        (dihedral_group(8), (2,)),
        (dihedral_group(6), ()),
        (elementary_abelian_group(2, 2), (2,)),
        (elementary_abelian_group(2, 3), (2, 2, 2)),
        (elementary_abelian_group(3, 2), (3,)),
    ]
    for G, expected in cases:
        assert schur_multiplier(G).invariant_factors == expected


def test_multiplier_guard():
    with pytest.raises(SizeBound):
        schur_multiplier(symmetric_group(5))  # default guard is 48


def test_class_of_coboundary_is_zero():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    n = G.order
    # build a coboundary from a random function with d(1) = 0
    rng = np.random.default_rng(1)
    d = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
    table = [[(d[r] + d[s] - d[G.mul(r, s)]) % n for s in G.elements()]
             for r in G.elements()]
    cls = M.class_of(TwoCocycle.from_exponents(G, n, table))
    assert cls.is_trivial()


def test_class_of_rejects_non_cocycle():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    bad = [[0] * 4 for _ in range(4)]
    bad[1][2] = 1
    bad[2][1] = 3
    with pytest.raises(NotACocycle):
        M.class_of(TwoCocycle.from_exponents(G, 4, bad))


def test_class_of_is_homomorphism():
    G = elementary_abelian_group(2, 3)
    M = schur_multiplier(G)
    rng = np.random.default_rng(2)
    n = G.order
    for _ in range(8):
        a = random_cocycle(G, n, rng)
        b = random_cocycle(G, n, rng)
        ca, cb = M.class_of(a), M.class_of(b)
        prod = M.class_of(a.mul(b))
        combined = tuple((x + y) % d for x, y, d in
                         zip(ca.coords, cb.coords, M.invariant_factors))
        assert prod.coords == combined


def test_class_of_matches_is_cohomologous():
    rng = np.random.default_rng(3)
    for G in (elementary_abelian_group(2, 2), dihedral_group(8), cyclic_group(4)):
        M = schur_multiplier(G)
        n = G.order
        for _ in range(10):
            a = random_cocycle(G, n, rng)
            b = random_cocycle(G, n, rng)
            assert (M.class_of(a) == M.class_of(b)) == \
                (is_cohomologous(a, b) is not None)


def test_class_arith():
    alpha = central_pairing_cocycle(cyclic_group(2))
    G = alpha.group
    M = schur_multiplier(G)
    cls = M.class_of(alpha.promote(G.order))
    assert not cls.is_trivial()
    assert class_arith("mul", cls, class_arith("inv", cls)).is_trivial()
    assert class_arith("pow", cls, 2).is_trivial()
    triv = M.trivial_class()
    assert class_arith("mul", triv, cls) == cls


def test_every_class_order_divides_group_order():
    for G in (elementary_abelian_group(2, 3), symmetric_group(4), dihedral_group(12)):
        M = schur_multiplier(G)
        for d in M.invariant_factors:
            assert G.order % d == 0


def test_class_group_structure():
    """The classes form an abelian group of the reported order."""
    G = elementary_abelian_group(2, 3)
    M = schur_multiplier(G)
    assert M.order == 8
    seen = set()
    import itertools
    for coords in itertools.product(*(range(d) for d in M.invariant_factors)):
        cls = M.class_from_coords(coords)
        assert M.project(cls.representative) == coords
        seen.add(cls.coords)
    assert len(seen) == M.order


def test_section_representatives_have_declared_order():
    for G in (elementary_abelian_group(2, 2), dihedral_group(8),
              elementary_abelian_group(3, 2)):
        M = schur_multiplier(G)
        for d, gen in zip(M.invariant_factors, M.section):
            cls = M.class_of(gen)
            for k in range(1, d):
                assert not cls.power(k).is_trivial()
            assert cls.power(d).is_trivial()


def test_restrict_cocycle():
    alpha = central_pairing_cocycle(cyclic_group(2))
    G = alpha.group
    H = G.subgroup([0, 1])
    res = alpha.restrict(H)
    assert res.group.order == 2
    assert _valid(res)


def test_promote_values():
    G = cyclic_group(2)
    nt = TwoCocycle.from_exponents(G, 2, [[0, 0], [0, 1]])
    up = nt.promote(6)
    assert up.table[1][1] == 3  # same root of unity: zeta_2 = zeta_6^3


# ---------------------------------------------------------------------------
# First-principles oracle: exhaustive cochain enumeration
# ---------------------------------------------------------------------------


def _brute_cocycles(G, n):
    """All normalized cocycle tables mod n, by enumerating every table."""
    import itertools
    size = G.order
    free = [(r, s) for r in range(1, size) for s in range(1, size)]
    t = G.cayley
    combos = np.array(list(itertools.product(range(n), repeat=len(free))),
                      dtype=np.int64)
    tables = np.zeros((len(combos), size, size), dtype=np.int64)
    for idx, (r, s) in enumerate(free):
        tables[:, r, s] = combos[:, idx]
    ok = np.ones(len(combos), dtype=bool)
    for tau in range(size):
        for rho in range(size):
            for sigma in range(size):
                lhs = tables[:, rho, sigma] + tables[:, tau, t[rho, sigma]]
                rhs = tables[:, tau, rho] + tables[:, t[tau, rho], sigma]
                ok &= (lhs - rhs) % n == 0
    return {tuple(map(tuple, tab)) for tab in tables[ok]}


def _brute_trivial_span(G, n):
    """Subgroup generated by coboundaries and carry classes, as tables."""
    size = G.order
    gens = []
    for h in range(1, size):
        d = [0] * size
        d[h] = 1
        gens.append(tuple(tuple((d[r] + d[s] - d[G.mul(r, s)]) % n
                                for s in range(size)) for r in range(size)))
    from motivelab.cocycles import _characters_mod
    for a in _characters_mod(G, n):
        gens.append(tuple(tuple((a[r] + a[s] - a[G.mul(r, s)]) // n % n
                                for s in range(size)) for r in range(size)))
    span = {tuple(tuple(0 for _ in range(size)) for _ in range(size))}
    frontier = list(span)
    while frontier:
        base = frontier.pop()
        for g in gens:
            new = tuple(tuple((x + y) % n for x, y in zip(br, gr))
                        for br, gr in zip(base, g))
            if new not in span:
                span.add(new)
                frontier.append(new)
    return span


@pytest.mark.parametrize("make,label", [
    (lambda: cyclic_group(2), "C2"),
    (lambda: cyclic_group(3), "C3"),
    (lambda: cyclic_group(4), "C4"),
    (lambda: elementary_abelian_group(2, 2), "E4"),
])
def test_multiplier_against_exhaustive_enumeration(make, label):
    """Brute-force Z^2 mod coboundaries and carry classes must reproduce the
    multiplier order and classify every table identically."""
    G = make()
    n = G.order
    cocycles = _brute_cocycles(G, n)
    span = _brute_trivial_span(G, n)
    assert span <= cocycles
    M = schur_multiplier(G)
    assert len(cocycles) // len(span) == M.order, label
    # classwise agreement on every enumerated table
    for tab in cocycles:
        alpha = TwoCocycle.from_exponents(G, n, tab)
        assert M.class_of(alpha).is_trivial() == (tab in span), label


def test_mixed_prime_invariant_factor():
    """A multiplier whose factor mixes primes: M(C6 x C6) = C6."""
    G = product_group(cyclic_group(6), cyclic_group(6))
    M = schur_multiplier(G)
    assert M.invariant_factors == (6,)
    gen = M.class_of(M.section[0])
    for k in range(1, 6):
        assert not gen.power(k).is_trivial()
    assert gen.power(6).is_trivial()


def test_alternating_groups_via_permutations():
    from motivelab.groups import group_from_permutations
    A4 = group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])
    assert A4.order == 12
    assert schur_multiplier(A4).invariant_factors == (2,)
    A5 = group_from_permutations(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    assert A5.order == 60
    assert schur_multiplier(A5, max_group_order=60).invariant_factors == (2,)


def test_cocycle_space_composite_modulus():
    space = cocycle_space(cyclic_group(2), 6)
    # one free entry, unconstrained: the space is all of Z/6
    assert len(space) == 1
    nontrivial = TwoCocycle.from_exponents(cyclic_group(2), 6, [[0, 0], [0, 5]])
    assert cocycle_in_space(space, nontrivial)


def _a4():
    from motivelab.groups import group_from_permutations
    return group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])


def _a5():
    from motivelab.groups import group_from_permutations
    return group_from_permutations(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])


def _permutation_group(degree, gens):
    from motivelab.groups import group_from_permutations
    return lambda: group_from_permutations(degree, gens)


# Q8 by left multiplication on 1, -1, i, -i, j, -j, k, -k; SL(2,3) on the
# nonzero vectors of F_3^2; the Heisenberg group of order 27 as the maps
# (x, y) -> (x + u, y + v x + w) of F_3^2, generated by u = 1 and v = 1
_Q8 = _permutation_group(8, [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]])
_SL23 = _permutation_group(8, [[3, 7, 2, 6, 1, 5, 0, 4], [0, 1, 3, 4, 2, 7, 5, 6]])
_C3XC3 = _permutation_group(6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]])
_HEIS27 = _permutation_group(9, [[3, 4, 5, 6, 7, 8, 0, 1, 2], [0, 1, 2, 4, 5, 3, 8, 6, 7]])


# (group, Schur multiplier) from the literature (Karpilovsky, The Schur
# Multiplier, 1987); D12 x S3 by the Kunneth formula M(D12) x M(S3) x
# (C2 x C2) (x) C2.  A4, S4, A5, S5, D48, S3, C12 and SL(2,3) have cyclic Sylow
# subgroups for some primes, which contribute nothing and are not solved for.
_LITERATURE = {
    "A4": (_a4, (2,)),
    "S4": (lambda: symmetric_group(4), (2,)),
    "A5": (_a5, (2,)),
    "S5": (lambda: symmetric_group(5), (2,)),
    "D48": (lambda: dihedral_group(48), (2,)),
    "S3": (lambda: symmetric_group(3), ()),
    "C12": (lambda: cyclic_group(12), ()),
    "D12xS3": (lambda: product_group(dihedral_group(12), symmetric_group(3)), (2, 2, 2)),
    "Q8": (_Q8, ()),
    "SL(2,3)": (_SL23, ()),
    "C3xC3": (_C3XC3, (3,)),
    "Heisenberg27": (_HEIS27, (3, 3)),
}


@functools.lru_cache(maxsize=None)
def _literature_multiplier(name):
    return schur_multiplier(_LITERATURE[name][0](), max_group_order=120)


@pytest.mark.parametrize("name", list(_LITERATURE))
def test_multiplier_literature_values(name):
    assert _literature_multiplier(name).invariant_factors == _LITERATURE[name][1]


def test_cyclic_sylow_primes_are_not_solved():
    M = _literature_multiplier("S5")
    assert [c.p for c in M._components] == [2]     # Sylow 3 and 5 are cyclic
    assert _literature_multiplier("C12")._components == []
    assert [c.p for c in _literature_multiplier("D12xS3")._components] == [2, 3]


def _coboundary(G, n, rng):
    f = [0] + [int(x) for x in rng.integers(0, n, G.order - 1)]
    return TwoCocycle.from_exponents(
        G, n, [[(f[r] + f[s] - f[G.mul(r, s)]) % n for s in G.elements()]
               for r in G.elements()])


@pytest.mark.parametrize("name", list(_LITERATURE))
def test_project_round_trips(name):
    """class_from_coords(project(alpha)) is the class of alpha, on random
    cocycles: drawn from the whole cocycle space up to order 48, and above
    that a random class times a random coboundary."""
    M = _literature_multiplier(name)
    G, n = M.group, M.modulus
    rng = np.random.default_rng(7)
    for _ in range(4):
        if n <= 48:
            alpha = random_cocycle(G, n, rng)
        else:
            coords = tuple(int(rng.integers(0, d)) for d in M.invariant_factors)
            alpha = M.class_from_coords(coords).representative.mul(_coboundary(G, n, rng))
            assert M.project(alpha) == coords
        coords = M.project(alpha)
        rep = M.class_from_coords(coords).representative
        assert M.project(rep) == coords
        if n <= 24:
            assert is_cohomologous(alpha, rep) is not None
