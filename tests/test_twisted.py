from math import isqrt

import numpy as np
import pytest
from spectral_oracle import _cluster, _min_intercluster_gap, commutation_matrix, spectral_dims

from motivelab.characters import SPLIT_PRIME_LIMIT, _find_prime
from motivelab.cocycles import (
    TwoCocycle,
    central_pairing_cocycle,
    random_cocycle,
    schur_multiplier,
)
from motivelab.errors import InvariantViolation, NotACocycle, SizeBound
from motivelab.groups import (
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_from_permutations,
    product_group,
    symmetric_group,
)
from motivelab.twisted import (
    BLOCK_ORDER_GUARD,
    alpha_regular,
    build_twisted,
    center_basis,
    invariant_copies,
    wedderburn_dims,
)


def _basis_product(algebra, g, h):
    """e_g e_h = zeta^expo e_k; returns (expo, k)."""
    return algebra.cocycle.table[g][h], algebra.group.mul(g, h)


def test_build_trivial_is_group_algebra():
    G = symmetric_group(3)
    algebra = build_twisted(G, TwoCocycle.trivial(G, 6))
    for g in G.elements():
        for h in G.elements():
            expo, k = _basis_product(algebra, g, h)
            assert expo == 0 and k == G.mul(g, h)


def test_build_central_pairing():
    alpha = central_pairing_cocycle(cyclic_group(2))
    algebra = build_twisted(alpha.group, alpha)
    assert algebra.dimension == 4


def test_build_rejects_corrupted_table():
    alpha = central_pairing_cocycle(cyclic_group(2))
    table = [list(r) for r in alpha.table]
    table[3][2] = (table[3][2] + 1) % 2
    with pytest.raises(NotACocycle):
        build_twisted(alpha.group, TwoCocycle.from_exponents(alpha.group, 2, table))


@pytest.mark.parametrize("n,entry", [(256, (17, 40)), (256, (50, 60)), (256, (11, 13)),
                                     (200, (17, 40))])
def test_entry_check_refuses_large_single_flips(n, entry):
    # single flips that a sample of 10,000 triples misses; the exact check
    # refuses them before any algebra is built
    G = cyclic_group(n)
    table = [[0] * n for _ in range(n)]
    table[entry[0]][entry[1]] = 1
    with pytest.raises(NotACocycle, match="cocycle identity fails"):
        TwoCocycle.from_exponents(G, 2, table)


def _central_by_loop(G, alpha, t):
    """Reference for _check_central: a direct loop over every (tau, y)."""
    E, m = alpha.table, alpha.modulus
    for tau in G.elements():
        ti = G.inv(tau)
        for y in G.elements():
            x1, x2 = G.mul(y, ti), G.mul(ti, y)
            if (x1 in t) != (x2 in t):
                return "not conjugation-stable"
            if x1 in t and (t[x1] + E[x1][tau] - t[x2] - E[tau][x2]) % m:
                return "fails exact centrality"
    return None


def test_check_central_matches_loop_and_catches_corruptions():
    from motivelab.twisted import _check_central
    for G, alpha in ((symmetric_group(4), _class_rep(symmetric_group(4), (1,))),
                     (dihedral_group(16), _class_rep(dihedral_group(16), (1,))),
                     (symmetric_group(3), TwoCocycle.trivial(symmetric_group(3), 6))):
        supports = list(build_twisted(G, alpha).center_exponents)
        _check_central(G, alpha, supports)
        assert all(_central_by_loop(G, alpha, t) is None for t in supports)
        i = next(i for i, t in enumerate(supports) if len(t) > 1)
        last = list(supports[i])[-1]
        shifted = {**supports[i], last: (supports[i][last] + 1) % alpha.modulus}
        dropped = {x: v for x, v in supports[i].items() if x != last}
        for bad, message in ((shifted, "fails exact centrality"),
                             (dropped, "not conjugation-stable")):
            assert _central_by_loop(G, alpha, bad) == message
            with pytest.raises(InvariantViolation, match=message):
                _check_central(G, alpha, supports[:i] + [bad] + supports[i + 1:])


def test_regular_trivial_cocycle():
    for G in (symmetric_group(3), dihedral_group(8), cyclic_group(6)):
        reg = alpha_regular(G, TwoCocycle.trivial(G, G.order))
        assert reg.count == len(G.conjugacy_classes())
        assert all(reg.flags)


def test_regular_central_pairing():
    alpha = central_pairing_cocycle(cyclic_group(2))
    reg = alpha_regular(alpha.group, alpha)
    assert reg.count == 1
    assert reg.flags[0]  # the identity class is always regular
    # independent scan over all 16 pairs
    G = alpha.group
    for g in G.elements():
        expected = all(alpha.table[g][h] == alpha.table[h][g]
                       for h in G.elements())  # abelian: centralizer is G
        assert reg.flags[G.class_index_of(g)] == expected


def test_regular_d8_twist():
    G = dihedral_group(8)
    M = schur_multiplier(G)
    alpha = M.class_from_coords((1,)).representative
    reg = alpha_regular(G, alpha)
    assert reg.count < 5
    # frozen oracle value: the twisted algebra splits into two 2x2 blocks
    assert reg.count == 2
    profile = wedderburn_dims(build_twisted(G, alpha))
    assert profile.dims == (2, 2)


def test_center_trivial_cocycle_class_sums():
    G = symmetric_group(3)
    algebra = build_twisted(G, TwoCocycle.trivial(G, 6))
    basis = center_basis(algebra)
    assert len(basis) == 3
    # each vector is the indicator of one conjugacy class
    from motivelab.cyclotomic import Cyclotomic
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    supports = sorted(tuple(i for i, v in enumerate(vec) if v == one)
                      for vec in basis)
    classes = sorted(c.members for c in G.conjugacy_classes())
    assert supports == classes


def test_center_central_pairing_is_scalars():
    alpha = central_pairing_cocycle(cyclic_group(2))
    algebra = build_twisted(alpha.group, alpha)
    assert len(center_basis(algebra)) == 1


def test_center_coboundary_shift_keeps_dimension():
    G = elementary_abelian_group(2, 2)
    n = G.order
    rng = np.random.default_rng(4)
    d = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
    table = [[(d[r] + d[s] - d[G.mul(r, s)]) % n for s in G.elements()]
             for r in G.elements()]
    algebra = build_twisted(G, TwoCocycle.from_exponents(G, n, table))
    assert len(center_basis(algebra)) == len(G.conjugacy_classes())


def test_center_matches_numeric_nullspace():
    """Independent oracle: numeric kernel of the commutation equations."""
    rng = np.random.default_rng(8)
    for G in (cyclic_group(4), elementary_abelian_group(2, 2), symmetric_group(3)):
        alpha = random_cocycle(G, G.order, rng)
        exact_dim = len(center_basis(build_twisted(G, alpha)))
        numeric_dim = G.order - np.linalg.matrix_rank(commutation_matrix(G, alpha), tol=1e-9)
        assert exact_dim == numeric_dim


def test_wedderburn_profiles():
    S3 = symmetric_group(3)
    assert wedderburn_dims(build_twisted(S3, TwoCocycle.trivial(S3, 6))).dims == (1, 1, 2)
    alpha = central_pairing_cocycle(cyclic_group(2))
    assert wedderburn_dims(build_twisted(alpha.group, alpha)).dims == (2,)
    for n in (3, 5, 7):
        C = cyclic_group(n)
        assert wedderburn_dims(build_twisted(C, TwoCocycle.trivial(C, n))).dims == (1,) * n


def test_wedderburn_seed_stability():
    alpha = central_pairing_cocycle(cyclic_group(3))
    algebra = build_twisted(alpha.group, alpha)
    for seed in (0, 1, 17):
        assert wedderburn_dims(algebra, seed=seed).dims == (3,)


def test_wedderburn_guard():
    G = dihedral_group(1024)
    with pytest.raises(SizeBound):
        wedderburn_dims(build_twisted(G, TwoCocycle.trivial(G, 2)))


def _shift_to_modulus(alpha, m, rng):
    """alpha promoted to modulus m, plus a random coboundary mod m."""
    G = alpha.group
    s = m // alpha.modulus
    d = [0] + [int(x) for x in rng.integers(0, m, size=G.order - 1)]
    table = [[(s * int(alpha.table[r, t]) + d[r] + d[t] - d[G.mul(r, t)]) % m
              for t in G.elements()] for r in G.elements()]
    return TwoCocycle.from_exponents(G, m, table)


@pytest.mark.parametrize("m", [2**20, 3 * 2**20, 10**12])
def test_wedderburn_modulus_above_group_order(m):
    # the value group of alpha has order far above |G|; the dims only see the
    # class, through a cohomologous cocycle with values in mu_|G|
    rng = np.random.default_rng(5)
    for G in (cyclic_group(2), symmetric_group(3), dihedral_group(8),
              elementary_abelian_group(2, 2)):
        M = schur_multiplier(G)
        k = len(M.invariant_factors)
        classes = [M.trivial_class()] + [M.class_from_coords((1,) * k)] * bool(k)
        for cls in classes:
            alpha = _shift_to_modulus(cls.representative, m, rng)
            E = alpha.as_array().ravel()
            assert m // np.gcd.reduce(np.append(E, m)) > G.order
            dims = wedderburn_dims(build_twisted(G, alpha)).dims
            assert dims == spectral_dims(G, alpha)


@pytest.mark.parametrize("make", [lambda: symmetric_group(4), lambda: dihedral_group(8),
                                  lambda: product_group(cyclic_group(4), cyclic_group(4)),
                                  lambda: product_group(dihedral_group(8), cyclic_group(2))],
                         ids=["S4", "D8", "C4xC4", "D8xC2"])
def test_blocks_and_regular_classes_where_m_times_order_passes_int64(make):
    """Every class's section cocycle, promoted to a modulus m < 2^62 with
    m |G| >= 2^63 and also shifted there by a random coboundary, has the
    block dimensions and regular classes it has at its own modulus."""
    import itertools
    rng = np.random.default_rng(8)
    G = make()
    M = schur_multiplier(G)
    for coords in itertools.product(*(range(d) for d in M.invariant_factors)):
        alpha = M.class_from_coords(coords).representative
        m = alpha.modulus * (((1 << 62) - 1) // alpha.modulus)
        assert m * G.order >= 1 << 63
        want = wedderburn_dims(build_twisted(G, alpha)).dims
        for beta in (alpha.promote(m), _shift_to_modulus(alpha, m, rng)):
            assert wedderburn_dims(build_twisted(G, beta)).dims == want
            assert alpha_regular(G, beta) == alpha_regular(G, alpha)


def test_block_primes_exist_below_guard():
    # every conductor |G| exp(G) that wedderburn_dims can meet (exp(G) divides
    # |G| <= BLOCK_ORDER_GUARD) has its prime below the int64 limit
    for n in range(1, BLOCK_ORDER_GUARD + 1):
        for exponent in (d for d in range(1, n + 1) if n % d == 0):
            p = _find_prime(n * exponent, 2 * isqrt(n) + 1, SPLIT_PRIME_LIMIT)
            assert (p - 1) % (n * exponent) == 0


def test_invariant_copies():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    assert invariant_copies(M.trivial_class()) == 4
    alpha = central_pairing_cocycle(cyclic_group(2))
    cls = M.class_of(alpha.promote(4))
    assert invariant_copies(cls) == 1


def test_invariant_copies_depends_only_on_class():
    G = elementary_abelian_group(2, 2)
    n = G.order
    M = schur_multiplier(G)
    alpha = central_pairing_cocycle(cyclic_group(2)).promote(n)
    base = alpha_regular(G, alpha).count
    rng = np.random.default_rng(6)
    for _ in range(6):
        d = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
        shift = [[(alpha.table[r][s] + d[r] + d[s] - d[G.mul(r, s)]) % n
                  for s in G.elements()] for r in G.elements()]
        shifted = TwoCocycle.from_exponents(G, n, shift)
        assert M.class_of(shifted) == M.class_of(alpha)
        assert alpha_regular(G, shifted).count == base


def test_center_equals_regular_equals_blocks_random():
    rng = np.random.default_rng(12)
    for G in (cyclic_group(4), elementary_abelian_group(2, 2), dihedral_group(8),
              product_group(cyclic_group(2), cyclic_group(4)),
              elementary_abelian_group(2, 3), symmetric_group(3)):
        n = G.order
        for _ in range(6):
            alpha = random_cocycle(G, n, rng)
            algebra = build_twisted(G, alpha)
            reg = alpha_regular(G, alpha)
            dim = len(center_basis(algebra))
            profile = wedderburn_dims(algebra, seed=1)
            assert dim == reg.count == len(profile.dims)
            assert sum(d * d for d in profile.dims) == G.order
            assert profile.dims == spectral_dims(G, alpha, seed=1)


def _class_rep(G, coords):
    return schur_multiplier(G).class_from_coords(coords).representative


def _c4xc4():
    return product_group(cyclic_group(4), cyclic_group(4))


KNOWN_DIMS = {
    "A4": (lambda: _class_rep(group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]]), (1,)),
           (2, 2, 2)),
    "S4": (lambda: _class_rep(symmetric_group(4), (1,)), (2, 2, 4)),
    "D16": (lambda: _class_rep(dihedral_group(16), (1,)), (2, 2, 2, 2)),
    "C4xC4 class 1": (lambda: _class_rep(_c4xc4(), (1,)), (4,)),
    "C4xC4 class 2": (lambda: _class_rep(_c4xc4(), (2,)), (2, 2, 2, 2)),
    "C2xD8 class (1,1,0)": (lambda: _class_rep(product_group(cyclic_group(2), dihedral_group(8)),
                                               (1, 1, 0)), (4,)),
    "C4 central pairing": (lambda: central_pairing_cocycle(cyclic_group(4)), (4,)),
}


@pytest.mark.parametrize("name", list(KNOWN_DIMS))
def test_wedderburn_known_values(name):
    make, want = KNOWN_DIMS[name]
    alpha = make()
    assert wedderburn_dims(build_twisted(alpha.group, alpha)).dims == want
    assert spectral_dims(alpha.group, alpha) == want


def test_cluster_helpers_direct():
    eigs = np.array([1.0 + 0j, 1.0 + 1e-12j, 2.0 + 0j, 2.0 + 1e-12j])
    clusters = _cluster(eigs, 1e-8)
    assert sorted(len(c) for c in clusters) == [2, 2]
    assert _min_intercluster_gap(eigs, clusters) == pytest.approx(1.0, rel=1e-6)


def test_cluster_ambiguity_band():
    """Eigenvalue gaps inside (tol, 10 tol) must raise, not silently cluster."""
    tol = 1e-8
    eigs = np.array([0.0 + 0j, 5 * tol + 0j])
    clusters = _cluster(eigs, tol)
    gap = _min_intercluster_gap(eigs, clusters)
    assert tol < gap < 10 * tol  # this is exactly the band spectral_dims rejects


def test_non_square_cluster_detected():
    # three coincident eigenvalues cannot be a matrix-block square
    eigs = np.array([1.0, 1.0, 1.0, 2.0])
    clusters = _cluster(eigs, 1e-8)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 3]
    d = round(3 ** 0.5)
    assert d * d != 3


def test_wedderburn_matches_oracle_on_battery_classes():
    from itertools import product

    from motivelab.selftest import _battery_groups
    for G in _battery_groups():
        M = schur_multiplier(G)
        for coords in product(*(range(f) for f in M.invariant_factors)):
            alpha = M.class_from_coords(coords).representative
            algebra = build_twisted(G, alpha)
            assert wedderburn_dims(algebra).dims == spectral_dims(G, alpha), (G.label, coords)
