import functools
import gc
import itertools
import weakref

import numpy as np
import pytest

from motivelab.cocycles import (
    CoboundaryWitness,
    TwoCocycle,
    central_pairing_cocycle,
    cocycle_validate,
    is_cohomologous,
    random_cocycle,
    schur_multiplier,
    verify_witness,
)
from motivelab.errors import (
    BadModulus,
    GroupMismatch,
    InconsistentAction,
    ModulusMismatch,
    NotACocycle,
    NotAbelian,
    SizeBound,
)
from motivelab.groups import (
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    product_group,
    symmetric_group,
)


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
        TwoCocycle(alpha.group, 2, table)


def test_validate_normalization():
    G = cyclic_group(2)
    report = cocycle_validate(G, 2, [[1, 0], [0, 0]])
    assert not report.ok and "normalization" in report.message
    with pytest.raises(NotACocycle, match="normalization"):
        TwoCocycle(G, 2, [[1, 0], [0, 0]])


def test_validate_typed_errors_on_raw_data():
    G = cyclic_group(2)
    for table in ([[0, 0]], [[0, 0], [0]], [[0, 0], 5], [[0, {}], [0, 0]]):
        with pytest.raises(NotACocycle):
            cocycle_validate(G, 2, table)
        with pytest.raises(NotACocycle):
            TwoCocycle(G, 2, table)
    # exponents are reduced first: the identity is checked on residues
    assert cocycle_validate(G, 2, [[4, -2], [10**30, 7]]).ok
    assert TwoCocycle(G, 2, [[4, -2], [10**30, 7]]).table.tolist() == [[0, 0], [0, 1]]


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
    assert TwoCocycle(G, big, table).power(3).table.tolist() == \
        [[3 * x % big for x in row] for row in table]
    table[1][2] = (table[1][2] + big - 1) % big
    assert not cocycle_validate(G, big, table).ok
    for m in (1 << 62, 10**20):
        with pytest.raises(BadModulus):
            cocycle_validate(G, m, [[0] * 4] * 4)
        with pytest.raises(BadModulus):
            TwoCocycle(G, m, [[0] * 4] * 4)


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
    base = TwoCocycle(G, m, table)
    assert base.table.tolist() == table
    broken = [list(r) for r in table]
    i, j = (int(x) for x in rng.integers(1, G.order, size=2))
    broken[i][j] = (broken[i][j] + int(rng.integers(1, m))) % m
    assert not cocycle_validate(G, m, broken).ok
    with pytest.raises(NotACocycle):
        TwoCocycle(G, m, broken)


@pytest.mark.parametrize("make", [lambda: symmetric_group(4), lambda: dihedral_group(24),
                                  lambda: product_group(cyclic_group(4), cyclic_group(4)),
                                  lambda: elementary_abelian_group(2, 3)],
                         ids=["S4", "D24", "C4xC4", "E8"])
def test_generator_check_matches_triple_loop(make):
    """The identity is checked only with a generator first; seeded cocycles,
    valid and with one or two entries changed, get the reference's verdict
    and first failing triple."""
    rng = np.random.default_rng(13)
    G = make()
    for m in (2, G.order, 12):
        for changes in (0, 0, 1, 1, 2):
            table = random_cocycle(G, m, rng).table.tolist()
            for _ in range(changes):
                i, j = (int(x) for x in rng.integers(1, G.order, size=2))
                table[i][j] = (table[i][j] + int(rng.integers(1, m))) % m
            report = cocycle_validate(G, m, table)
            assert report.triple == _first_failure(G, m, table)
            assert report.ok == (report.triple is None)


def test_table_is_a_read_only_int64_array():
    """Every way to make a cocycle stores a read-only C-contiguous int64
    table; construction copies a caller's array."""
    from motivelab.groups import all_subgroups
    G = dihedral_group(8)
    a = schur_multiplier(G).section[0]
    raw = a.table.copy()
    b = TwoCocycle(G, a.modulus, raw)
    raw[1, 1] += 1
    made = [a, b, TwoCocycle.trivial(G, 8), a.mul(b), a.power(3), a.inverse_cocycle(),
            a.promote(24), random_cocycle(G, 8, np.random.default_rng(2)),
            central_pairing_cocycle(cyclic_group(4))]
    made += [a.restrict(H) for H in all_subgroups(G)]
    for alpha in made:
        assert alpha.table.dtype == np.int64 and alpha.table.flags.c_contiguous
        with pytest.raises(ValueError):
            alpha.table[0, 0] = 1
    assert raw.flags.writeable and np.array_equal(b.table, a.table)


def test_equal_cocycles_hash_equal():
    """Equality is the same group object, modulus and entries; equal
    cocycles hash equal."""
    G = dihedral_group(8)
    a = schur_multiplier(G).section[0]
    b = TwoCocycle(G, a.modulus, a.table.tolist())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.power(a.modulus + 1) == a and hash(a.power(a.modulus + 1)) == hash(a)
    assert a.mul(a.inverse_cocycle()) == TwoCocycle.trivial(G, a.modulus)
    assert a != TwoCocycle(dihedral_group(8), a.modulus, a.table)
    assert a != a.promote(2 * a.modulus) and a != TwoCocycle.trivial(G, a.modulus)


def test_power_near_the_modulus_bound_is_exact():
    """At modulus 2^62 - 1 products of two residues pass 2^63; powers agree
    with Python integers for small, negative and huge k."""
    G = dihedral_group(8)
    big = (1 << 62) - 1
    rng = np.random.default_rng(4)
    f = [0] + [int(x) for x in rng.integers(0, big, size=G.order - 1)]
    table = [[(f[r] + f[s] - f[G.mul(r, s)]) % big for s in G.elements()] for r in G.elements()]
    alpha = TwoCocycle(G, big, table)
    ks = [0, 1, 2, 3, -1, -5, big - 1, big + 7, (1 << 61) + 12345, 2**80 + 3]
    ks += [int(x) for x in rng.integers(-(1 << 62), 1 << 62, size=6)]
    for k in ks:
        assert alpha.power(k).table.tolist() == [[x * k % big for x in row] for row in table]


@pytest.mark.parametrize("make", [lambda: symmetric_group(4), lambda: dihedral_group(24)],
                         ids=["S4", "D24"])
def test_restrict_matches_a_loop_on_every_subgroup(make):
    """Restriction is one gather: on every subgroup it equals the table read
    entry by entry on the subgroup's own numbering."""
    from motivelab.groups import all_subgroups
    G = make()
    M = schur_multiplier(G)
    alphas = [M.class_from_coords(c).representative
              for c in itertools.product(*(range(d) for d in M.invariant_factors))]
    alphas.append(random_cocycle(G, 12, np.random.default_rng(6)))
    for H in all_subgroups(G):
        grp, members = H.as_group()
        for alpha in alphas:
            res = alpha.restrict(H)
            assert res.group is grp and res.modulus == alpha.modulus
            assert res.table.tolist() == [[int(alpha.table[a, b]) for b in members]
                                          for a in members]
            assert _valid(res)


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


def _brute_force_cocycles(G, n):
    """Every valid normalized table mod n, by enumerating the entries off
    the identity row and column."""
    k = G.order - 1
    out = set()
    for entries in itertools.product(range(n), repeat=k * k):
        table = np.zeros((G.order, G.order), dtype=np.int64)
        table[1:, 1:] = np.reshape(entries, (k, k))
        if cocycle_validate(G, n, table).ok:
            out.add(table.tobytes())
    return out


def test_random_cocycle_covers_c2xc2_uniformly():
    """On C2 x C2 mod 2 seeded draws hit exactly the 16 valid normalized
    tables among the 2^9, each about 4000 / 16 = 250 times (sd 15)."""
    G = elementary_abelian_group(2, 2)
    valid = _brute_force_cocycles(G, 2)
    assert len(valid) == 16
    rng = np.random.default_rng(0)
    counts = {}
    for _ in range(4000):
        key = random_cocycle(G, 2, rng).table.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == valid
    assert all(175 <= c <= 325 for c in counts.values()), sorted(counts.values())


def test_random_cocycle_composite_modulus_reaches_every_value():
    """Z^2(C2, Z/6) is all of Z/6 in the entry e(1, 1): the draws, joined
    from the primes 2 and 3, reach every value."""
    rng = np.random.default_rng(1)
    G = cyclic_group(2)
    seen = {int(random_cocycle(G, 6, rng).table[1, 1]) for _ in range(60)}
    assert seen == set(range(6))


def test_random_cocycle_trivial_group_and_modulus():
    assert random_cocycle(cyclic_group(1), 5, np.random.default_rng(0)).table.tolist() == [[0]]
    G = symmetric_group(3)
    assert random_cocycle(G, 1, np.random.default_rng(0)) == TwoCocycle.trivial(G, 1)


def test_broken_composite_table_is_not_a_cocycle():
    G = symmetric_group(3)
    broken = [list(r) for r in TwoCocycle.trivial(G, 6).table]
    broken[1][2] = 1
    with pytest.raises(NotACocycle):
        TwoCocycle(G, 6, broken)


@pytest.mark.parametrize("make", [lambda: dihedral_group(66), lambda: symmetric_group(5)],
                         ids=["D66", "S5"])
def test_random_cocycle_above_order_64(make):
    """Draws need no full-table basis, so groups past |G|^2 = 4096 draw too."""
    G = make()
    rng = np.random.default_rng(3)
    for n in (2, G.order):
        for _ in range(3):
            alpha = random_cocycle(G, n, rng)
            assert alpha.modulus == n and _valid(alpha)


@pytest.mark.parametrize("n", [3 * 2**41, 2**61, 98415])
def test_random_cocycle_at_large_moduli_is_valid(n):
    """Composite moduli past 2^31.5 join the primes exactly: products e_q
    times a residue would wrap int64."""
    rng = np.random.default_rng(5)
    for G in (cyclic_group(4), symmetric_group(3), dihedral_group(8)):
        for _ in range(20):
            alpha = random_cocycle(G, n, rng)
            assert alpha.modulus == n and _valid(alpha)


def test_bad_modulus_is_typed():
    G = cyclic_group(2)
    for n in (0, -2, 2**64):
        with pytest.raises(BadModulus):
            TwoCocycle.trivial(G, n)
    for n in (0, -2, 2**62, 2**62 + 1, 2**64):
        with pytest.raises(BadModulus):
            random_cocycle(G, n, np.random.default_rng(0))
    alpha = TwoCocycle.trivial(cyclic_group(4), 4)
    for m in (0, -4, 2**62):
        with pytest.raises(BadModulus):
            alpha.promote(m)


def test_central_pairing_needs_abelian_group():
    with pytest.raises(NotAbelian):
        central_pairing_cocycle(symmetric_group(3))


def test_is_cohomologous_reflexive():
    G = symmetric_group(3)
    alpha = TwoCocycle.trivial(G, 6)
    w = is_cohomologous(alpha, alpha)
    assert w is not None
    assert all(v == 0 for v in w.values)


def test_c2_nontrivial_cocycle_trivializes_over_cx():
    # H^2(C2, C^x) = 0, but the witness needs fourth roots of unity
    G = cyclic_group(2)
    nt = TwoCocycle(G, 2, [[0, 0], [0, 1]])
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


def test_verify_witness_rejects_a_witness_of_the_wrong_length():
    # a witness one value short or one value long is no witness, not a traceback
    G = symmetric_group(3)
    alpha = TwoCocycle.trivial(G, 6)
    w = is_cohomologous(alpha, alpha)
    assert verify_witness(alpha, alpha, w)
    assert not verify_witness(alpha, alpha, CoboundaryWitness(w.modulus, w.values[:-1]))
    assert not verify_witness(alpha, alpha, CoboundaryWitness(w.modulus, w.values + (0,)))


def test_verify_witness_checks_group_and_modulus():
    G, H = symmetric_group(3), cyclic_group(6)
    w = CoboundaryWitness(36, (0,) * 6)
    with pytest.raises(GroupMismatch):
        verify_witness(TwoCocycle.trivial(G, 6), TwoCocycle.trivial(H, 6), w)
    with pytest.raises(ModulusMismatch):
        verify_witness(TwoCocycle.trivial(G, 6), TwoCocycle.trivial(G, 3), w)


def test_verify_witness_rejects_a_wrong_value():
    """A witness from the solve passes; changing any one value but delta(1)'s
    breaks an identity, and a nonzero delta(1) is no normalized witness."""
    G = dihedral_group(8)
    M = schur_multiplier(G)
    alpha = M.section[0]
    beta = alpha.mul(_coboundary(G, M.modulus, np.random.default_rng(2)))
    w = is_cohomologous(alpha, beta)
    assert verify_witness(alpha, beta, w)
    for g in range(G.order):
        values = list(w.values)
        values[g] = (values[g] + 1) % w.modulus
        assert not verify_witness(alpha, beta, CoboundaryWitness(w.modulus, tuple(values)))


def test_trivial_group_witness_is_zero():
    G = cyclic_group(1)
    for m in (1, 5):
        alpha = TwoCocycle.trivial(G, m)
        assert is_cohomologous(alpha, alpha) == CoboundaryWitness(m, (0,))


def test_witness_near_2_62_is_reduced_along_the_tree():
    """On C32 the witness modulus 3 * 2^55 * 32 = 3 * 2^60 leaves no int64
    room for a potential summed unreduced along the 31 tree steps."""
    G = cyclic_group(32)
    m = 3 * 2**55
    rng = np.random.default_rng(4)
    trivial = TwoCocycle.trivial(G, m)
    for _ in range(5):
        df = _coboundary(G, m, rng)
        w = is_cohomologous(df, trivial)
        assert w is not None and verify_witness(df, trivial, w)


@pytest.mark.parametrize("make, m", [(lambda: cyclic_group(3), 3**20),
                                     (lambda: symmetric_group(3), 3**20),
                                     (lambda: cyclic_group(5), 5**14)],
                         ids=["C3", "S3", "C5"])
def test_large_odd_witness_moduli_never_answer_none(make, m):
    """A coboundary mod a large odd prime power gets a verified witness or
    BadModulus, never None: int64 products mod 3^21 and 5^15 would wrap."""
    G = make()
    rng = np.random.default_rng(6)
    trivial = TwoCocycle.trivial(G, m)
    for _ in range(5):
        df = _coboundary(G, m, rng)
        try:
            w = is_cohomologous(df, trivial)
        except BadModulus:
            continue
        assert w is not None and verify_witness(df, trivial, w)


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


# ---------------------------------------------------------------------------
# One multiplier per group object
# ---------------------------------------------------------------------------


def _solved(M):
    """Invariant factors, section tables and each prime's basis, pivots and
    diagonalizer."""
    return (M.invariant_factors, [alpha.table.tolist() for alpha in M.section],
            [(c.basis.tobytes(), c.piv, c.V.tobytes()) for c in M._components])


def test_multiplier_is_memoized_on_a_live_group():
    G = symmetric_group(4)
    M = schur_multiplier(G)
    assert schur_multiplier(G) is M
    assert schur_multiplier(symmetric_group(4)) is not M


def test_multiplier_guard_is_checked_before_the_cache():
    S5 = symmetric_group(5)
    M = schur_multiplier(S5, 120)
    with pytest.raises(SizeBound):
        schur_multiplier(S5)
    assert schur_multiplier(S5, 120) is M


def test_dropped_group_is_freed_and_its_multiplier_still_works():
    """The group holds its multiplier weakly, so the multiplier keeps the
    group alive and answers without the caller's reference, and once both
    are dropped reference counting alone frees the group: no cycle."""
    G = dihedral_group(8)
    M = schur_multiplier(G)
    alpha = M.section[0]
    alive = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert alive() is M.group
        assert M.project(alpha) == (1,)
        assert np.array_equal(M.class_from_coords((1,)).representative.table, alpha.table)
        del M, alpha
        assert alive() is None
    finally:
        gc.enable()


def test_dropped_multiplier_is_rebuilt_equal():
    G = product_group(dihedral_group(12), symmetric_group(3))
    M = schur_multiplier(G, 72)
    want = _solved(M)
    dead = weakref.ref(M)
    del M
    assert dead() is None
    assert _solved(schur_multiplier(G, 72)) == want


@pytest.mark.parametrize("make", [
    lambda: elementary_abelian_group(2, 3),
    lambda: product_group(cyclic_group(4), cyclic_group(4)),
], ids=["E8", "C4xC4"])
def test_cached_multiplier_answers_as_a_fresh_groups(make):
    """Classes and project coordinates from a cached multiplier equal those
    of a fresh group object's multiplier on the same table."""
    G, fresh = make(), make()
    schur_multiplier(G)
    cached = schur_multiplier(G)
    M = schur_multiplier(fresh)
    assert cached is not M and _solved(cached) == _solved(M)
    rng = np.random.default_rng(11)
    for _ in range(6):
        alpha = random_cocycle(G, G.order, rng)
        beta = TwoCocycle(fresh, alpha.modulus, alpha.table)
        assert cached.project(alpha) == M.project(beta)
        assert cached.class_of(alpha).coords == M.class_of(beta).coords
    for coords in [(1,) * len(M.invariant_factors), (0,) * len(M.invariant_factors)]:
        assert np.array_equal(cached.class_from_coords(coords).representative.table,
                              M.class_from_coords(coords).representative.table)


def test_certificate_chunks_agree_with_one_pass(monkeypatch):
    """The certificate checks the kernel in row chunks; chunks of one, two
    and five rows report exactly what one pass over every row reports."""
    from motivelab import cocycles
    from motivelab.cocycles import _Reconstruction
    recon = _Reconstruction(elementary_abelian_group(2, 5))
    calls = []
    certify = recon.violated
    monkeypatch.setattr(recon, "violated",
                        lambda K, q: calls.append((K, q, certify(K, q))) or calls[-1][2])
    cocycles._gauge_fixed_kernel(recon, 2, 5)
    monkeypatch.undo()
    assert max(len(K) for K, _, _ in calls) > 5
    assert any(bad.any() for _, _, bad in calls)
    n = recon.group.order
    for rows in (1, 2, 5):
        monkeypatch.setattr(cocycles, "_CERTIFICATE_CHUNK", rows * n * n)
        for K, q, bad in calls:
            assert np.array_equal(recon.violated(K, q), bad)


def test_class_of_coboundary_is_zero():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    n = G.order
    # build a coboundary from a random function with d(1) = 0
    rng = np.random.default_rng(1)
    d = [0] + [int(rng.integers(0, n)) for _ in range(n - 1)]
    table = [[(d[r] + d[s] - d[G.mul(r, s)]) % n for s in G.elements()]
             for r in G.elements()]
    cls = M.class_of(TwoCocycle(G, n, table))
    assert cls.is_trivial()


def test_class_of_rejects_non_cocycle():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    bad = [[0] * 4 for _ in range(4)]
    bad[1][2] = 1
    bad[2][1] = 3
    with pytest.raises(NotACocycle):
        M.class_of(TwoCocycle(G, 4, bad))


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


def test_empty_coordinates_name_the_trivial_class():
    """No coordinates name the trivial class of any multiplier; coordinates
    of another length are InconsistentAction, whatever the caller."""
    for G in (cyclic_group(4), dihedral_group(8), elementary_abelian_group(2, 3)):
        M = schur_multiplier(G)
        assert M.class_from_coords(()).is_trivial()
        assert M.class_from_coords(()) == M.class_from_coords((0,) * len(M.invariant_factors))
        with pytest.raises(InconsistentAction, match="do not match the multiplier"):
            M.class_from_coords((1,) * (len(M.invariant_factors) + 1))


def test_class_group_operations():
    alpha = central_pairing_cocycle(cyclic_group(2))
    G = alpha.group
    M = schur_multiplier(G)
    cls = M.class_of(alpha.promote(G.order))
    assert not cls.is_trivial()
    assert cls.mul(cls.inverse()).is_trivial()
    assert cls.power(2).is_trivial()
    triv = M.trivial_class()
    assert triv.mul(cls) == cls


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
    nt = TwoCocycle(G, 2, [[0, 0], [0, 1]])
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


def _brute_characters(G, n):
    """Every homomorphism G -> Z/n, by testing every function on every pair."""
    import itertools
    t = G.cayley
    values = np.array(list(itertools.product(range(n), repeat=G.order)), dtype=np.int64)
    hom = ((values[:, t] - values[:, :, None] - values[:, None, :]) % n == 0).all(axis=(1, 2))
    return values[hom].tolist()


def _brute_trivial_span(G, n):
    """Subgroup generated by coboundaries and carry classes, as tables."""
    size = G.order
    gens = []
    for h in range(1, size):
        d = [0] * size
        d[h] = 1
        gens.append(tuple(tuple((d[r] + d[s] - d[G.mul(r, s)]) % n
                                for s in range(size)) for r in range(size)))
    for a in _brute_characters(G, n):
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
        alpha = TwoCocycle(G, n, tab)
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
# A6 generated by (0 1 2) and (1 2 3 4 5)
_A6 = _permutation_group(6, [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]])


# (group, Schur multiplier) from the literature (Karpilovsky, The Schur
# Multiplier, 1987); D12 x S3 by the Kunneth formula M(D12) x M(S3) x
# (C2 x C2) (x) C2.  A4, S4, A5, S5, D48, S3, C12, SL(2,3) and A6 have cyclic
# Sylow subgroups for some primes, which contribute nothing and are not solved
# for.
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
    "A6": (_A6, (6,)),
}


@functools.lru_cache(maxsize=None)
def _literature_multiplier(name):
    G = _LITERATURE[name][0]()
    return schur_multiplier(G, max_group_order=G.order)


def test_a6_has_order_360():
    assert _A6().order == 360


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
    return TwoCocycle(
        G, n, [[(f[r] + f[s] - f[G.mul(r, s)]) % n for s in G.elements()]
               for r in G.elements()])


def test_s6_multiplier_is_c2():
    """S6 (order 720) has M(S6) = C2 (Karpilovsky 1987).  It is kept out of
    the oracle batteries: their dense reconstruction tensor would be 3 GB."""
    assert schur_multiplier(symmetric_group(6), 720).invariant_factors == (2,)


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


_WITNESS_BATTERY = {
    **{name: make for name, (make, _) in _LITERATURE.items() if name != "A6"},
    "S3xS4": lambda: product_group(symmetric_group(3), symmetric_group(4)),
}


def _draw_cocycle(M, rng):
    """A random cocycle mod |G|: from the whole cocycle space up to order
    48, and above that a random class times a random coboundary."""
    G, n = M.group, M.modulus
    if n <= 48:
        return random_cocycle(G, n, rng)
    coords = tuple(int(rng.integers(0, d)) for d in M.invariant_factors)
    return M.class_from_coords(coords).representative.mul(_coboundary(G, n, rng))


@pytest.mark.parametrize("name", list(_WITNESS_BATTERY))
def test_is_cohomologous_matches_the_dense_solve(name):
    """The gauge-fixed decision equals the (|G|^2 + 1)-row solve, on pairs
    beta = alpha + df and on independent pairs, and every witness of either
    passes verify_witness."""
    from multiplier_oracle import dense_is_cohomologous
    G = _WITNESS_BATTERY[name]()
    M = schur_multiplier(G, max_group_order=G.order)
    rng = np.random.default_rng(11)
    for same in (True, True, True, False, False, False):
        alpha = _draw_cocycle(M, rng)
        beta = alpha.mul(_coboundary(G, M.modulus, rng)) if same else _draw_cocycle(M, rng)
        got, want = is_cohomologous(alpha, beta), dense_is_cohomologous(alpha, beta)
        assert (got is None) == (want is None)
        assert got is not None or not same
        for w in (got, want):
            assert w is None or verify_witness(alpha, beta, w)


# ---------------------------------------------------------------------------
# Gauge-fixed solve against the full system
# ---------------------------------------------------------------------------


_SOLVE_BATTERY = {
    **{name: make for name, (make, _) in _LITERATURE.items()},
    "E4": lambda: elementary_abelian_group(2, 2),
    "D8": lambda: dihedral_group(8),
    "E8": lambda: elementary_abelian_group(2, 3),
    "D12": lambda: dihedral_group(12),
    "C4xC4": lambda: product_group(cyclic_group(4), cyclic_group(4)),
    "D16": lambda: dihedral_group(16),
    "C6xC2": lambda: product_group(cyclic_group(6), cyclic_group(2)),
    "D24": lambda: dihedral_group(24),
    "C6xC6": lambda: product_group(cyclic_group(6), cyclic_group(6)),
    "S3xS3": lambda: product_group(symmetric_group(3), symmetric_group(3)),
}


@pytest.mark.parametrize("name", [name for name, make in _SOLVE_BATTERY.items()
                                  if make().order <= 48])
def test_solution_basis_matches_full_system(name):
    """The certified gauge-fixed solve returns the reduced basis and pivots
    of the full |S||G|^2-row system, bit for bit, for every prime of |G|."""
    from motivelab.cocycles import _Reconstruction
    from motivelab.intlinalg import prime_power_factors
    from multiplier_oracle import _solution_basis, solution_basis
    G = _SOLVE_BATTERY[name]()
    recon = _Reconstruction(G)
    for p, a in prime_power_factors(G.order):
        basis, piv = _solution_basis(recon, p, a)
        want_basis, want_piv = solution_basis(recon, p, a)
        assert np.array_equal(basis, want_basis), (name, p)
        assert list(piv) == list(want_piv), (name, p)


@pytest.mark.parametrize("name", ["S3", "Q8", "A4", "D12xS3"])
def test_reconstruction_maps_match_entrywise_references(name):
    """Coboundary rows, identity blocks, table expansion and restriction as
    array passes agree with the entry-by-entry forms and with rows of the
    dense reconstruction tensor."""
    import multiplier_oracle
    from motivelab.cocycles import _Reconstruction
    G = _SOLVE_BATTERY[name]()
    recon = _Reconstruction(G)
    free = recon.free
    for q in (2, 3, 8):
        cob = recon.coboundaries(np.eye(G.order, dtype=np.int64)[:, 1:]) % q
        assert np.array_equal(cob.reshape(G.order - 1, recon.dim),
                              multiplier_oracle.coboundary_xvecs(recon, q))
        dense = multiplier_oracle.identity_blocks(recon, q)[free][:, :, free]
        assert np.array_equal(recon.blocks(np.arange(len(free)), q),
                              dense.reshape(-1, len(free)))
    p, a = 2, 3 if G.order % 8 == 0 else 1
    basis, _ = multiplier_oracle._solution_basis(recon, p, a)
    for x in basis:
        table = recon.expand(x, p ** a)
        assert np.array_equal(table, multiplier_oracle.expand(recon, x, p ** a))
        assert np.array_equal(table[recon.gens].reshape(-1) % p ** a, x)


@pytest.mark.parametrize("make,p,a,first_batch", [
    (_Q8, 2, 3, None),
    (lambda: symmetric_group(5), 2, 3, 1),
    (lambda: symmetric_group(5), 5, 1, 1),
], ids=["Q8", "S5-p2-one-block", "S5-p5-one-block"])
def test_certificate_adds_blocks_until_nothing_is_violated(monkeypatch, make, p, a,
                                                          first_batch):
    """More than one round: the first kernel holds generators that break
    identities outside the first batch, the last one holds none, and the
    basis is still the full system's.  S5 is certified by its first four
    blocks, so it starts from one here."""
    from motivelab import cocycles
    from motivelab.cocycles import _Reconstruction
    from multiplier_oracle import _solution_basis, solution_basis
    if first_batch is not None:
        monkeypatch.setattr(cocycles, "_FIRST_BATCH", first_batch)
    recon = _Reconstruction(make())
    rounds = []
    certify = recon.violated
    recon.violated = lambda K, q: rounds.append(certify(K, q)) or rounds[-1]
    basis, piv = _solution_basis(recon, p, a)
    assert len(rounds) >= 2 and rounds[0].any() and not rounds[-1].any()
    want_basis, want_piv = solution_basis(recon, p, a)
    assert np.array_equal(basis, want_basis) and list(piv) == list(want_piv)


@pytest.mark.parametrize("make", [lambda: elementary_abelian_group(2, 5),
                                  _LITERATURE["D12xS3"][0]], ids=["E32", "D12xS3"])
def test_certificate_rounds_eliminate_only_the_carried_kernel(monkeypatch, make):
    """After the first round, each certificate elimination has one column per
    generator of the kernel the previous round left, never one per free
    coordinate, and the multiplier still takes more than one round."""
    from motivelab import cocycles
    from motivelab.cocycles import _gauge_fixed_kernel, _Reconstruction
    from motivelab.intlinalg import prime_power_factors
    recon = _Reconstruction(make())
    rounds = []
    for p, a in prime_power_factors(recon.group.order):
        widths, kernels = [], []
        kernel, certify = cocycles.kernel_mod_q, recon.violated
        monkeypatch.setattr(cocycles, "kernel_mod_q",
                            lambda A, p, a: widths.append(A.shape[1]) or kernel(A, p, a))
        monkeypatch.setattr(recon, "violated",
                            lambda K, q: kernels.append(len(K)) or certify(K, q))
        K = _gauge_fixed_kernel(recon, p, a)
        monkeypatch.undo()
        assert len(widths) == len(kernels) and kernels[-1] == len(K), p
        assert widths[0] == int((recon.free % recon.group.order != 0).sum())
        assert widths[1:] == kernels[:-1], p
        assert len(recon.free) not in widths[1:], p
        rounds.append(len(kernels))
    assert max(rounds) >= 2


def test_certificate_reports_a_corrupted_kernel_vector():
    """Every generator of the complete gauge-fixed kernel passes; changing one
    coordinate of one of them breaks an identity the check then names."""
    from motivelab.cocycles import _Reconstruction
    from motivelab.errors import InvariantViolation
    from motivelab.intlinalg import eliminate_mod_q, kernel_mod_q
    recon = _Reconstruction(dihedral_group(8))
    p, a, q = 2, 3, 8
    free = recon.free
    system = np.vstack([np.eye(len(free), dtype=np.int64)[free % 8 == 0],
                        recon.blocks(np.arange(len(free)), q)])
    K = kernel_mod_q(eliminate_mod_q(system, p, a)[0], p, a)
    assert len(K) and not recon.violated(K, q).any()
    rng = np.random.default_rng(4)
    for _ in range(10):
        bad = K.copy()
        k, j = int(rng.integers(len(K))), int(rng.integers(1, len(free)))
        bad[k, j] = (bad[k, j] + int(rng.integers(1, q))) % q
        if free[j] % 8 == 0:
            with pytest.raises(InvariantViolation):
                recon.violated(bad, q)
            continue
        report = recon.violated(bad, q)
        assert report[k].any() and not np.delete(report, k, axis=0).any()


def _d8_kernel():
    """The reconstruction of D8 and the gauge-fixed kernel mod 8, solved from
    every identity block at once, without the certificate."""
    from motivelab.cocycles import _Reconstruction
    from motivelab.intlinalg import kernel_mod_q
    recon = _Reconstruction(dihedral_group(8))
    free = recon.free
    system = np.vstack([np.eye(len(free), dtype=np.int64)[free % 8 == 0],
                        recon.blocks(np.arange(len(free)), 8)])
    return recon, kernel_mod_q(system, 2, 3)


def test_certificate_passes_residuals_of_exactly_q():
    """With every term reduced mod q an identity's residual lies in
    (-2q, 2q): the complete kernel of D8 mod 8 has residuals -q and q, which
    are 0 mod q, and passes."""
    recon, K = _d8_kernel()
    q, t = 8, recon.group.cayley
    residuals = set()
    for k in K:
        x = np.zeros(recon.dim, dtype=np.int64)
        x[recon.free] = k
        E = recon.expand(x, q)
        for s in recon.gens:
            # e(g, sigma) - e(s g, sigma) + e(s, g sigma) - e(s, g)
            R = E - E[t[s]] + E[s][t] - E[s][:, None]
            assert not (R % q).any()
            residuals |= set(np.unique(R).tolist())
    assert {-q, q} <= residuals
    assert not recon.violated(K, q).any()


def test_certificate_reads_unreduced_candidates_as_their_reductions():
    """Candidates shifted by multiples of q, unreduced or negative, report
    exactly the identities their reductions break."""
    recon, K = _d8_kernel()
    q = 8
    rng = np.random.default_rng(6)
    # corrupt every other generator off the normalization coordinates
    noise = rng.integers(0, q, size=K.shape) * (recon.free % 8 != 0)
    noise[::2] = 0
    X = (K + noise) % q
    want = recon.violated(X, q)
    assert want.any() and not want[::2].any()
    for shift in (q * rng.integers(-3, 4, size=K.shape), -q, 3 * q):
        assert np.array_equal(recon.violated(X + shift, q), want)


# ---------------------------------------------------------------------------
# Multiplier on the gauge-fixed kernel against the full-basis relation path
# ---------------------------------------------------------------------------


# the groups of the benchmark's multiplier workload, built the same way
_WORKLOAD_GROUPS = {
    "Q8": _permutation_group(8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
    "A4": _a4,
    "C3xC3": lambda: product_group(cyclic_group(3), cyclic_group(3)),
    "D16": lambda: dihedral_group(16),
    "C4xC4": lambda: product_group(cyclic_group(4), cyclic_group(4)),
    "D8xC2": lambda: product_group(dihedral_group(8), cyclic_group(2)),
    "S4": lambda: symmetric_group(4),
    "D48": lambda: dihedral_group(48),
    "D64": lambda: dihedral_group(64),
    "E32": lambda: elementary_abelian_group(2, 5),
    "A5": _permutation_group(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
    "S4xC2": lambda: product_group(symmetric_group(4), cyclic_group(2)),
    "E4xA4": lambda: product_group(elementary_abelian_group(2, 2), _a4()),
    "D12xS3": lambda: product_group(dihedral_group(12), symmetric_group(3)),
    "S5": lambda: symmetric_group(5),
}
# A4, S4, S5, D16, D48, C4xC4 and D12xS3 are built as in _SOLVE_BATTERY
_ORACLE_BATTERY = {**_SOLVE_BATTERY,
                   **{f"workload-{name}": _WORKLOAD_GROUPS[name] for name in
                      ("Q8", "C3xC3", "D8xC2", "D64", "E32", "A5", "S4xC2", "E4xA4")}}


@pytest.mark.parametrize("name", list(_ORACLE_BATTERY))
def test_multiplier_matches_full_basis_oracle(name):
    """The multiplier read off the gauge-fixed kernel has the invariant
    factors of the full-basis path; the full-basis coordinates of its
    sections form an invertible matrix T over the sum of the Z/d_i, and T
    carries its projection to the full-basis projection on random cocycles.
    Up to order 48, the kernel plus the coboundaries spans the cocycle space
    of the full system."""
    import itertools
    import multiplier_oracle
    from motivelab.cocycles import _gauge_fixed_kernel
    from motivelab.intlinalg import eliminate_mod_q, prime_power_factors
    if name in _LITERATURE:
        M = _literature_multiplier(name)
    else:
        G = _ORACLE_BATTERY[name]()
        M = schur_multiplier(G, max_group_order=G.order)
    G, n = M.group, M.group.order
    old = multiplier_oracle.FullBasisMultiplier(G)
    assert M.invariant_factors == old.invariant_factors
    # each prime's V is |K| x |K|, never the size of the full basis
    assert [c.p for c in M._components] == [c[0] for c in old.components]
    for comp, (_, _, _, old_piv, *_) in zip(M._components, old.components):
        assert comp.V.shape == (len(comp.piv), len(comp.piv))
        assert len(comp.piv) <= len(old_piv)
    d = np.array(M.invariant_factors, dtype=np.int64)
    T = np.array([old.project(s) for s in M.section], dtype=np.int64).reshape(len(d), len(d))
    if len(d):
        every = np.array(list(itertools.product(*(range(x) for x in d))), dtype=np.int64)
        assert len(np.unique(every @ T % d, axis=0)) == len(every)
    rng = np.random.default_rng(5)
    for _ in range(4):
        # the entry check runs with a generator first: A6's tables are checked too
        alpha = TwoCocycle(G, n, old.random_table(rng))
        assert old.project(alpha) == tuple((np.array(M.project(alpha), dtype=np.int64)
                                            @ T % d).tolist())
    if n <= 48:
        recon = old.recon
        for p, a in prime_power_factors(n):
            K = _gauge_fixed_kernel(recon, p, a)
            full = np.zeros((len(K), recon.dim), dtype=np.int64)
            full[:, recon.free] = K
            cob = multiplier_oracle.coboundary_xvecs(recon, p ** a)
            basis, piv = eliminate_mod_q(np.vstack([full, cob]), p, a)
            want_basis, want_piv = multiplier_oracle.solution_basis(recon, p, a)
            assert np.array_equal(basis, want_basis) and list(piv) == list(want_piv), p


@pytest.mark.parametrize("make", [
    lambda: cyclic_group(2),
    lambda: cyclic_group(4),
    lambda: product_group(cyclic_group(2), cyclic_group(4)),
    lambda: product_group(cyclic_group(6), cyclic_group(6)),
    lambda: product_group(cyclic_group(3), cyclic_group(4)),
], ids=["C2", "C4", "C2xC4", "C6xC6", "C3xC4"])
def test_central_pairing_cocycle_is_of_central_type(make):
    """The pairing cocycle on H x H^ makes the twisted algebra simple: one
    alpha-regular class and a single block of dimension |H|; the block guard
    counts regular classes, so C6xC6 (order 1296) is within it."""
    from motivelab.twisted import alpha_regular, build_twisted, wedderburn_dims
    H = make()
    alpha = central_pairing_cocycle(H)
    G = alpha.group
    assert alpha_regular(G, alpha).count == 1
    assert wedderburn_dims(build_twisted(G, alpha)).dims == (H.order,)


# ---------------------------------------------------------------------------
# Class arithmetic on coordinates against projection
# ---------------------------------------------------------------------------


def _product_of_sections(M, coords):
    """The representative class_from_coords built before it skipped zero
    coordinates: the trivial cocycle times every section power in turn."""
    rep = TwoCocycle.trivial(M.group, M.modulus)
    for c, gen in zip(coords, M.section):
        rep = rep.mul(gen.power(int(c)))
    return rep


_CLASS_ARITH_GROUPS = {name: _WORKLOAD_GROUPS[name] for name in ("C4xC4", "D8xC2", "E4xA4")}
_CLASS_ARITH_GROUPS["E8"] = lambda: elementary_abelian_group(2, 3)


@pytest.mark.parametrize("name", list(_CLASS_ARITH_GROUPS))
def test_class_arithmetic_on_coordinates_matches_projection(name):
    """power, inverse and mul compute coordinates as k c, -c and c + c' mod
    the invariant factors; on every class, for k from -3 to 2 exp(G), they
    equal the projection of the representative, which is still the
    cocycle-level power, inverse and product."""
    G, twin = _CLASS_ARITH_GROUPS[name](), _CLASS_ARITH_GROUPS[name]()
    M, M_twin = schur_multiplier(G), schur_multiplier(twin)
    assert M is not M_twin
    every = list(itertools.product(*(range(d) for d in M.invariant_factors)))
    classes = [M.class_from_coords(c) for c in every]
    for cls in classes:
        for k in range(-3, 2 * G.exponent() + 1):
            p = cls.power(k)
            assert p.coords == M.project(p.representative)
            assert np.array_equal(p.representative.table, cls.representative.power(k).table)
        inv = cls.inverse()
        assert inv.coords == M.project(inv.representative)
        assert np.array_equal(inv.representative.table,
                              cls.representative.inverse_cocycle().table)
        for other in classes + [M_twin.class_from_coords(c) for c in every]:
            prod = cls.mul(other)
            assert prod.coords == M.project(prod.representative)
            assert np.array_equal(prod.representative.table,
                                  cls.representative.mul(other.representative).table)
            assert prod.multiplier is M and prod.group is G


@pytest.mark.parametrize("name", list(_CLASS_ARITH_GROUPS))
def test_class_from_coords_skips_zero_powers_bit_identically(name):
    """Skipping the zero coordinates leaves every representative table as the
    full product of section powers, for unreduced and negative coordinates
    and for the trivial class too."""
    M = schur_multiplier(_CLASS_ARITH_GROUPS[name]())
    assert np.array_equal(M.trivial_class().representative.table,
                          _product_of_sections(M, (0,) * len(M.invariant_factors)).table)
    for coords in itertools.product(*(range(-d, 2 * d + 1) for d in M.invariant_factors)):
        cls = M.class_from_coords(coords)
        assert np.array_equal(cls.representative.table, _product_of_sections(M, coords).table)
        assert cls.coords == M.project(cls.representative)
