import hashlib
import itertools

import numpy as np
import pytest

from motivelab.cocycles import random_cocycle
from motivelab.errors import BadModulus, Unsolvable
from motivelab.groups import cyclic_group
from motivelab.intlinalg import (
    coeffs_in_basis,
    crt_idempotent,
    crt_zip,
    diagonalize_mod_q,
    eliminate_mod_q,
    eliminate_stack_mod_p,
    invert_mod_q,
    is_prime,
    kernel_mod_q,
    merge_primary,
    primary_slots,
    prime_power_factors,
    solve_mod,
)


def test_prime_power_factors():
    assert prime_power_factors(120) == [(2, 3), (3, 1), (5, 1)]
    assert prime_power_factors(1) == []


def _trial_division(n):
    """The factorization by trial division up to sqrt(n), cofactor last."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def test_prime_power_factors_match_trial_division():
    """Stopping once the cofactor is prime changes no factorization: every
    n below 3000, and seeded n below 10^9 with prime powers and large prime
    cofactors among them."""
    rng = np.random.default_rng(29)
    ns = list(range(1, 3000)) + [int(x) for x in rng.integers(1, 10**9, size=300)]
    ns += [2**30, 3**18, 2 * 999983, 999983 * 999979, 2**10 * 3**5 * 1000003]
    for n in ns:
        assert prime_power_factors(n) == _trial_division(n), n


def test_prime_power_factors_of_large_products():
    """Seeded products of primes and prime powers below 2^62, with prime
    factors of up to 31 bits, factor into the (p, a) they were built from,
    the one factorization trial division would also find."""
    rng = np.random.default_rng(30)
    for _ in range(200):
        want, n = {}, 1
        for _ in range(int(rng.integers(1, 5))):
            p = int(rng.integers(2, 1 << int(rng.integers(2, 32))))
            while not is_prime(p):
                p += 1
            a = int(rng.integers(1, 4))
            if n * p ** a >= 1 << 62:
                break
            want[p] = want.get(p, 0) + a
            n *= p ** a
        assert prime_power_factors(n) == sorted(want.items()), n


def test_semiprime_modulus_factors_at_once():
    """A product of two primes near 2^25 is split by Pollard-Brent rho, not
    trial-divided up to the smaller one (about 2 s)."""
    import time
    t0 = time.perf_counter()
    assert solve_mod([[1]], [1], 33554467 * 33554473).particular == (1,)
    assert time.perf_counter() - t0 < 0.1


def test_is_prime_matches_trial_division():
    for n in range(-3, 5000):
        assert is_prime(n) == (n > 1 and _trial_division(n) == [(n, 1)]), n
    assert is_prime(2**61 - 1) and is_prime(2**50 - 27)
    assert not is_prime(3215031751)          # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime((2**31 - 1) * (2**29 - 3))


@pytest.mark.parametrize("call", [
    lambda: solve_mod([[1]], [1], 2**50 - 27),
    lambda: random_cocycle(cyclic_group(2), 2**50 - 27, np.random.default_rng(0)),
], ids=["solve_mod", "random_cocycle"])
def test_large_prime_modulus_refused_at_once(call):
    """A prime modulus near 2^50 is factored by one primality test, not by
    trial division up to its square root (about 2 s), and then refused."""
    import time
    t0 = time.perf_counter()
    with pytest.raises(BadModulus, match="too large for exact int64"):
        call()
    assert time.perf_counter() - t0 < 0.1


def test_crt_idempotent():
    for n in (6, 12, 36, 60, 120):
        for p, a in prime_power_factors(n):
            q = p ** a
            e = crt_idempotent(n, q)
            assert e % q == 1 and e % (n // q) == 0
    assert crt_idempotent(8, 8) == 1


def _brute_span(rows, n, width):
    """Every Z/n-combination of the rows, by closure under adding a row."""
    span = {(0,) * width}
    frontier = list(span)
    while frontier:
        base = frontier.pop()
        for r in rows:
            y = tuple((x + int(c)) % n for x, c in zip(base, r))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _in_span(rows, v, n):
    """Whether v lies in the Z/n-row span of rows: v in the reduced basis's
    span mod each p^a || n."""
    R, v = np.array(rows, dtype=np.int64).reshape(-1, len(v)), np.array(v, dtype=np.int64)
    return all(coeffs_in_basis(*eliminate_mod_q(R, p, a), v, p, a) is not None
               for p, a in prime_power_factors(n))


# Explicit systems: zero and identity rows; [2] mod 4 holds 2 but not 1; the
# span of (2, 1) mod 4 holds (0, 2) = 2*(2, 1), found only by saturation.
_EXPLICIT_SYSTEMS = [([[0, 0], [0, 0]], 6), ([[1, 0], [0, 1]], 6), ([[2]], 4),
                     ([[2, 1]], 4), ([[3, 2], [0, 4]], 12)]


def _random_systems():
    rng = np.random.default_rng(7)
    for n in (4, 6, 8, 9, 12):
        divisors = [d for d in range(1, n) if n % d == 0]
        for _ in range(4):
            k = int(rng.integers(1, 4))
            rows = rng.integers(0, n, size=(k, 3)) * rng.choice(divisors, size=(k, 1)) % n
            yield rows.tolist(), n


@pytest.mark.parametrize("rows,n", _EXPLICIT_SYSTEMS + list(_random_systems()))
def test_span_membership_matches_brute_force(rows, n):
    width = len(rows[0])
    span = _brute_span(rows, n, width)
    every = itertools.product(range(n), repeat=width)
    assert {v for v in every if _in_span(rows, v, n)} == span
    # the per-prime reduced bases, zipped by CRT, generate the same module
    parts = [(p ** a, list(eliminate_mod_q(np.array(rows), p, a)[0]))
             for p, a in prime_power_factors(n)]
    assert _brute_span(crt_zip(parts, n, width), n, width) == span


def test_span_explicit_torsion_cases():
    assert _in_span([[2]], [2], 4) and not _in_span([[2]], [1], 4)
    assert _in_span([[2, 1]], [0, 2], 4) and not _in_span([[2, 1]], [0, 1], 4)


def test_bad_modulus_is_typed():
    for n in (0, -2):
        with pytest.raises(BadModulus):
            solve_mod([[1]], [1], n)


@pytest.mark.parametrize("call", [
    lambda: solve_mod([[1]], [1], 3**40),
    lambda: solve_mod([[1]], [1], 2**64),
], ids=["solve-3^40", "solve-2^64"])
def test_moduli_beyond_int64_are_bad_modulus(call):
    """A modulus of 2^63 or more is refused before it meets an int64 array,
    never an OverflowError."""
    with pytest.raises(BadModulus, match="below 2\\^63"):
        call()


@pytest.mark.parametrize("p, a", [(3, 20), (3, 25), (5, 15)])
def test_odd_prime_powers_beyond_int64_are_refused(p, a):
    """Products of residues mod these q wrap int64, which puts kernel_mod_q's
    vectors on seeded 3 x 5 systems outside the kernel: every entry to the
    Z/p^a core refuses them."""
    q = p ** a
    A = np.random.default_rng(a).integers(0, q, size=(3, 5))
    calls = (lambda: eliminate_mod_q(A, p, a), lambda: diagonalize_mod_q(A, p, a),
             lambda: kernel_mod_q(A, p, a), lambda: invert_mod_q(np.eye(3, dtype=np.int64), p, a),
             lambda: solve_mod(A, [0, 0, 0], q), lambda: solve_mod(A, [0, 0, 0], 2 * q))
    for call in calls:
        with pytest.raises(BadModulus):
            call()


def test_largest_kept_odd_prime_power_is_exact():
    """3^19 is the largest power of 3 with 6 q^2 < 2^63: the matmul sums of
    kernel_mod_q on five columns, of solve_mod and of invert_mod_q stay
    exact, checked in Python integers."""
    p, a = 3, 19
    q = p ** a
    rng = np.random.default_rng(19)
    for _ in range(10):
        A = rng.integers(0, q, size=(3, 5))
        K = kernel_mod_q(A, p, a)
        assert len(K) and not (A.astype(object) @ K.T.astype(object) % q).any()
        x = rng.integers(0, q, size=5).astype(object)
        b = A.astype(object) @ x % q
        y = np.array(solve_mod(A, b, q).particular, dtype=object)
        assert np.array_equal(A.astype(object) @ y % q, b)
    M = np.array([[1, q - 1, 5], [0, q - 2, 7], [3, 1, q - 1]], dtype=np.int64)
    Minv = invert_mod_q(M, p, a)
    assert np.array_equal(M.astype(object) @ Minv.astype(object) % q, np.eye(3, dtype=object))


def test_solve_identity():
    sol = solve_mod([[1, 0], [0, 1]], [5, 7], 12)
    assert sol.particular == (5, 7)
    assert sol.kernel == ()


def test_solve_parity_obstruction():
    with pytest.raises(Unsolvable):
        solve_mod([[2]], [1], 4)


def test_solve_2x_eq_2_mod_4():
    sol = solve_mod([[2]], [2], 4)
    solutions = {sol.particular[0]}
    for row in sol.kernel:
        for c in range(4):
            solutions.add((sol.particular[0] + c * row[0]) % 4)
    # exhaustive: {x : 2x = 2 mod 4} = {1, 3}
    assert solutions == {1, 3}


def test_solve_random_consistency():
    rng = np.random.default_rng(3)
    for n in (4, 6, 9, 12):
        for _ in range(15):
            A = rng.integers(0, n, size=(3, 4))
            x = rng.integers(0, n, size=4)
            b = (A @ x) % n
            sol = solve_mod(A, b, n)
            assert tuple((A @ np.array(sol.particular)) % n) == tuple(b)
            for row in sol.kernel:
                assert not ((A @ np.array(row)) % n).any()


def test_kernel_mod_q_complete():
    rng = np.random.default_rng(5)
    for (p, a) in [(2, 2), (3, 1), (2, 3)]:
        q = p ** a
        A = rng.integers(0, q, size=(3, 3))
        gens = kernel_mod_q(A, p, a)
        # brute-force kernel
        brute = set()
        for x0 in range(q):
            for x1 in range(q):
                for x2 in range(q):
                    v = np.array([x0, x1, x2])
                    if not ((A @ v) % q).any():
                        brute.add(tuple(v))
        spanned = {(0, 0, 0)}
        frontier = [(0, 0, 0)]
        while frontier:
            base = frontier.pop()
            for g in gens:
                y = tuple((np.array(base) + g) % q)
                if y not in spanned:
                    spanned.add(y)
                    frontier.append(y)
        assert spanned == brute


def _augmented_kernel(A, p, a):
    """The reference kernel: the rows of the Howell form of [A^T | I] whose
    left part is zero span the pairs (A x, x) with A x = 0."""
    A = np.asarray(A, dtype=np.int64)
    r, c = A.shape
    H, piv = eliminate_mod_q(np.hstack([A.T, np.eye(c, dtype=np.int64)]), p, a)
    return H[[i for i, (col, _) in enumerate(piv) if col >= r], r:]


def _scaled_systems(seed, count):
    """Seeded matrices over Z/p^a for p in {2, 3, 5, 7} and a in 1..4, with
    0 to 9 rows and 1 to 9 columns.  Each row is scaled by p^k, so pivots
    p^v with v > 0 occur; every third matrix is shifted by multiples of q,
    so entries arrive unreduced and negative."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        p, a = (2, 3, 5, 7)[t % 4], 1 + t // 4 % 4
        q = p ** a
        rows, cols = int(rng.integers(0, 10)), int(rng.integers(1, 10))
        A = rng.integers(0, q, size=(rows, cols)) * p ** rng.integers(0, a + 1, size=(rows, 1))
        if t % 3 == 0:
            A -= q * rng.integers(-2, 3, size=A.shape)
        yield A, p, a


def test_kernel_matches_the_augmented_reference():
    """The kernel read off the Howell form of A is, bit for bit, the Howell
    form the [A^T | I] reduction gives."""
    unit_only = scaled = 0
    for A, p, a in _scaled_systems(12, 2400):
        assert np.array_equal(kernel_mod_q(A, p, a), _augmented_kernel(A, p, a)), (A, p, a)
        vals = [v for _, v in eliminate_mod_q(A, p, a)[1]]
        unit_only += bool(vals) and max(vals) == 0
        scaled += bool(vals) and max(vals) > 0
    assert unit_only > 300 and scaled > 300


# sha256 over repr((R.tolist(), pivots)) of eliminate_mod_q on
# _scaled_systems(13, 800), recorded with the pivot loop that reduced with
# % q on every pass and scanned full rows
_ELIMINATION_DIGEST = "47e82a69bb65d21357aac66b1927a8e781117be2fff4aa9797362d91af59c4d7"


def test_elimination_output_is_pinned():
    digest = hashlib.sha256()
    for A, p, a in _scaled_systems(13, 800):
        R, piv = eliminate_mod_q(A, p, a)
        digest.update(repr((R.tolist(), piv)).encode())
    assert digest.hexdigest() == _ELIMINATION_DIGEST


def test_elimination_depends_only_on_the_row_span():
    """Permuting the rows, or adding random combinations of them, gives the
    same reduced basis and pivots."""
    rng = np.random.default_rng(14)
    for A, p, a in _scaled_systems(15, 400):
        want, want_piv = eliminate_mod_q(A, p, a)
        perm = rng.permutation(len(A))
        mixed = np.vstack([A[perm], rng.integers(0, p ** a, size=(3, len(A))) @ A])
        for B in (A[perm], mixed):
            R, piv = eliminate_mod_q(B, p, a)
            assert np.array_equal(R, want) and piv == want_piv


def _valuations(col, p, a):
    """p-adic valuation of each entry, with a for zeros (mod p^a): the full
    scan the pivot search is checked against."""
    val = np.full(col.shape, a, dtype=np.int64)
    tmp = col.copy()
    for v in range(a):
        mask = (tmp != 0) & (tmp % p != 0)
        val[mask & (val == a)] = v
        tmp //= p
    return val


def test_first_min_valuation_is_the_argmin_pivot():
    """The % p shortcut picks the entry the full valuation scan picks."""
    from motivelab.intlinalg import _first_min_valuation
    rng = np.random.default_rng(8)
    for p, a in [(2, 1), (2, 4), (3, 2), (5, 1)]:
        q = p ** a
        for _ in range(50):
            x = rng.integers(0, q, size=int(rng.integers(1, 9))) * p ** int(rng.integers(0, a + 1)) % q
            vals = _valuations(x, p, a)
            i, v = _first_min_valuation(x, p, a)
            assert v == vals.min() and (v == a or i == int(np.argmin(vals)))


def test_eliminate_mod_q_spans():
    rng = np.random.default_rng(2)
    for (p, a) in [(2, 3), (3, 2)]:
        q = p ** a
        A = rng.integers(0, q, size=(6, 4))
        basis, piv = eliminate_mod_q(A, p, a)
        # every original row must reduce to zero against the basis
        from motivelab.intlinalg import _reduce_block_rows
        residual = _reduce_block_rows(A.copy(), basis, piv, p, q)
        assert not residual.any()


def _stacks(p, rng):
    """Seeded stacks mod p: random, unreduced and wide, rank-deficient (also
    40 x 40 of rank 30, where unreduced pivot rows would wrap int64 at the
    largest p), zero, identity, one slice, 1 x 1, and a mix of all kinds in
    one stack."""
    square = rng.integers(0, p, size=(5, 6, 6))
    low = rng.integers(0, p, size=(4, 7, 2)) @ rng.integers(0, p, size=(4, 2, 5))
    yield square
    yield rng.integers(0, p, size=(2, 40, 30)) @ rng.integers(0, p, size=(2, 30, 40)) % p
    yield rng.integers(-p * p, p * p, size=(3, 4, 7))
    yield low
    yield np.zeros((3, 4, 4), dtype=np.int64)
    yield np.broadcast_to(np.eye(5, dtype=np.int64), (2, 5, 5))
    yield rng.integers(0, p, size=(1, 8, 3))
    yield rng.integers(0, p, size=(6, 1, 1))
    shifted = square[0] - rng.integers(0, p, size=4)[:, None, None] * np.eye(6, dtype=np.int64)
    yield np.stack([square[1], np.zeros((6, 6), dtype=np.int64), rng.integers(0, p, size=(6, 2)) @ rng.integers(0, p, size=(2, 6)),
                    np.eye(6, dtype=np.int64), *shifted])


@pytest.mark.parametrize("p", [2, 3, 31, 97, 18433, 1465231])
def test_stacked_elimination_is_the_per_slice_elimination(p):
    """Every slice's (R, pivots) equals eliminate_mod_q(slice, p, 1) bit for
    bit, the input is left as it was, and a stack split in two gives the
    same list as the whole."""
    rng = np.random.default_rng(p)
    for M in _stacks(p, rng):
        before = M.copy()
        out = eliminate_stack_mod_p(M, p)
        assert np.array_equal(M, before) and len(out) == len(M)
        for (R, piv), A in zip(out, M):
            want, want_piv = eliminate_mod_q(A, p, 1)
            assert R.dtype == np.int64 and R.shape == want.shape
            assert np.array_equal(R, want) and piv == want_piv
        cut = len(M) // 2
        halves = eliminate_stack_mod_p(M[:cut], p) + eliminate_stack_mod_p(M[cut:], p)
        assert all(np.array_equal(R, S) and piv == spiv
                   for (R, piv), (S, spiv) in zip(out, halves))


def test_stacked_elimination_refuses_sums_beyond_int64():
    """An entry collects one product below p^2 per pivot: with p = 2^31 - 1
    a 1 x 1 slice is exact, three pivots are not."""
    p = (1 << 31) - 1
    [(R, piv)] = eliminate_stack_mod_p(np.full((1, 1, 1), p + 5, dtype=np.int64), p)
    assert R.tolist() == [[1]] and piv == [(0, 0)]
    with pytest.raises(BadModulus):
        eliminate_stack_mod_p(np.ones((1, 3, 3), dtype=np.int64), p)


def test_primary_slots():
    # valuations (0, 1) on rank 4 mod 2^3: slot 0 trivial, slot 1 of order 2,
    # slots 2 and 3 past the last pivot of order 8
    assert primary_slots([0, 1], 4, 2, 3) == ((1, 2, 3), (2, 8, 8))
    assert primary_slots([], 0, 3, 1) == ((), ())


def test_merge_primary_largest_with_largest():
    # Z/2 + Z/4 (p = 2) and Z/3 (p = 3): Z/2 + Z/12
    two = np.array([[1, 3], [0, 2]])
    three = np.array([[2], [1]])
    factors, slots, coords = merge_primary([((2, 4), two), ((3,), three)], 2)
    assert factors == (2, 12)
    assert slots == (((0, 0),), ((0, 1), (1, 0)))
    assert coords.tolist() == [[1, 11], [0, 10]]   # 11 = 3 mod 4 = 2 mod 3
    assert merge_primary([((2,), None)], 0)[:2] == ((2,), (((0, 0),),))
    assert merge_primary([], 1)[0] == () and merge_primary([], 1)[2].shape == (1, 0)

