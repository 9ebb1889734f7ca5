"""Exact linear algebra over Z/n.

Z/n is not a field.  All work over Z/n happens modulo prime powers q = p^a,
where a vectorized elimination keeps pivots of the form p^v and saturates
the row span, so that membership and coordinates are decided by one pass
over the pivots.  A composite modulus n is split into its prime-power parts
and the per-prime results are joined with the CRT idempotents e_q.  A
finite abelian group given mod p^a by a relation matrix is read off the same
way: its diagonalization gives the cyclic factors p^v, and the factors of
the primes merge into invariant factors with CRT coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence

import numpy as np

from .errors import BadModulus, Unsolvable


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, deterministic for
    n < 3.3 * 10^24 (every int64 modulus)."""
    if n < 2 or any(n % q == 0 for q in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    s = ((n - 1) & (1 - n)).bit_length() - 1           # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_factors(n: int) -> list[tuple[int, int]]:
    """Factor n as a list of (p, a) with p^a || n, p ascending: trial
    division by the primes up to 37, then each cofactor is prime by
    Miller-Rabin or split by Pollard-Brent rho."""
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m > 1 and m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
    return sorted(counts.items())


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor up to 37, by
    Brent's cycle search on x -> x^2 + c mod n from x = 2, for c = 1, 2, ...
    until one splits n: deterministic, about n^(1/4) steps."""
    c = 0
    while True:
        c += 1
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(y - x, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def require_modulus(n: int) -> None:
    """BadModulus unless 1 <= n < 2^63, before n meets an int64 array."""
    if n < 1:
        raise BadModulus(f"modulus must be a positive integer, got {n}")
    if n >= 1 << 63:
        raise BadModulus(f"modulus must be below 2^63, got {n}")


def _require_int64(p: int, a: int, width: int = 1) -> None:
    """BadModulus when int64 sums of width products of residues mod p**a could
    wrap; for p = 2 they wrap mod 2^64, a multiple of p**a, and stay exact."""
    if p != 2 and max(width, 1) * p ** (2 * a) >= 1 << 63:
        raise BadModulus(f"modulus {p}^{a} is too large for exact int64 arithmetic")


def crt_idempotent(n: int, q: int) -> int:
    """e_q mod n for a prime power q || n: e_q == 1 mod q and 0 mod n/q."""
    m = n // q
    return m * pow(m, -1, q) % n


def crt_zip(parts: Sequence[tuple[int, Sequence[np.ndarray]]], n: int,
            width: int) -> tuple[tuple[int, ...], ...]:
    """Join per-prime generators (q, rows mod q): row j is sum_q e_q g_{q,j}.

    The joined rows generate the direct sum of the per-prime row spans.
    """
    rows = np.zeros((max((len(g) for _, g in parts), default=0), width), dtype=object)
    for q, gens in parts:
        e = crt_idempotent(n, q)
        for j, g in enumerate(gens):
            rows[j] = (rows[j] + e * np.asarray(g, dtype=object)) % n
    return tuple(tuple(int(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# Vectorized elimination mod a prime power (internal fast path)
# ---------------------------------------------------------------------------


def _mod(X: np.ndarray, p: int, q: int) -> np.ndarray:
    """X mod q = p**a in [0, q); for p = 2 a mask, which on two's complement
    int64 is the floor mod."""
    return X & (q - 1) if p == 2 else X % q


def _first_min_valuation(x: np.ndarray, p: int, a: int) -> tuple[int, int]:
    """(index, valuation) of the first entry of least p-adic valuation, with
    valuation a when x is zero mod p**a; one % p pass finds a unit, and each
    further valuation costs one // p pass."""
    hit = _mod(x, p, p).nonzero()[0]
    if hit.size:
        return int(hit[0]), 0
    if not x.any():
        return 0, a
    for v in range(1, a):
        x = x // p
        hit = _mod(x, p, p).nonzero()[0]
        if hit.size:
            return int(hit[0]), v
    return 0, a


def eliminate_mod_q(A: np.ndarray, p: int, a: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Howell-saturated row reduction of A mod q = p**a.

    Returns (R, pivots) with R a reduced basis of the row span (pivot entries
    p**v, entries above pivots reduced where valuations allow) and pivots a
    list of (col, val).  Rows are folded in geometrically growing chunks so
    tall redundant systems only pay one vectorized reduction pass.
    """
    _require_int64(p, a)
    q = p ** a
    A = _mod(np.asarray(A, dtype=np.int64), p, q)
    if A.shape[0] == 0 or not A.any():
        return np.zeros((0, A.shape[1]), dtype=np.int64), []
    cols = A.shape[1]
    basis = np.zeros((0, cols), dtype=np.int64)
    piv: list[tuple[int, int]] = []
    start = 0
    chunk = max(256, 2 * cols)
    while start < A.shape[0]:
        block = A[start:start + chunk]
        start += chunk
        chunk *= 2
        if piv:
            block = _reduce_block_rows(block, basis, piv, p, q)
        block = block[block.any(axis=1)]
        if block.shape[0]:
            merged = np.vstack([basis, block]) if piv else block
            basis, piv = _echelon_block(merged, p, a)
    while True:
        stabs = []
        for i, (c, v) in enumerate(piv):
            if 0 < v < a:
                s = (p ** (a - v)) * basis[i] % q
                s = _reduce_block_rows(s[None, :], basis, piv, p, q)
                if s.any():
                    stabs.append(s[0])
        if not stabs:
            break
        basis, piv = _echelon_block(
            np.vstack([basis, np.array(stabs, dtype=np.int64)]), p, a)
    return basis, piv


def _echelon_block(M: np.ndarray, p: int, a: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Echelon form of the rows of M, whose entries lie in [0, q), q = p**a,
    computed in place: each pivot is scaled to p**v, its column cleared
    below and reduced mod p**v above."""
    q = p ** a
    m, ncols = M.shape
    r = 0
    piv: list[tuple[int, int]] = []
    for c in range(ncols):
        if r == m:
            break
        i, v = _first_min_valuation(M[r:, c], p, a)
        if v >= a:
            continue
        if i != 0:
            M[[r, r + i]] = M[[r + i, r]]
        pv = p ** v
        unit = int(M[r, c]) // pv
        if unit != 1:
            M[r, c:] = _mod(M[r, c:] * pow(unit, -1, q), p, q)
        f = M[:, c] // pv if v else M[:, c].copy()
        f[r] = 0
        nz = f.nonzero()[0]
        if nz.size:
            # every row from r on, row r included, is zero left of column c
            M[nz, c:] = _mod(M[nz, c:] - f[nz, None] * M[r, c:], p, q)
        piv.append((c, v))
        r += 1
    return M[:r], piv


def eliminate_stack_mod_p(M: np.ndarray, p: int) -> list[tuple[np.ndarray, list[tuple[int, int]]]]:
    """eliminate_mod_q(M[b], p, 1) for every slice of a stack M[b] of
    matrices, as one list of (R, pivots).

    Over the field F_p the reduced row echelon form is unique, so each
    column is one step over the whole stack: every slice with a nonzero
    entry at or below its rank takes the first as pivot, swaps it up and
    scales it to 1, and clears the column in all its other rows on the
    trailing columns.  The update runs in place over the whole stack, with
    zero multipliers in the slices that have no pivot in the column, and is
    reduced mod p only where it is read: the pivot row, and each column at
    its own step, after which no update touches it.  An entry collects at
    most one product below p^2 per pivot on its residue, so
    min(rows, columns) + 1 such terms must stay below 2^63."""
    M = np.asarray(M, dtype=np.int64) % p
    b, m, ncols = M.shape
    _require_int64(p, 1, min(m, ncols) + 1)
    rank = np.zeros(b, dtype=np.int64)
    pivot_cols = np.zeros((b, min(m, ncols)), dtype=np.int64)
    below = np.arange(m)[None, :]
    buf = np.empty_like(M)
    for c in range(ncols):
        col = M[:, :, c] % p
        M[:, :, c] = col
        hit = (col != 0) & (below >= rank[:, None])
        has = hit.any(axis=1)
        s = np.flatnonzero(has)
        if not s.size:
            continue
        i, r = hit[s].argmax(axis=1), rank[s]
        row = M[s, i] % p
        M[s, i] = M[s, r]
        inv = np.array([pow(x, -1, p) for x in row[:, c].tolist()], dtype=np.int64)
        row = row * inv[:, None] % p
        M[s, r] = row
        f = M[:, :, c] * has[:, None]
        f[s, r] = 0
        pivot_rows = np.zeros((b, ncols - c), dtype=np.int64)
        pivot_rows[s] = row[:, c:]
        # rows from the rank on, the pivot row among them, are zero left of c
        prod = buf[:, :, c:]
        np.multiply(f[:, :, None], pivot_rows[:, None, :], out=prod)
        M[:, :, c:] -= prod
        pivot_cols[s, r] = c
        rank[s] += 1
    return [(M[t, :rank[t]], [(c, 0) for c in pivot_cols[t, :rank[t]].tolist()])
            for t in range(b)]


def _reduce_block_rows(B: np.ndarray, basis: np.ndarray, piv: list[tuple[int, int]],
                       p: int, q: int) -> np.ndarray:
    """B reduced against an echelon basis: each row's entry at a pivot
    column is cut below the pivot, only on the pivot's tail."""
    B = _mod(B, p, q)
    for i, (c, v) in enumerate(piv):
        f = B[:, c] // (p ** v) if v else B[:, c]
        nz = f.nonzero()[0]
        if nz.size:
            B[nz, c:] = _mod(B[nz, c:] - f[nz, None] * basis[i, c:], p, q)
    return B


def diagonalize_mod_q(A: np.ndarray, p: int, a: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """U A V = diag mod q = p**a with U, V invertible mod q.

    Returns (U, diag_valuations, V); diagonal entries are p**v in ascending
    valuation, truncated at the first missing pivot.
    """
    _require_int64(p, a)
    q = p ** a
    M = np.asarray(A, dtype=np.int64).copy() % q
    m, c = M.shape
    U = np.eye(m, dtype=np.int64)
    V = np.eye(c, dtype=np.int64)
    vals: list[int] = []
    for t in range(min(m, c)):
        sub = M[t:, t:]
        k, v = _first_min_valuation(sub.reshape(-1), p, a)
        if v >= a:
            break
        i, j = divmod(k, sub.shape[1])
        i += t
        j += t
        if i != t:
            M[[t, i]] = M[[i, t]]
            U[[t, i]] = U[[i, t]]
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
            V[:, [t, j]] = V[:, [j, t]]
        pv = p ** v
        unit = int(M[t, t]) // pv
        ui = pow(unit, -1, q)
        M[t] = M[t] * ui % q
        U[t] = U[t] * ui % q
        f = M[:, t] // pv
        f[t] = 0
        if f.any():
            M -= np.outer(f, M[t])
            U -= np.outer(f, U[t])
            M %= q
            U %= q
        g = M[t, :] // pv
        g[t] = 0
        if g.any():
            M -= np.outer(M[:, t], g)
            V -= np.outer(V[:, t], g)
            M %= q
            V %= q
        vals.append(v)
    return U % q, vals, V % q


def kernel_mod_q(A: np.ndarray, p: int, a: int) -> np.ndarray:
    """Generators of {x : A x == 0 mod p**a}, one per row, in Howell form.

    Read off the Howell form R of A: a row with a unit pivot is zero at every
    other unit pivot, so the unit-pivot coordinates are x_P = -R[unit, N] x_N
    on the rest N of the columns.  Only the rows W with pivot p**v, v > 0,
    constrain x_N; the rows of the Howell form of [W^T | I] whose left part
    is zero span their kernel.  The lifted generators are put in Howell
    form, which depends only on the kernel.
    """
    _require_int64(p, a, A.shape[1])
    R, piv = eliminate_mod_q(A, p, a)
    unit = np.array([v == 0 for _, v in piv], dtype=bool)
    rest = np.ones(R.shape[1], dtype=bool)
    rest[[c for c, v in piv if v == 0]] = False
    W = R[~unit][:, rest]
    Y = np.eye(len(W.T), dtype=np.int64)
    if len(W):
        H, wpiv = eliminate_mod_q(np.hstack([W.T, Y]), p, a)
        Y = H[[i for i, (c, _) in enumerate(wpiv) if c >= len(W)], len(W):]
    X = np.zeros((len(Y), R.shape[1]), dtype=np.int64)
    X[:, rest] = Y
    X[:, ~rest] = -(Y @ R[unit][:, rest].T)
    return eliminate_mod_q(X, p, a)[0]


def coeffs_in_basis(basis: np.ndarray, piv: Sequence[tuple[int, int]], v: np.ndarray,
                    p: int, a: int) -> np.ndarray | None:
    """Coordinates of v in a reduced basis from eliminate_mod_q; None when v
    is outside its span mod p**a."""
    q = p ** a
    v = v.astype(np.int64) % q
    coeffs = np.zeros(len(piv), dtype=np.int64)
    for i, (c, val) in enumerate(piv):
        pv = p ** val
        if v[c] % pv:
            return None
        t = int(v[c]) // pv
        if t:
            v = (v - t * basis[i]) % q
            coeffs[i] = t
    if v.any():
        return None
    return coeffs


def invert_mod_q(M: np.ndarray, p: int, a: int) -> np.ndarray:
    """Inverse of a square matrix invertible mod p**a."""
    _require_int64(p, a, len(M))
    q = p ** a
    M = np.asarray(M, dtype=np.int64) % q
    m = M.shape[0]
    U, vals, V = diagonalize_mod_q(M, p, a)
    if len(vals) != m or any(v != 0 for v in vals):
        raise ValueError("matrix not invertible mod prime power")
    return V @ U % q


def primary_slots(vals: Sequence[int], rank: int, p: int,
                  a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positions, factors) of the nontrivial cyclic factors of (Z/p^a)^rank
    modulo a relation matrix diagonalized with valuations vals: slot t has
    order p^vals[t], and a slot past the last pivot has order p^a."""
    kept = [(t, p ** (vals[t] if t < len(vals) else a)) for t in range(rank)
            if t >= len(vals) or vals[t] > 0]
    return tuple(t for t, _ in kept), tuple(f for _, f in kept)


def merge_primary(parts: Sequence[tuple[Sequence[int], np.ndarray | None]], count: int
                  ) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...], np.ndarray]:
    """Invariant factors of a finite abelian group from its p-primary parts.

    parts[i] = (factors, coords): the cyclic factors of one prime and the
    coordinates, an int array [count, len(factors)], of count elements in
    them (None when count is 0).  The largest factor of every prime merges
    with the largest of the others, the next with the next, and so on.
    Returns the merged factors d_1 | d_2 | ..., slots[j] = the (part, factor
    index) pairs merged into d_j, and the coordinates [count, len(slots)]
    joined by CRT.
    """
    desc = [sorted(range(len(f)), key=lambda t: -f[t]) for f, _ in parts]
    depth = max(map(len, desc), default=0)
    slots = tuple(tuple((i, d[j]) for i, d in enumerate(desc) if j < len(d))
                  for j in reversed(range(depth)))
    factors = tuple(prod(parts[i][0][t] for i, t in slot) for slot in slots)
    coords = np.zeros((count, depth), dtype=np.int64)
    if count:
        for j, (slot, d) in enumerate(zip(slots, factors)):
            for i, t in slot:
                f = parts[i][0][t]
                coords[:, j] += crt_idempotent(d, f) * (parts[i][1][:, t] % f)
            coords[:, j] %= d
    return factors, slots, coords


@dataclass(frozen=True)
class ModSolution:
    """Solution set of A x = b over Z/n: one particular solution plus kernel
    generators spanning all homogeneous solutions."""

    modulus: int
    particular: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]


def solve_mod(A, b: Sequence[int], n: int) -> ModSolution:
    """Solve A x = b over Z/n; raise Unsolvable when inconsistent.

    A is a 2-D array or a list of integer rows.  Each prime power q || n is
    solved on its own; the particular solutions and the kernel generators
    are joined with the CRT idempotents.
    """
    require_modulus(n)
    mat = np.asarray(A, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != len(b):
        raise ValueError("dimension mismatch")
    c = mat.shape[1]
    if n == 1:
        return ModSolution(1, tuple([0] * c), ())
    mat = mat % n
    bvec = np.asarray([int(x) % n for x in b], dtype=np.int64)
    particular = np.zeros(c, dtype=object)
    kernels: list[tuple[int, list[np.ndarray]]] = []
    # reduce the augmented system first so transforms stay (c+1)-sized
    aug = np.hstack([mat, bvec[:, None]])
    for p, a in prime_power_factors(n):
        _require_int64(p, a, c + 1)
        q = p ** a
        red, _ = eliminate_mod_q(aug, p, a)
        Ared, bred = red[:, :c], red[:, c]
        U, vals, V = diagonalize_mod_q(Ared, p, a)
        rhs = U @ bred % q
        z = np.zeros(c, dtype=np.int64)
        for t in range(Ared.shape[0]):
            target = int(rhs[t])
            if t < len(vals):
                pv = p ** vals[t]
                if target % pv != 0:
                    raise Unsolvable(f"no solution mod {q}")
                z[t] = target // pv
            elif target % q != 0:
                raise Unsolvable(f"no solution mod {q}")
        xq = V @ z % q
        particular = (particular + crt_idempotent(n, q) * xq.astype(object)) % n
        kernels.append((q, kernel_mod_q(Ared, p, a)))
    check = (mat.astype(object) @ particular) % n
    if not np.array_equal(check, bvec.astype(object)):
        raise Unsolvable("inconsistent system")
    return ModSolution(n, tuple(int(x) for x in particular), crt_zip(kernels, n, c))
