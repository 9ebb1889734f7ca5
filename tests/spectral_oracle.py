"""Reference oracle for twisted block dimensions, in floating point.

The simple blocks of C^alpha G are read from the spectrum of a random central
element z: left multiplication by z acts on the block M_d(C) as one scalar
with multiplicity d^2.  The center is found here numerically, as the kernel
of the commutation equations e_tau z = z e_tau, so the oracle shares no code
with motivelab.twisted.  Eigenvalues are clustered at a tolerance; a gap
between clusters inside (tol, 10 tol) is ambiguous and raises.

The roots of polynomials over F_p, which the library finds by evaluating on
every point of F_p, are found here by Cantor-Zassenhaus on coefficient lists.
"""

import cmath

import numpy as np


class ClusterAmbiguity(Exception):
    """Eigenvalue gaps fall inside the ambiguous (tol, 10*tol) band."""


class NonSquareCluster(Exception):
    """An eigenvalue cluster size is not a perfect square."""


def _root(alpha, t):
    return cmath.exp(2j * cmath.pi * t / alpha.modulus)


def commutation_matrix(G, alpha):
    """M with M c = 0 iff z = sum_x c_x e_x satisfies e_tau z = z e_tau for all tau."""
    n = G.order
    table = alpha.table
    rows = []
    for tau in G.elements():
        block = np.zeros((n, n), dtype=complex)
        for x in G.elements():
            block[G.mul(tau, x), x] += _root(alpha, table[tau][x])
            block[G.mul(x, tau), x] -= _root(alpha, table[x][tau])
        rows.append(block)
    return np.vstack(rows)


def spectral_dims(G, alpha, seed=0, tol=1e-8):
    """Sorted block dimensions of the twisted group algebra of alpha."""
    n = G.order
    table = alpha.table
    _, s, vh = np.linalg.svd(commutation_matrix(G, alpha))
    center = vh[s.size - int(np.sum(s < 1e-9 * max(s[0], 1.0))):].conj().T
    coeff = center @ np.random.default_rng(seed).standard_normal(center.shape[1])

    # left multiplication by z on the basis {e_tau}
    A = np.zeros((n, n), dtype=complex)
    for x in G.elements():
        if abs(coeff[x]) < 1e-12:
            continue
        for tau in G.elements():
            A[G.mul(x, tau), tau] += coeff[x] * _root(alpha, table[x][tau])
    eigs = np.linalg.eigvals(A)
    clusters = _cluster(eigs, tol)
    gap = _min_intercluster_gap(eigs, clusters)
    if gap < 10 * tol:
        raise ClusterAmbiguity(
            f"eigenvalue gap {gap:.3e} inside the ambiguous band for tol {tol:.1e}; "
            "retry with a different seed")
    dims = []
    for members in clusters:
        size = len(members)
        d = int(round(size ** 0.5))
        if d * d != size:
            raise NonSquareCluster(f"cluster of size {size} is not a square")
        dims.append(d)
    return tuple(sorted(dims))


def _cluster(eigs, tol):
    k = len(eigs)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(eigs[i] - eigs[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _min_intercluster_gap(eigs, clusters):
    if len(clusters) <= 1:
        return float("inf")
    reps = [np.mean([eigs[i] for i in members]) for members in clusters]
    gap = float("inf")
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = min(gap, abs(reps[i] - reps[j]))
    return gap


# ---------------------------------------------------------------------------
# Roots over F_p by Cantor-Zassenhaus
# ---------------------------------------------------------------------------


def cantor_zassenhaus_roots(poly: list[int], p: int, rng) -> list[int]:
    """Sorted distinct roots in F_p of a nonzero polynomial given by its
    coefficients lowest degree first: the linear part gcd(x^p - x, poly),
    split by gcds with (x + c)^((p - 1)/2) - 1 for random c (rng.randrange)."""
    poly = [c % p for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    if not poly:
        raise ValueError("zero polynomial has no canonical roots")
    inv_lead = pow(poly[-1], p - 2, p)
    poly = [c * inv_lead % p for c in poly]
    # linear-factor part: gcd(x^p - x, poly)
    xp = _poly_powmod([0, 1], p, poly, p)
    lin = _poly_gcd(_poly_sub_mod(xp, [0, 1], p), poly, p)
    roots: list[int] = []
    _collect_roots(lin, p, rng, roots)
    return sorted(roots)


def _collect_roots(f: list[int], p: int, rng, out: list[int]) -> None:
    f = _poly_monic(f, p)
    deg = len(f) - 1
    if deg == 0:
        return
    if deg == 1:
        out.append((-f[0]) % p)
        return
    if f[0] == 0:
        out.append(0)
        _collect_roots(_poly_monic(f[1:], p), p, rng, out)
        return
    while True:
        c = rng.randrange(p)
        # gcd((x+c)^((p-1)/2) - 1, f) splits the roots with prob ~ 1/2
        h = _poly_powmod([c, 1], (p - 1) // 2, f, p)
        h = _poly_sub_mod(h, [1], p)
        g = _poly_gcd(h, f, p)
        if 0 < len(g) - 1 < deg:
            _collect_roots(g, p, rng, out)
            _collect_roots(_poly_div_mod(f, g, p), p, rng, out)
            return


def _poly_monic(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    """a mod `mod` over F_p; zero leading coefficients of mod are dropped."""
    a = [c % p for c in a]
    mod = list(mod)
    while mod[-1] % p == 0:
        mod.pop()
    dm = len(mod) - 1
    inv = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            f = c * inv % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    out = a[:dm]
    while out and out[-1] == 0:
        out.pop()
    return out or [0]


def _poly_powmod(base: list[int], k: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(base, mod, p)
    while k:
        if k & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        k >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [c % p for c in a], [c % p for c in b]
    while any(b):
        a, b = b, _poly_rem(a, b, p)
    return _poly_monic(a, p)


def _poly_div_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Exact quotient a / b mod p."""
    a = [c % p for c in a]
    b = _poly_monic(b, p)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        if c:
            out[i - len(b) + 1] = c
            for j in range(len(b)):
                a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - c * b[j]) % p
    return out


def _poly_sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    m = max(len(a), len(b))
    a = list(a) + [0] * (m - len(a))
    b = list(b) + [0] * (m - len(b))
    return [(x - y) % p for x, y in zip(a, b)]
