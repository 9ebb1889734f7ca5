"""Reference oracle for twisted block dimensions, in floating point.

The simple blocks of C^alpha G are read from the spectrum of a random central
element z: left multiplication by z acts on the block M_d(C) as one scalar
with multiplicity d^2.  The center is found here numerically, as the kernel
of the commutation equations e_tau z = z e_tau, so the oracle shares no code
with motivelab.twisted.  Eigenvalues are clustered at a tolerance; a gap
between clusters inside (tol, 10 tol) is ambiguous and raises.
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
