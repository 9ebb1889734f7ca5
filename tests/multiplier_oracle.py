"""Reference solve of the normalized cocycle space on generator coordinates.

The full system: every identity with a generator as first argument, on all
|S|*|G| generator-row coordinates, plus the normalization rows x[pos, 1] = 0,
eliminated mod p^a; its kernel is read off a diagonalization and reduced
once more.  No gauge is fixed and nothing is certified: every constraint
is in the system.

_solution_basis is the library's side of the comparison: the certified
gauge-fixed kernel plus every coboundary, eliminated once.

FullBasisMultiplier reads H^2(G, C^x) off that whole basis, with every
coboundary and the carry of every character as relations.

dense_is_cohomologous decides [alpha] = [beta] from the whole coboundary
system, one row per pair (rho, sigma), with no gauge fixed.
"""

import itertools
from math import gcd

import numpy as np

from motivelab.cocycles import CoboundaryWitness, _gauge_fixed_kernel
from motivelab.errors import Unsolvable
from motivelab.groups import abelianization
from motivelab.intlinalg import (
    coeffs_in_basis,
    crt_idempotent,
    diagonalize_mod_q,
    eliminate_mod_q,
    merge_primary,
    primary_slots,
    prime_power_factors,
    solve_mod,
)


def dense_tensor(recon):
    """M[g, sigma, k] = e_k(g, sigma) for the unit generator-row vectors e_k:
    the whole reconstruction as one |G| x |G| x |S||G| tensor."""
    return recon.tables(np.eye(recon.dim, dtype=np.int32))


def identity_blocks(recon, q):
    """blocks[pos * |G| + rho, sigma] = the row of the identity
    e(rho, sigma) + e(s, rho sigma) - e(s, rho) - e(s rho, sigma) = 0 on all
    generator coordinates, s = gens[pos], from rows of the dense tensor."""
    G = recon.group
    n = G.order
    t = G.cayley
    M = dense_tensor(recon)
    sigma = np.arange(n)
    blocks = []
    for pos, s in enumerate(recon.gens):
        for rho in range(n):
            blk = M[rho].astype(np.int64) - M[G.mul(s, rho)]
            blk[sigma, pos * n + t[rho]] += 1
            blk[:, pos * n + rho] -= 1
            blocks.append(blk)
    return np.array(blocks) % q


def constraint_rows(recon, q):
    """All identities with generator first argument, plus normalization."""
    n = recon.group.order
    normalization = np.zeros((len(recon.gens), recon.dim), dtype=np.int64)
    normalization[np.arange(len(recon.gens)), np.arange(len(recon.gens)) * n] = 1
    return np.vstack([identity_blocks(recon, q).reshape(-1, recon.dim), normalization])


def kernel_by_diagonalization(A, p, a):
    """Generators of {x : A x == 0 mod p**a} from U A V = diag."""
    q = p ** a
    _, vals, V = diagonalize_mod_q(A, p, a)
    gens = [(p ** (a - v)) * V[:, t] % q for t, v in enumerate(vals) if v > 0]
    gens += [V[:, t] % q for t in range(len(vals), A.shape[1])]
    return gens


def solution_basis(recon, p, a):
    """(basis, pivots) of the cocycle space from the full system."""
    H, _ = eliminate_mod_q(constraint_rows(recon, p ** a), p, a)
    if not H.size:
        H = np.zeros((0, recon.dim), dtype=np.int64)
    gens = kernel_by_diagonalization(H, p, a)
    if not gens:
        return np.zeros((0, recon.dim), dtype=np.int64), []
    return eliminate_mod_q(np.array(gens, dtype=np.int64), p, a)


def _solution_basis(recon, p, a):
    """Reduced basis of the normalized cocycle space in generator
    coordinates: the certified gauge-fixed kernel plus the coboundaries span
    it, and one elimination gives the basis, which depends only on the
    space."""
    K = _gauge_fixed_kernel(recon, p, a)
    full = np.zeros((len(K), recon.dim), dtype=np.int64)
    full[:, recon.free] = K
    cob = recon.coboundaries(np.eye(recon.group.order, dtype=np.int64)[:, 1:])
    return eliminate_mod_q(np.vstack([full, cob.reshape(-1, recon.dim)]), p, a)


def coboundary_xvecs(recon, q):
    """Generator-row restrictions of the coboundaries d_h, h != 1, entry by entry."""
    G = recon.group
    n = G.order
    out = []
    for h in range(1, n):
        x = np.zeros(recon.dim, dtype=np.int64)
        for pos, s in enumerate(recon.gens):
            for hp in range(n):
                v = int(hp == h) + int(s == h) - int(G.mul(s, hp) == h)
                x[pos * n + hp] = v % q
        out.append(x)
    return np.array(out, dtype=np.int64).reshape(n - 1, recon.dim)


def expand(recon, x, q):
    """The full table of generator rows x, one matrix product per row g."""
    M = dense_tensor(recon)
    return np.array([M[g].astype(np.int64) @ x % q for g in range(recon.group.order)])


def characters_mod(G, q):
    """Every homomorphism G -> Z/q, as value arrays, from the coordinates
    of G^ab: all combinations of the characters of its cyclic factors."""
    ab = abelianization(G)
    d = ab.invariant_factors
    P = np.array(ab.projection, dtype=np.int64).reshape(G.order, len(d))
    choices = [range(0, q, q // gcd(x, q)) for x in d]
    return [P @ np.array(combo, dtype=np.int64) % q
            for combo in itertools.product(*choices)]


def carry_xvecs(recon, q):
    """Generator rows of the carry cocycle (a(s) + a(h') - a(s h')) div q
    of every character a: G -> Z/q, entry by entry."""
    G = recon.group
    n = G.order
    out = []
    for a in characters_mod(G, q):
        x = np.zeros(recon.dim, dtype=np.int64)
        for pos, s in enumerate(recon.gens):
            for hp in range(n):
                x[pos * n + hp] = (a[s] + a[hp] - a[G.mul(s, hp)]) // q % q
        out.append(x)
    return out


class FullBasisMultiplier:
    """H^2(G, C^x) on the whole reduced cocycle basis of each prime: its
    torsion, all |G| - 1 coboundaries and the carries of every character
    are the relations, diagonalized at the rank r of the basis."""

    def __init__(self, G):
        from motivelab.cocycles import _Reconstruction
        self.group = G
        self.recon = recon = _Reconstruction(G)
        self.components = []
        n = G.order
        cob = recon.coboundaries(np.eye(n, dtype=np.int64)[:, 1:]).reshape(n - 1, recon.dim)
        for p, a in prime_power_factors(G.order):
            q = p ** a
            if (G.element_orders() % q == 0).any():
                continue
            basis, piv = _solution_basis(recon, p, a)
            r = len(piv)
            relations = []
            for i, (_, val) in enumerate(piv):
                if val > 0:
                    row = -coeffs_in_basis(basis, piv, (p ** (a - val)) * basis[i], p, a)
                    row[i] += p ** (a - val)
                    relations.append(row % q)
            for x in [*cob, *carry_xvecs(recon, q)]:
                relations.append(coeffs_in_basis(basis, piv, x, p, a))
            R = np.array(relations, dtype=np.int64).reshape(-1, r)
            _, vals, V = diagonalize_mod_q(R, p, a)
            positions, factors = primary_slots(vals, r, p, a)
            self.components.append((p, a, basis, piv, V, positions, factors))
        self.invariant_factors = merge_primary(
            [(comp[6], None) for comp in self.components], 0)[0]

    def project(self, alpha):
        """Coordinates of [alpha]: its generator rows in the basis, times V."""
        x = alpha.promote(self.group.order).table[self.recon.gens].reshape(-1)
        parts = []
        for p, a, basis, piv, V, positions, factors in self.components:
            c = coeffs_in_basis(basis, piv, x, p, a)
            parts.append((factors, (c @ V)[None, list(positions)]))
        return tuple(merge_primary(parts, 1)[2][0].tolist())

    def random_table(self, rng):
        """A random cocycle table mod |G| from the basis of each solved prime."""
        n = self.group.order
        acc = np.zeros((n, n), dtype=np.int64)
        for p, a, basis, *_ in self.components:
            q = p ** a
            x = rng.integers(0, q, len(basis)) @ basis % q
            acc += crt_idempotent(n, q) * self.recon.expand(x, q)
        return acc % n


def dense_is_cohomologous(alpha, beta):
    """A witness delta for [alpha] = [beta] in H^2(G, C^x), or None: the
    (|G|^2 + 1) x |G| system delta(rho sigma) - delta(rho) - delta(sigma) =
    beta(rho, sigma) - alpha(rho, sigma) on every pair, with delta(1) = 0,
    solved over the witness modulus modulus * exp(G)."""
    G = alpha.group
    n = G.order
    big = alpha.modulus * G.exponent()
    ea = alpha.promote(big).table
    eb = beta.promote(big).table
    k = np.arange(n * n)
    rho, sigma = np.divmod(k, n)
    rows = np.zeros((n * n + 1, n), dtype=np.int64)
    np.add.at(rows, (k, G.cayley[rho, sigma]), 1)
    np.add.at(rows, (k, rho), -1)
    np.add.at(rows, (k, sigma), -1)
    rows[n * n, 0] = 1
    rhs = np.append((eb - ea).reshape(-1) % big, 0)
    try:
        sol = solve_mod(rows, rhs, big)
    except Unsolvable:
        return None
    return CoboundaryWitness(big, sol.particular)
