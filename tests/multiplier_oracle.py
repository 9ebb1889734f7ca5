"""Reference solve of the normalized cocycle space on generator coordinates.

The full system: every identity with a generator as first argument, on all
|S|*|G| generator-row coordinates, plus the normalization rows x[pos, 1] = 0,
eliminated mod p^a; its kernel is read off a diagonalization and reduced
once more.  No gauge is fixed and nothing is certified: every constraint
is in the system.
"""

import numpy as np

from motivelab.intlinalg import diagonalize_mod_q, eliminate_mod_q


def constraint_rows(recon, q):
    """All identities with generator first argument, plus normalization."""
    G = recon.group
    n = G.order
    t = G.cayley
    sigma = np.arange(n)
    blocks = []
    for pos, s in enumerate(recon.gens):
        for rho in range(n):
            blk = recon.M[rho].astype(np.int64) - recon.M[G.mul(s, rho)]
            blk[sigma, pos * n + t[rho]] += 1
            blk[:, pos * n + rho] -= 1
            blocks.append(blk)
    for pos in range(len(recon.gens)):
        row = np.zeros((1, recon.dim), dtype=np.int64)
        row[0, pos * n] = 1
        blocks.append(row)
    return np.vstack(blocks) % q


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
    return np.array([recon.M[g].astype(np.int64) @ x % q for g in range(recon.group.order)])
