"""Character tables over C and the representation ring R(G).

Tables are computed by Dixon's modular method: class-sum structure constants
are diagonalized over F_p for a prime p = 1 (mod exp(G)), p > 2*sqrt(|G|),
and character values are lifted to exact cyclotomics through the discrete
logarithm of a fixed primitive root of unity mod p.  Abelian groups take a
direct dual-group path.  The table is canonicalized by sorting rows, so the
splitting seed never shows in the output.

Each table keeps its values as an int64 array V[i, c, u], the multiplicity
of the eigenvalue zeta_e^u of the i-th irreducible on the class c, so that
chi_i(c) = sum_u V[i, c, u] zeta_e^u.  The exact `Cyclotomic` rows are built
from V in one place, and the row orthogonality check is one integer pass
over V (conjugation is the index map u -> -u).

Virtual characters store integer (or rational) coordinates over the
irreducible basis; class-function values are derived on demand, which makes
integrality checks trivial.  Products in R(G) contract the coordinates with the
tensor structure constants N_ij^k = <chi_i chi_j, chi_k>, which each table
computes once, on first use, in F_p as Dixon's method does: no field arithmetic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

import numpy as np

from .cyclotomic import Cyclotomic, power_reduction_matrix
from .errors import (
    GroupMismatch,
    InvariantViolation,
    NonIntegralCharacter,
    NonIntegralDecomposition,
    PrimeSearchFailed,
    check_invariant,
)
from .groups import FiniteGroup, Subgroup, abelianization, coset_space, same_group

PRIME_SEARCH_LIMIT = 1_000_000
# split_class_algebra multiplies k x k matrices of residues mod p with int64
# matmuls; k <= 256 classes and p < 2^27 keep k p^2 below 2^63
SPLIT_PRIME_LIMIT = 1 << 27
_ORTHOGONALITY_CHECK_BOUND = 48


@dataclass(frozen=True)
class CharacterTable:
    # The group caches its table, so the table keeps only the group's order and
    # class sizes: a reference back would put every group with a table in a
    # reference cycle, which only the cyclic garbage collector frees, late.
    order: int
    sizes: tuple[int, ...] = field(repr=False)  # [class]
    exponent: int
    irreducibles: tuple[tuple[Cyclotomic, ...], ...]  # [irrep][class]
    degrees: tuple[int, ...]
    # read-only int64 V[irrep, class, u], 0 <= V <= d_irrep: the multiplicity
    # of the eigenvalue zeta_e^u, so chi_i(c) = sum_u V[i, c, u] zeta_e^u
    multiplicities: np.ndarray = field(compare=False, repr=False)

    @property
    def num_irreducibles(self) -> int:
        return len(self.irreducibles)

    def class_sizes(self) -> list[int]:
        return list(self.sizes)

    def value(self, irrep: int, class_index: int) -> Cyclotomic:
        return self.irreducibles[irrep][class_index]

    def verify_orthogonality(self) -> None:
        """Exact first orthogonality of rows, as one integer pass over V;
        raises InvariantViolation on failure.

        S[i, j, w] = sum_{c,u} |c| V[i, c, u] V[j, c, u - w] is the coefficient
        of zeta_e^w in sum_c |c| chi_i(c) conj(chi_j(c)), a cyclic convolution
        over Z[C_e] done as e matmuls.  Reducing it once by x^w mod Phi_e
        (monic, so exact over Z) must leave |G| delta_ij."""
        V = self.multiplicities
        k, _, e = V.shape
        n = self.order
        d = np.array(self.degrees, dtype=np.int64)
        # with 0 <= V <= d_i every entry of S is below e |G| d_i d_j < 2^63
        check_invariant(bool((V >= 0).all() and (V <= d[:, None, None]).all()),
                        "eigenvalue multiplicities must lie in [0, d_i]")
        A = (V * np.array(self.sizes, dtype=np.int64)[:, None]).reshape(k, -1)
        S = np.empty((k, k, e), dtype=np.int64)
        for w in range(e):
            S[:, :, w] = A @ np.roll(V, w, axis=2).reshape(k, -1).T
        check_invariant(bool((S <= n * np.outer(d, d)[:, :, None]).all()),
                        "orthogonality sums must be at most |G| d_i d_j")
        R = S @ power_reduction_matrix(e)                  # [i, j, power basis]
        R[:, :, 0] -= n * np.eye(k, dtype=np.int64)
        bad = np.argwhere(R.any(axis=2))
        if bad.size:
            i, j = bad[0]
            raise InvariantViolation(f"row orthogonality fails at ({i},{j})")

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """Read-only int64 array N[i, j, k] = <chi_i chi_j, chi_k>: the
        multiplicity of chi_k in chi_i (x) chi_j.  Built on first use."""
        N = _tensor_constants(self)
        N.setflags(write=False)
        return N


def character_table(G: FiniteGroup, seed: int = 0) -> CharacterTable:
    cached = getattr(G, "_char_table", None)
    if cached is not None:
        return cached
    if G.is_abelian():
        table = _abelian_table(G)
    else:
        table = _dixon_table(G, seed)
    check_invariant(sum(d * d for d in table.degrees) == G.order, "degree sum check failed")
    if table.num_irreducibles <= _ORTHOGONALITY_CHECK_BOUND:
        table.verify_orthogonality()
    G._char_table = table
    return table


def _canonical_table(G: FiniteGroup, e: int, V: np.ndarray,
                     degrees: list[int]) -> CharacterTable:
    """The table with values chi_i(c) = sum_u V[i, c, u] zeta_e^u, its rows
    sorted by degree and values so the splitting order never shows.  Every
    value is integral at conductor e, so the integer rows of V @ R are its
    power-basis numerators and sort as the values do."""
    W = (V @ power_reduction_matrix(e)).tolist()             # [i, c, power basis]
    order = sorted(range(len(degrees)), key=lambda i: (degrees[i], W[i]))
    V = V[order]
    V.setflags(write=False)
    return CharacterTable(
        G.order, tuple(c.size for c in G.conjugacy_classes()), e,
        tuple(tuple(Cyclotomic(e, v) for v in W[i]) for i in order),
        tuple(degrees[i] for i in order),
        V)


def _abelian_table(G: FiniteGroup) -> CharacterTable:
    """chi(g) = zeta_e^(sum_t x_t y_t e / d_t) for g with coordinates x in the
    invariant factors d_t, the character having dual coordinates y."""
    e = G.exponent()
    ab = abelianization(G)
    factors = ab.invariant_factors
    coords = np.array([ab.projection[c.representative] for c in G.conjugacy_classes()],
                      dtype=np.int64)
    duals = np.array(list(itertools.product(*(range(d) for d in factors))),
                     dtype=np.int64)
    scale = np.array([e // d for d in factors], dtype=np.int64)
    expo = (duals * scale) @ coords.T % e                      # [i, c]
    k = len(duals)
    V = np.zeros((k, G.order, e), dtype=np.int64)
    V[np.arange(k)[:, None], np.arange(G.order)[None, :], expo] = 1
    return _canonical_table(G, e, V, [1] * k)


# ---------------------------------------------------------------------------
# Dixon's method
# ---------------------------------------------------------------------------


def _find_prime(e: int, lower: int, limit: int = PRIME_SEARCH_LIMIT) -> int:
    """The least prime p = 1 (mod e) with lower < p < limit."""
    p = e + 1
    while p < limit:
        if p > lower and _is_prime(p):
            return p
        p += e
    raise PrimeSearchFailed(f"no prime = 1 mod {e} above {lower} below {limit}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _primitive_root(p: int) -> int:
    factors = set()
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.add(m)
    for g in range(1, p):  # 1 only for p = 2, where p - 1 has no prime factor
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise PrimeSearchFailed("no primitive root found")


def _dixon_table(G: FiniteGroup, seed: int) -> CharacterTable:
    classes = G.conjugacy_classes()
    k = len(classes)
    n = G.order
    e = G.exponent()
    p = _find_prime(e, 2 * isqrt(n) + 1)
    reps = [c.representative for c in classes]
    sizes = [c.size for c in classes]
    inv_class = [G.class_index_of(G.inv(r)) for r in reps]

    # class algebra structure constants a[i][j][l]: C_i C_j = sum_l a_ijl C_l
    a = np.zeros((k, k, k), dtype=np.int64)
    for l, z in enumerate(reps):
        for x in G.elements():
            i = G.class_index_of(x)
            j = G.class_index_of(G.mul(G.inv(x), z))
            a[i, j, l] += 1

    # the stdlib generator spares the table build the import of numpy.random
    # (about 6 MB of resident memory)
    rng = random.Random(seed)
    chars = split_class_algebra(a, inv_class, n, p, rng)
    degrees = [d for _, d in chars]
    d = np.array(degrees, dtype=np.int64)
    # chi_i(c) = d_i omega_i(c) / |c| in F_p; p < 2^20 keeps products below 2^60
    inv_sizes = np.array([pow(s, -1, p) for s in sizes], dtype=np.int64)
    omega = np.array([w for w, _ in chars], dtype=np.int64)
    chi = omega * d[:, None] % p * inv_sizes % p                  # [i, c]
    # mu_u = o^-1 sum_t chi(g^t) z_o^(-u t) (mod p) is the multiplicity of the
    # eigenvalue zeta_o^u = zeta_e^(u e/o) on an element g of order o: one DFT
    # mod p for all characters and all classes of that order
    z_e = pow(_primitive_root(p), (p - 1) // e, p)
    z_ord = [G.element_order(r) for r in reps]
    V = np.zeros((k, k, e), dtype=np.int64)
    for o in sorted(set(z_ord)):
        cls = [c for c in range(k) if z_ord[c] == o]
        powers = np.array([[G.class_index_of(G.power(reps[c], t)) for t in range(o)]
                           for c in cls], dtype=np.int64)          # [class, t]
        z_o = pow(z_e, e // o, p)
        t = np.arange(o)
        z_pows = np.array([pow(z_o, x, p) for x in range(o)], dtype=np.int64)
        F = z_pows[-np.outer(t, t) % o] * pow(o, -1, p) % p        # [t, u]
        mu = chi[:, powers] @ F % p                               # [i, class, u]
        check_invariant(bool((mu <= d[:, None, None]).all()),
                        "eigenvalue multiplicity exceeds the degree")
        V[:, np.array(cls)[:, None], t * (e // o)] = mu
    return _canonical_table(G, e, V, degrees)


def split_class_algebra(a: np.ndarray, partner: list[int], n: int, p: int,
                        rng: random.Random) -> list[tuple[list[int], int]]:
    """Central characters and degrees of a split semisimple class algebra over F_p.

    a[i, j, l] are the structure constants K_i K_j = sum_l a_ijl K_l of a basis
    of class sums of an algebra of dimension n, with K_0 the unit and
    K_partner(i) the class sum on the inverse class.  The common eigenspaces of
    the matrices A_i[j][l] = a_ijl are split with random combinations drawn
    from rng.  Each eigenvector, scaled to omega_0 = 1, is a central character
    omega_i = omega(K_i), and its degree d is read from Dixon's formula
        d^2 = n / sum_i omega_i omega_partner(i) / pair_i  (mod p),
    pair_i = a[i, partner(i), 0] being the e_1 coefficient of K_i K_partner(i):
    the class size for a group algebra, |C_i| times a root of unity for a
    twisted one (Conlon).  Needs p > 2 sqrt(n) and p prime to n.  Returns one
    (omega, d) per character, in splitting order."""
    k = a.shape[0]
    check_invariant(k * (p - 1) ** 2 < 1 << 63, "split_class_algebra would overflow int64")
    mats = [np.array(a[i], dtype=np.int64) % p for i in range(k)]  # A_i[j][l]
    spaces = [np.eye(k, dtype=np.int64)]
    rounds = 0
    while any(s.shape[1] > 1 for s in spaces):
        rounds += 1
        if rounds > 60:
            raise PrimeSearchFailed("eigenspace splitting failed to converge")
        coeffs = [rng.randrange(p) for _ in range(k)]
        B = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            if coeffs[i]:
                B = (B + coeffs[i] * mats[i]) % p
        new_spaces = []
        for S in spaces:
            if S.shape[1] == 1:
                new_spaces.append(S)
                continue
            new_spaces.extend(_split_space(B, S, p, rng))
        spaces = new_spaces

    inv_pairs = [pow(int(a[i, partner[i], 0]) % p, p - 2, p) for i in range(k)]
    out = []
    for S in spaces:
        w = S[:, 0] % p
        check_invariant(w[0] != 0, "central character must be nonzero on the identity class")
        w = w * pow(int(w[0]), p - 2, p) % p
        omega = [int(x) for x in w]
        denom = sum(omega[i] * omega[partner[i]] * inv_pairs[i] for i in range(k)) % p
        if denom == 0:
            raise PrimeSearchFailed("degenerate degree denominator")
        d2 = n * pow(denom, p - 2, p) % p
        d = next((t for t in range(1, isqrt(n) + 1) if t * t % p == d2), None)
        if d is None:
            raise PrimeSearchFailed("no integral degree matches the eigenvalue data")
        out.append((omega, d))
    return out


def _tensor_constants(table: CharacterTable) -> np.ndarray:
    """N[i, j, k] = |G|^-1 sum_c |c| chi_i(c) chi_j(c) conj(chi_k(c)), computed
    in F_p for a prime p = 1 (mod exp(G)) with p > |G|, zeta_e -> z_e.

    Exact: 0 <= N_ij^k <= d_i d_j <= |G| < p, so each residue is the integer
    itself.  Two exact identities are checked before the array is returned."""
    n, e, k = table.order, table.exponent, table.num_irreducibles
    p = _find_prime(e, n)
    z_e = pow(_primitive_root(p), (p - 1) // e, p)
    z_pow = np.array([pow(z_e, u, p) for u in range(e)], dtype=np.int64)
    V = table.multiplicities
    conj = V[:, :, -np.arange(e) % e]                       # conj(zeta^u) = zeta^-u
    X, X_conj = V @ z_pow % p, conj @ z_pow % p             # [i, c]
    n_inv = pow(n, -1, p)
    weights = np.array([s * n_inv % p for s in table.sizes], dtype=np.int64)
    # p < PRIME_SEARCH_LIMIT < 2^20: a product of two residues is below 2^40
    # and the matmul sums k <= |G| < 2^20 of them, below 2^60.
    W = X * weights % p                                     # [j, c]
    T = W[:, None, :] * X_conj[None, :, :] % p              # [j, k, c]
    N = (X @ T.reshape(k * k, k).T % p).reshape(k, k, k)    # [i, j, k]

    degrees = np.array(table.degrees, dtype=np.int64)
    check_invariant(np.array_equal(N @ degrees, np.outer(degrees, degrees)),
           "structure constants fail sum_k N_ij^k d_k = d_i d_j")
    # eigenvalue multiplicities determine the character, so the dual row is
    # the one whose V is conj's
    row_of = {V[j].tobytes(): j for j in range(k)}
    dual = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        j = row_of.get(conj[i].tobytes())
        check_invariant(j is not None, f"conjugate of chi_{i} missing from the table")
        dual[i, j] = 1
    check_invariant(np.array_equal(N[:, :, _trivial_index(table)], dual),
           "structure constants fail N_ij^triv = [chi_j = conj(chi_i)]")
    return N


def _split_space(B: np.ndarray, S: np.ndarray, p: int, rng) -> list[np.ndarray]:
    """Split the column space S into eigenspaces of B (all matrices mod p)."""
    # restriction A with B S = S A
    A = _solve_columns(S, B @ S % p, p)
    poly = _char_poly(A, p)
    roots = _poly_roots(poly, p, rng)
    out = []
    dim = A.shape[0]
    for lam in roots:
        K = _nullspace(((A - lam * np.eye(dim, dtype=np.int64)) % p), p)
        if K.shape[1]:
            out.append(S @ K % p)
    total = sum(s.shape[1] for s in out)
    check_invariant(total == S.shape[1], "eigenspace split lost dimensions")
    return out


def _solve_columns(S: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """A with S A = Y, S having full column rank mod p."""
    k, m = S.shape
    aug = np.hstack([S, Y]) % p
    # row-reduce
    r = 0
    pivots = []
    for c in range(m):
        rows = [i for i in range(r, k) if aug[i, c] % p]
        if not rows:
            raise PrimeSearchFailed("restriction solve failed")
        i = rows[0]
        aug[[r, i]] = aug[[i, r]]
        aug[r] = aug[r] * pow(int(aug[r, c]), p - 2, p) % p
        for i2 in range(k):
            if i2 != r and aug[i2, c]:
                aug[i2] = (aug[i2] - aug[i2, c] * aug[r]) % p
        pivots.append(c)
        r += 1
    A = np.zeros((m, Y.shape[1]), dtype=np.int64)
    for row_idx, c in enumerate(pivots):
        A[c] = aug[row_idx, m:]
    return A % p


def _nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning {x : M x = 0 mod p}."""
    M = M.copy() % p
    rows, cols = M.shape
    pivots = {}
    r = 0
    for c in range(cols):
        if r == rows:
            break
        cand = np.flatnonzero(M[r:, c])
        if not cand.size:
            continue
        i = r + int(cand[0])
        M[[r, i]] = M[[i, r]]
        M[r] = M[r] * pow(int(M[r, c]), p - 2, p) % p
        col = M[:, c].copy()
        col[r] = 0
        M = (M - np.outer(col, M[r])) % p  # entries < p^2 < 2^54
        pivots[c] = r
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for idx, c in enumerate(free):
        basis[c, idx] = 1
        for pc, pr in pivots.items():
            basis[pc, idx] = (-M[pr, c]) % p
    return basis


def _char_poly(A: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial mod p via Hessenberg reduction."""
    n = A.shape[0]
    H = A.copy() % p
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r, c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), p - 2, p)
        for r in range(c + 2, n):
            if H[r, c]:
                f = H[r, c] * inv % p
                H[r] = (H[r] - f * H[c + 1]) % p
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % p
    # p_i = det(xI - H[:i,:i]) by the Hessenberg recurrence
    polys = [[1]]
    for i in range(1, n + 1):
        # poly_i = (x - H[i-1,i-1]) * poly_{i-1} - sum over subdiagonal products
        term = _poly_shift_sub(polys[i - 1], int(H[i - 1, i - 1]), p)
        prod = 1
        for j in range(i - 1, 0, -1):
            prod = prod * int(H[j, j - 1]) % p
            coeff = prod * int(H[j - 1, i - 1]) % p
            if coeff:
                term = _poly_axpy(term, polys[j - 1], (-coeff) % p, p)
        polys.append(term)
    return polys[n]


def _poly_shift_sub(poly: list[int], a: int, p: int) -> list[int]:
    """(x - a) * poly mod p."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = (out[i + 1] + c) % p
        out[i] = (out[i] - a * c) % p
    return out


def _poly_axpy(target: list[int], poly: list[int], coeff: int, p: int) -> list[int]:
    out = list(target)
    for i, c in enumerate(poly):
        out[i] = (out[i] + coeff * c) % p
    return out


def _poly_roots(poly: list[int], p: int, rng) -> list[int]:
    """Distinct roots in F_p of a monic-able polynomial."""
    poly = [c % p for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    check_invariant(bool(poly), "zero polynomial has no canonical roots")
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


# ---------------------------------------------------------------------------
# Virtual characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VirtualCharacter:
    """Element of R(G) as coordinates over the irreducible characters."""

    group: FiniteGroup
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @staticmethod
    def from_coeffs(G: FiniteGroup, coeffs) -> "VirtualCharacter":
        return VirtualCharacter(G, tuple(Fraction(c) for c in coeffs))

    @staticmethod
    def irreducible(G: FiniteGroup, i: int) -> "VirtualCharacter":
        k = character_table(G).num_irreducibles
        return VirtualCharacter(G, tuple(Fraction(1 if j == i else 0) for j in range(k)))

    @staticmethod
    def trivial_character(G: FiniteGroup) -> "VirtualCharacter":
        table = character_table(G)
        i = _trivial_index(table)
        return VirtualCharacter.irreducible(G, i)

    @staticmethod
    def regular_character(G: FiniteGroup) -> "VirtualCharacter":
        table = character_table(G)
        return VirtualCharacter(G, tuple(Fraction(d) for d in table.degrees))

    @staticmethod
    def zero(G: FiniteGroup) -> "VirtualCharacter":
        k = character_table(G).num_irreducibles
        return VirtualCharacter(G, (Fraction(0),) * k)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def class_value(self, class_index: int) -> Cyclotomic:
        table = character_table(self.group)
        acc = Cyclotomic.zero(table.exponent)
        for c, row in zip(self.coeffs, table.irreducibles):
            if c:
                acc = acc + c * row[class_index]
        return acc

    def class_values(self) -> list[Cyclotomic]:
        k = character_table(self.group).num_irreducibles
        return [self.class_value(c) for c in range(k)]

    def add(self, other: "VirtualCharacter") -> "VirtualCharacter":
        _same(self, other)
        return VirtualCharacter(self.group,
                                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "VirtualCharacter") -> "VirtualCharacter":
        _same(self, other)
        return VirtualCharacter(self.group,
                                tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "VirtualCharacter":
        s = Fraction(s)
        return VirtualCharacter(self.group, tuple(s * c for c in self.coeffs))

    def mul(self, other: "VirtualCharacter") -> "VirtualCharacter":
        """out_k = sum_{i,j} a_i b_j N_ij^k over the supports of a and b."""
        _same(self, other)
        N = character_table(self.group).structure_constants
        out = [Fraction(0)] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                ab = a * b
                for k, m in enumerate(N[i, j].tolist()):
                    if m:
                        out[k] += ab * m
        return VirtualCharacter(self.group, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return same_group(self.group, other.group) and self.coeffs == other.coeffs

    __hash__ = None


def _same(a: VirtualCharacter, b: VirtualCharacter) -> None:
    if not same_group(a.group, b.group):
        raise GroupMismatch("virtual characters on different groups")


def _trivial_index(table: CharacterTable) -> int:
    one = Cyclotomic.one()
    for i, row in enumerate(table.irreducibles):
        if table.degrees[i] == 1 and all(v == one for v in row):
            return i
    raise InvariantViolation("trivial character missing from the table")


def rr_arith(op: str, a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    if op == "add":
        return a.add(b)
    if op == "mul":
        return a.mul(b)
    raise ValueError(f"unknown representation-ring operation {op!r}")


def rank(a: VirtualCharacter) -> Fraction:
    """Value at the identity: the rank homomorphism R(G) -> Z."""
    table = character_table(a.group)
    out = sum((c * d for c, d in zip(a.coeffs, table.degrees)), Fraction(0))
    return out


def is_unit_at_I(a: VirtualCharacter) -> bool:
    """Unit test in the localization at the augmentation ideal: rank != 0."""
    return rank(a) != 0


@dataclass(frozen=True)
class RingIdempotents:
    e_plus: VirtualCharacter
    e_minus: VirtualCharacter


def idempotents(G: FiniteGroup) -> RingIdempotents:
    """The averaging idempotent [kG]/|G| and its complement, verified exactly."""
    table = character_table(G)
    n = G.order
    e_plus = VirtualCharacter(G, tuple(Fraction(d, n) for d in table.degrees))
    one = VirtualCharacter.trivial_character(G)
    e_minus = one.sub(e_plus)
    check_invariant(e_plus.mul(e_plus) == e_plus, "e+ is not idempotent")
    check_invariant(e_minus.mul(e_minus) == e_minus, "e- is not idempotent")
    check_invariant(e_plus.mul(e_minus) == VirtualCharacter.zero(G), "e+ e- is not zero")
    check_invariant(e_plus.add(e_minus) == one, "e+ + e- is not the unit")
    check_invariant(rank(e_plus) == 1 and rank(e_minus) == 0, "idempotent ranks are not 1 and 0")
    return RingIdempotents(e_plus, e_minus)


def decompose_class_function(G: FiniteGroup, values: list[Cyclotomic],
                             allow_rational: bool = False) -> tuple[Fraction, ...]:
    """Coordinates of a class function over the irreducibles, by exact inner
    products; raises NonIntegralCharacter for non-integral outputs unless
    rationals are allowed."""
    table = character_table(G)
    sizes = table.class_sizes()
    n = G.order
    coeffs = []
    for row in table.irreducibles:
        acc = Cyclotomic.zero(table.exponent)
        for c in range(len(sizes)):
            acc = acc + sizes[c] * values[c] * row[c].conjugate()
        acc = acc * Fraction(1, n)
        if not acc.is_rational():
            raise NonIntegralCharacter("inner product is not rational")
        q = acc.rational_value()
        if not allow_rational and q.denominator != 1:
            raise NonIntegralCharacter(f"non-integral multiplicity {q}")
        coeffs.append(q)
    return tuple(coeffs)


def permutation_character(G: FiniteGroup, H: Subgroup) -> VirtualCharacter:
    """Character of the left-translation action on G/H (fixed-coset counts)."""
    space = coset_space(G, H)
    values = []
    for cls in G.conjugacy_classes():
        g = cls.representative
        fixed = sum(1 for i in range(space.size) if space.action[g][i] == i)
        values.append(Cyclotomic.from_rational(fixed))
    coeffs = decompose_class_function(G, values)
    out = VirtualCharacter(G, coeffs)
    check_invariant(rank(out) == H.index, "permutation character rank is not the index")
    triv = _trivial_index(character_table(G))
    check_invariant(out.coeffs[triv] == 1, "transitive action must contain one trivial copy")
    check_invariant(all(c >= 0 for c in out.coeffs), "permutation character has a negative multiplicity")
    return out


def restrict(a: VirtualCharacter, H: Subgroup) -> VirtualCharacter:
    """Restriction along H <= G, decomposed over Irr(H)."""
    G = a.group
    if H.parent is not G and not same_group(H.parent, G):
        raise GroupMismatch("subgroup of a different group")
    sub, members = H.as_group()
    table_h = character_table(sub)
    values = []
    for cls in sub.conjugacy_classes():
        g_parent = members[cls.representative]
        values.append(a.class_value(G.class_index_of(g_parent)))
    coeffs = decompose_class_function(sub, values, allow_rational=True)
    out = VirtualCharacter(sub, coeffs)
    if a.is_integral() and not out.is_integral():
        raise NonIntegralDecomposition("restriction of a character must be integral")
    return out
