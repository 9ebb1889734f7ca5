"""Character tables over C and the representation ring R(G).

Tables are computed by Dixon's modular method: class-sum structure constants
are diagonalized over F_p for a prime p = 1 (mod exp(G)), p > 2*sqrt(|G|),
and character values are lifted to exact cyclotomics through the discrete
logarithm of a fixed primitive root of unity mod p.  Abelian groups take a
direct dual-group path.  The table is canonicalized by sorting rows, so the
splitting seed never shows in the output.

The split runs on the Z/p^a core at a = 1 (`intlinalg`).  Each eigenspace
is a basis S with S[rows] = I, so a random combination B restricts to
A = (B S)[rows].  The minimal polynomial of A is the least relation among
the Krylov rows phi A^t of the unit-class coordinate phi = S[0], read off
one kernel, and its roots are read off its values on every point of F_p,
computed at once by Horner's rule (p < 2^27).  With as many roots as dim S,
every eigenline comes from one inverse of the Krylov matrix times a
Vandermonde matrix; otherwise the eigenspaces of all roots are read off the
reduced rows of the A - lam, stacked and eliminated together.  No draw goes
into root finding: the minimal polynomial of a split semisimple A has only
simple roots in F_p.

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
from .intlinalg import eliminate_stack_mod_p, invert_mod_q, kernel_mod_q

PRIME_SEARCH_LIMIT = 1_000_000
# split_class_algebra multiplies k x k matrices of residues mod p with int64
# matmuls: the combination B, the restriction B S, the Krylov rows phi A^t
# and the product of the inverse Krylov matrix with the Vandermonde matrix;
# k <= 256 classes and p < 2^27 keep k p^2 below 2^63
SPLIT_PRIME_LIMIT = 1 << 27
_ORTHOGONALITY_CHECK_BOUND = 48
_ROOT_CHUNK = 1 << 16               # points of F_p per Horner pass of _poly_roots
_STACK_CHUNK = 1 << 17              # int64 entries of A - lam per stacked elimination


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
        """Exact first orthogonality of rows, as one pass over V in exact
        integer sums; raises InvariantViolation on failure.

        S[i, j, w] = sum_{c,u} |c| V[i, c, u] V[j, c, u - w] is the coefficient
        of zeta_e^w in sum_c |c| chi_i(c) conj(chi_j(c)), a cyclic convolution
        over Z[C_e] done as e matmuls.  Reducing it once by x^w mod Phi_e
        (monic, so exact over Z) must leave |G| delta_ij."""
        V = self.multiplicities
        k, _, e = V.shape
        n = self.order
        d = np.array(self.degrees, dtype=np.int64)
        # with 0 <= V <= d_i every entry of S is a sum of nonnegative integers
        # below e |G| d_i d_j: below 2^53 every partial sum, in whatever order
        # the float64 (BLAS) matmuls take it, is an exact integer
        check_invariant(bool((V >= 0).all() and (V <= d[:, None, None]).all()),
                        "eigenvalue multiplicities must lie in [0, d_i]")
        check_invariant(e * n * int(d.max()) ** 2 < 1 << 53,
                        "orthogonality sums must stay below 2^53")
        A = (V * np.array(self.sizes, dtype=np.int64)[:, None]).reshape(k, -1).astype(np.float64)
        Vf = V.astype(np.float64)
        S = np.empty((k, k, e))
        for w in range(e):
            S[:, :, w] = A @ np.roll(Vf, w, axis=2).reshape(k, -1).T
        S = S.astype(np.int64)
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
        tuple(tuple(Cyclotomic._make(e, v) for v in W[i]) for i in order),
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
    reps = G.class_representatives()
    sizes = [c.size for c in classes]
    class_of = G.class_index()
    inv_class = class_of[G.inverses[reps]].tolist()

    # class algebra structure constants a[i][j][l]: C_i C_j = sum_l a_ijl C_l,
    # a_ijl counting the x in C_i with x^-1 r_l in C_j for the representative r_l
    x = np.arange(n)[:, None]
    a = np.zeros((k, k, k), dtype=np.int64)
    np.add.at(a, (class_of[x], class_of[G.cayley[G.inverses[x], reps]], np.arange(k)), 1)

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
    z_ord = G.element_orders()[reps]
    V = np.zeros((k, k, e), dtype=np.int64)
    for o in np.unique(z_ord).tolist():
        cls = np.flatnonzero(z_ord == o)
        powers = _power_classes(G, reps[cls], o)                   # [class, t]
        z_o = pow(z_e, e // o, p)
        t = np.arange(o)
        z_pows = np.array([pow(z_o, x, p) for x in range(o)], dtype=np.int64)
        F = z_pows[-np.outer(t, t) % o] * pow(o, -1, p) % p        # [t, u]
        mu = chi[:, powers] @ F % p                               # [i, class, u]
        check_invariant(bool((mu <= d[:, None, None]).all()),
                        "eigenvalue multiplicity exceeds the degree")
        V[:, cls[:, None], t * (e // o)] = mu
    return _canonical_table(G, e, V, degrees)


def _power_classes(G: FiniteGroup, reps: np.ndarray, o: int) -> np.ndarray:
    """int64 [r, t]: the class of r^t for t < o, for every r in reps at once,
    by one Cayley walk cur <- cur r."""
    class_of = G.class_index()
    powers = np.empty((len(reps), o), dtype=np.int64)
    cur = np.zeros(len(reps), dtype=np.int64)
    for t in range(o):
        powers[:, t] = class_of[cur]
        cur = G.cayley[cur, reps]
    return powers


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
    mats = np.asarray(a, dtype=np.int64) % p                      # A_i[j][l]
    # each space is a basis S with S[rows] = I, the rows read off its reduced form
    spaces = [(np.eye(k, dtype=np.int64), np.arange(k))]
    rounds = 0
    while any(len(rows) > 1 for _, rows in spaces):
        rounds += 1
        if rounds > 60:
            raise PrimeSearchFailed("eigenspace splitting failed to converge")
        coeffs = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        B = np.tensordot(coeffs, mats, axes=1) % p
        new_spaces = []
        for S, rows in spaces:
            if len(rows) == 1:
                new_spaces.append((S, rows))
                continue
            new_spaces.extend(_split_space(B, S, rows, p))
        spaces = new_spaces

    inv_pairs = [pow(int(a[i, partner[i], 0]) % p, p - 2, p) for i in range(k)]
    out = []
    for S, _ in spaces:
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


def _split_space(B: np.ndarray, S: np.ndarray, rows: np.ndarray,
                 p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the column space of S, with S[rows] = I, into eigenspaces of B
    (all mod p), each returned as such a pair.

    The restriction A with B S = S A is (B S)[rows].  Its minimal polynomial
    is the least relation among the Krylov rows phi A^t of the unit-class
    coordinate phi = S[0]: every central character is 1 on the unit class,
    so phi is nonzero on every eigenvector.  With r = dim S distinct roots
    every eigenspace is a line u with phi A^t u = lam^t, so the lines are the
    columns of K^-1 W for the Krylov matrix K (t < r) and the Vandermonde
    matrix W[t, lam] = lam^t.  Otherwise each root's eigenspace is read off
    the reduced rows of A - lam, which one stacked elimination gives for a
    chunk of roots at a time (each chunk of at most _STACK_CHUNK entries is
    built only when its turn comes)."""
    r = len(rows)
    A = (B @ S % p)[rows]
    krylov = np.empty((r + 1, r), dtype=np.int64)
    krylov[0] = S[0]
    for t in range(r):
        krylov[t + 1] = krylov[t] @ A % p
    # kernel rows of the Krylov rows taken highest power first are echelon
    # in falling degree: the last is the monic relation of least degree
    relation = kernel_mod_q(krylov[::-1].T, p, 1)[-1]
    roots = _poly_roots(relation, p)
    if len(roots) == r:
        W = np.ones((r, r), dtype=np.int64)
        for t in range(1, r):
            W[t] = W[t - 1] * roots % p
        lines = S @ (invert_mod_q(krylov[:r], p, 1) @ W % p) % p
        unit_row = np.zeros(1, dtype=np.int64)
        return [(lines[:, [j]], unit_row) for j in range(r)]
    out = []
    diag = np.arange(r)
    step = max(1, _STACK_CHUNK // (r * r))
    for lo in range(0, len(roots), step):
        lams = roots[lo:lo + step]
        stack = np.broadcast_to(A, (len(lams), r, r)).copy()
        stack[:, diag, diag] -= lams[:, None]
        for R, piv in eliminate_stack_mod_p(stack, p):
            pivots = [c for c, _ in piv]
            free = np.ones(r, dtype=bool)
            free[pivots] = False
            free = np.flatnonzero(free)
            N = np.zeros((r, free.size), dtype=np.int64)
            N[free, np.arange(free.size)] = 1
            N[pivots] = -R[:, free] % p
            out.append((S @ N % p, rows[free]))
    check_invariant(sum(len(f) for _, f in out) == r, "eigenspace split lost dimensions")
    return out


def _poly_roots(f: np.ndarray, p: int) -> np.ndarray:
    """The distinct roots in F_p, ascending, of the nonzero polynomial with
    coefficients f, highest degree first: f is evaluated on every point of
    F_p at once by Horner's rule, in chunks of _ROOT_CHUNK points.  From a
    residue, t steps v -> v x + c stay below p^(t + 1), so v is reduced only
    every `steps` steps, the most with p^(steps + 1) < 2^63 (p < 2^27: at
    least one)."""
    f = np.trim_zeros(np.asarray(f, dtype=np.int64) % p, "f")
    check_invariant(f.size > 0, "zero polynomial has no canonical roots")
    steps = 1
    while p ** (steps + 2) < 1 << 63:
        steps += 1
    roots = []
    for lo in range(0, p, _ROOT_CHUNK):
        x = np.arange(lo, min(lo + _ROOT_CHUNK, p), dtype=np.int64)
        v = np.full_like(x, f[0])
        for i, c in enumerate(f[1:], 1):
            v *= x
            v += c
            if i % steps == 0:
                v %= p
        roots.append(x[v % p == 0])
    return np.concatenate(roots)


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
