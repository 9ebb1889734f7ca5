"""Normalized 2-cocycles on a finite group with root-of-unity values.

A cocycle alpha: G x G -> mu_n is stored as its exponent table mod n, a
read-only C-contiguous int64 array; n < 2^62, so the sum of two entries
cannot wrap, and products that could (powers where (n - 1)^2 >= 2^63) are
taken in Python integers.  Products, inverses, powers, promotions and
restrictions are single array expressions.  Construction checks the table
exactly, but only with a generator first: by the cocycle identity of the
coboundary c = delta e, c(s tau, -, -) is a combination of c(tau, -, -) and
values c(s, -, -), so c vanishes everywhere once it vanishes with every
generator first and e is normalized (induction on word length).  That costs
|S| |G|^2 entries instead of |G|^3; a table that fails is scanned in
(tau, rho, sigma) order for its first failing triple.

The class group H^2(G, C^x) is computed as H^2(G, Z/n) with n = |G|
(cocycles modulo coboundaries), further quotiented by the carry classes
coming from the refinement exact sequence 0 -> Z/n -> Q/Z -> Q/Z -> 0: a
character chi: G -> Z/n with representative values a contributes the class
(sigma, rho) -> (a(sigma) + a(rho) - a(sigma rho)) div n.

The cocycle solution space is parametrized by restriction to generator rows:
a normalized cocycle is determined by its values e(s, -) for s in a
generating set, via e(s g', sigma) = e(g', sigma) + e(s, g' sigma) - e(s, g')
along a word tree, and the full cocycle identity is equivalent to the
identities with first argument a generator.  That reduction gives |S|*|G|
coordinates instead of |G|^2.

The solve fixes a gauge: adding the coboundary of a suitable f: G -> Z/q
makes any cocycle vanish on the |G| - 1 tree edges (pos, g') of the word
tree, and the identity block of a tree edge is identically zero.  So the
unknowns are the (|S| - 1)|G| + 1 other coordinates, and the blocks come
from the non-tree edges.  Each block is read off the tree paths of its two
ends, so no |G| x |G| x |S||G| reconstruction tensor is built.  The blocks
enter a few at a time, and each kernel is checked exactly against every
identity.  The kernel is carried from round to round: a round eliminates
the new blocks only on the current kernel's generators, never again on all
free coordinates.  The multiplier is the certified kernel K modulo the |S|
gauge-fixed coboundaries d(w.c), w(g) the generator counts of the tree word
of g (Reidemeister-Schreier), and the gauge-fixed carries, diagonalized at
the size of K.  cocycle_space adds every coboundary to K.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadModulus,
    GroupMismatch,
    InvariantViolation,
    ModulusMismatch,
    NotACocycle,
    NotAbelian,
    SizeBound,
    Unsolvable,
)
from .groups import FiniteGroup, Subgroup, abelianization, same_group
from .intlinalg import (
    coeffs_in_basis,
    crt_idempotent,
    crt_zip,
    diagonalize_mod_q,
    eliminate_mod_q,
    in_span_mod,
    invert_mod_q,
    kernel_mod_q,
    merge_primary,
    primary_slots,
    prime_power_factors,
    require_modulus,
    solve_mod,
)

COCYCLE_SPACE_GUARD = 4096          # |G|^2 bound for full-table bases
SCHUR_DEFAULT_MAX_ORDER = 48
_FIRST_BATCH = 4                    # identity blocks before the first certificate
_CERTIFICATE_CHUNK = 1 << 21        # |G|^2 x rows table entries per certificate chunk
MODULUS_BOUND = 1 << 62             # int64 sums of two reduced exponents stay exact


@dataclass(frozen=True, eq=False)
class TwoCocycle:
    """Normalized 2-cocycle with values in mu_modulus, stored as exponents: a
    read-only int64 array reduced mod modulus.  Construction checks the table
    exactly; identity-preserving operations build through _trusted.  Two
    cocycles are equal on the same group object, with the same modulus and
    the same entries."""

    group: FiniteGroup
    modulus: int
    table: np.ndarray

    def __post_init__(self):
        E = _exponent_array(self.group, self.modulus, self.table)
        report = _first_failure(self.group, self.modulus, E)
        if not report.ok:
            raise NotACocycle(report.message)
        E.flags.writeable = False
        object.__setattr__(self, "table", E)

    @classmethod
    def _trusted(cls, G: FiniteGroup, modulus: int, table: np.ndarray) -> "TwoCocycle":
        """A cocycle from a fresh C-contiguous int64 array, already reduced
        mod modulus and known to satisfy the identity: no check, no
        reduction, no copy; the array is made read-only."""
        table.flags.writeable = False
        alpha = object.__new__(cls)
        alpha.__dict__.update(group=G, modulus=modulus, table=table)
        return alpha

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoCocycle):
            return NotImplemented
        return (self.group is other.group and self.modulus == other.modulus
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.modulus, self.table.tobytes()))

    @staticmethod
    def trivial(G: FiniteGroup, modulus: int) -> "TwoCocycle":
        require_modulus(modulus)
        return TwoCocycle._trusted(G, modulus, np.zeros((G.order, G.order), dtype=np.int64))

    @staticmethod
    def from_exponents(G: FiniteGroup, modulus: int, table) -> "TwoCocycle":
        return TwoCocycle(G, modulus, table)

    def as_array(self) -> np.ndarray:
        return self.table

    def promote(self, m: int) -> "TwoCocycle":
        """View the same mu_modulus-valued cocycle inside mu_m (modulus | m < 2^62)."""
        if m >= MODULUS_BOUND:
            raise BadModulus(f"cocycle modulus must be below 2^62, got {m}")
        if m == self.modulus:
            return self
        if m % self.modulus:
            raise ModulusMismatch("can only promote to a multiple of the modulus")
        return TwoCocycle._trusted(self.group, m, self.table * (m // self.modulus))

    # entries are below the modulus < 2^62, so the sum of two cannot wrap int64

    def mul(self, other: "TwoCocycle") -> "TwoCocycle":
        if not same_group(self.group, other.group):
            raise GroupMismatch("cocycles live on different groups")
        if self.modulus != other.modulus:
            raise ModulusMismatch("cocycle moduli differ")
        return TwoCocycle._trusted(self.group, self.modulus,
                                   (self.table + other.table) % self.modulus)

    def inverse_cocycle(self) -> "TwoCocycle":
        return TwoCocycle._trusted(self.group, self.modulus, -self.table % self.modulus)

    def power(self, k: int) -> "TwoCocycle":
        n = self.modulus
        k %= n
        if (n - 1) * (n - 1) < 1 << 63:
            return TwoCocycle._trusted(self.group, n, self.table * k % n)
        # products of two residues can pass 2^63: exact in Python integers
        return TwoCocycle._trusted(self.group, n,
                                   (self.table.astype(object) * k % n).astype(np.int64))

    def restrict(self, H: Subgroup) -> "TwoCocycle":
        """Restriction along a subgroup, on the subgroup's own numbering."""
        grp, members = H.as_group()
        m = np.asarray(members)
        return TwoCocycle._trusted(grp, self.modulus, self.table[m[:, None], m])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""
    triple: tuple[int, int, int] | None = None


def cocycle_validate(G: FiniteGroup, modulus: int, table) -> ValidationReport:
    """Check normalization and the cocycle identity mod modulus of a raw
    exponent table, reporting the first failing triple in (tau, rho, sigma)
    order; BadModulus for a modulus outside [1, 2^62), NotACocycle for a
    table that is not |G| x |G| integers."""
    return _first_failure(G, modulus, _exponent_array(G, modulus, table))


def _exponent_array(G: FiniteGroup, modulus: int, table) -> np.ndarray:
    """The raw table reduced mod modulus, as a fresh int64 array: one array
    pass for a signed integer array (or a list of int64-sized integers),
    else entry by entry through int()."""
    if modulus >= MODULUS_BOUND:
        raise BadModulus(f"cocycle modulus must be below 2^62, got {modulus}")
    require_modulus(modulus)
    n, m = G.order, modulus
    try:
        E = np.asarray(table)
    except (TypeError, ValueError):
        E = None
    if E is not None and E.dtype.kind == "i" and E.shape == (n, n):
        return E.astype(np.int64, copy=False) % m
    try:
        if len(table) != n or any(len(r) != n for r in table):
            raise NotACocycle("table dimensions must match the group order")
        return np.array([[int(x) % m for x in row] for row in table], dtype=np.int64)
    except (TypeError, ValueError):
        raise NotACocycle("table must be a list of integer rows") from None


def _violations(G: FiniteGroup, m: int, E: np.ndarray, tau: int) -> np.ndarray:
    """bad[rho, sigma]: the cocycle identity at (tau, rho, sigma) fails mod m."""
    t = G.cayley
    # e(rho,sigma) + e(tau,rho sigma) - e(tau,rho) - e(tau rho,sigma), over reduced
    # entries, lies in (-2m, 2m): it is 0 mod m exactly when its absolute value is 0 or m
    d = E[tau, t]                                     # [rho, sigma]
    d += E
    d -= E[t[tau]]
    d -= E[tau, :, None]
    np.abs(d, out=d)
    return (d != 0) & (d != m)


def _first_failure(G: FiniteGroup, m: int, E: np.ndarray) -> ValidationReport:
    """Normalization, then the identity with a generator first, for E reduced
    mod m.  With c = delta e the identity delta c = 0 gives c(s tau, rho, sigma)
    = c(tau, rho, sigma) + c(s, tau rho, sigma) - c(s, tau, rho sigma) + c(s,
    tau, rho), and normalization gives c(1, -, -) = 0; so c vanishes on the
    generators' triples only if it vanishes on all, by induction on word
    length (Brown, Cohomology of Groups, ch. IV).  Only a table that fails
    is scanned in full, for its first failing triple."""
    if E[0].any() or E[:, 0].any():
        s = int(np.flatnonzero(E[0] | E[:, 0])[0])
        return ValidationReport(False, f"normalization fails at element {s}", (0, s, 0))
    for s in G.generating_set():
        if _violations(G, m, E, s).any():
            # the first failing triple has tau <= s: the scan stops by tau = s
            for tau in range(s + 1):
                bad = _violations(G, m, E, tau)
                if bad.any():
                    rho, sigma = (int(x) for x in np.argwhere(bad)[0])
                    return ValidationReport(
                        False, f"cocycle identity fails at ({tau}, {rho}, {sigma})",
                        (tau, rho, sigma))
    return ValidationReport(True)


def central_pairing_cocycle(H: FiniteGroup) -> TwoCocycle:
    """The pairing cocycle on H x H^ for abelian H: alpha((a,b),(c,d)) = chi_b(c).

    H is identified with its dual H^ through the coordinates abelianization(H)
    picks: b with coordinates (b_i) in the sum of the Z/d_i is the character
    chi_b(c) = sum_i b_i c_i / d_i.  H and H^ have no canonical isomorphism,
    so the class of the cocycle follows those coordinates and is not a
    function of H alone; it is always of central type.  Returned with
    modulus exp(H); the twisted algebra it defines is simple.
    """
    from .groups import product_group

    if not H.is_abelian():
        raise NotAbelian("central pairing needs an abelian base group")
    e = H.exponent()
    ab = abelianization(H)
    d = np.array(ab.invariant_factors, dtype=np.int64)
    P = np.array(ab.projection, dtype=np.int64).reshape(H.order, len(d))
    pairing = (P * (e // d)) @ P.T % e                       # [b, c] = chi_b(c)
    g = np.arange(H.order * H.order)
    table = pairing[np.ix_(g % H.order, g // H.order)]
    return TwoCocycle._trusted(product_group(H, H), e, table)


# ---------------------------------------------------------------------------
# Generator-row parametrization of the cocycle space
# ---------------------------------------------------------------------------


class _Reconstruction:
    """Word tree and linear maps expressing full tables from generator rows."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        gens = np.asarray(G.generating_set(), dtype=np.int64)
        n = G.order
        self.gens = gens
        self.dim = len(gens) * n
        self.parent, self.tree_order = G.word_tree()
        # the coordinates (pos, g') off the tree edges: the gauge-fixed unknowns
        tree = np.zeros(self.dim, dtype=bool)
        for g in self.tree_order[1:]:
            pos, gp = self.parent[g]
            tree[pos * n + gp] = True
        self.free = np.flatnonzero(~tree)

    def tables(self, X: np.ndarray) -> np.ndarray:
        """E[g, sigma, k] = e_k(g, sigma), unreduced, for the generator-row
        vectors X[k], by e(s g', sigma) = e(g', sigma) + e(s, g' sigma) - e(s, g')
        along the tree."""
        n = self.group.order
        t = self.group.cayley
        rows = X.reshape(len(X), len(self.gens), n)
        E = np.zeros((n, n, len(X)), dtype=X.dtype)
        for g in self.tree_order[1:]:
            pos, gp = self.parent[g]
            E[g] = E[gp] + rows[:, pos, t[gp]].T - rows[:, pos, gp]
        return E

    def blocks(self, edges: np.ndarray, q: int) -> np.ndarray:
        """Rows, on the free coordinates, of the identities
        e(rho, -) + e(s, rho -) - e(s, rho) - e(s rho, -) = 0 at the non-tree
        edges (pos, rho) = divmod(free[k], |G|), k in edges.  Each is read off
        tree paths: e(g, sigma) sums x(s', g' sigma) - x(s', g') over the steps
        (s', g') from g to the root, so an identity is the path of rho, the
        step (s, rho) itself, minus the path of s rho."""
        n = self.group.order
        t = self.group.cayley
        steps = []                                       # (edge, sign, pos, g')
        for k, (pos, rho) in enumerate(zip(*np.divmod(self.free[edges], n))):
            steps.append((k, 1, pos, rho))
            for g, sign in ((rho, 1), (t[self.gens[pos], rho], -1)):
                while g:
                    steps.append((k, sign, *self.parent[g]))
                    g = self.parent[g][1]
        k, sign, pos, gp = np.array(steps, dtype=np.int64).reshape(-1, 4).T
        # tree coordinates go to a last column that is dropped
        column = np.full(self.dim, len(self.free))
        column[self.free] = np.arange(len(self.free))
        B = np.zeros((len(edges), n, len(self.free) + 1), dtype=np.int64)
        sigma = np.arange(n)
        np.add.at(B, (k[:, None], sigma, column[(pos * n)[:, None] + t[gp]]), sign[:, None])
        np.subtract.at(B, (k[:, None], sigma, column[pos * n + gp][:, None]), sign[:, None])
        B %= q
        return B[:, :, :-1].reshape(-1, len(self.free))

    def violated(self, X: np.ndarray, q: int) -> np.ndarray:
        """bad[k, j]: row k of X, a cocycle candidate on the free coordinates,
        violates mod q the identity at the non-tree edge free[j].  Together
        with normalization these are all the identities with a generator
        first: InvariantViolation when normalization fails."""
        n = self.group.order
        t = self.group.cayley
        full = np.zeros((len(X), self.dim), dtype=np.int64)
        full[:, self.free] = X % q
        if full[:, ::n].any():
            raise InvariantViolation("cocycle candidate is not normalized")
        bad = np.zeros((self.dim, len(X)), dtype=bool)
        # row chunks of X bound the working set; the multiplier's kernels on
        # the tested groups up to order 120 fit in one chunk
        step = max(1, _CERTIFICATE_CHUNK // (n * n))
        for lo in range(0, len(X), step):
            chunk = full[lo:lo + step]
            E = self.tables(chunk)
            E %= q
            for pos, s in enumerate(self.gens):
                xs = chunk[:, pos * n:(pos + 1) * n].T     # [h, k] = e_k(s, h)
                R = E[t[s]]                    # in place: each term has |G|^2 |chunk| entries
                np.subtract(E, R, out=R)
                R += xs[t]
                R -= xs[:, None, :]
                # four terms reduced mod q: R lies in (-2q, 2q), and is 0 mod q
                # exactly when its absolute value is 0 or q
                np.abs(R, out=R)
                bad[pos * n:(pos + 1) * n, lo:lo + step] = ((R != 0) & (R != q)).any(axis=1)
        return bad[self.free].T

    def expand(self, x: np.ndarray, q: int) -> np.ndarray:
        return self.tables(x[None].astype(np.int64))[:, :, 0] % q

    def coboundaries(self, F: np.ndarray) -> np.ndarray:
        """Generator rows [c, pos, h'] of the coboundaries of the columns f of
        F ([g, c]): f(s) + f(h') - f(s h'), s = gens[pos]."""
        t = self.group.cayley[self.gens]                             # [pos, h']
        return F.T[:, None, :] + F[self.gens].T[:, :, None] - np.moveaxis(F[t], 2, 0)

    def gauge_fix(self, X: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
        """(h, Y) mod N with x = Y + dh for the normalized cocycles x with
        generator rows X[m] ([m, |S|, |G|], |entries| < 2^62), Y on the free
        coordinates: h(1) = 0 and h(s g') = h(g') + h(s) - x(s, g') along the
        tree, so h = 0 on S and Y = x - dh, x(s, g') - h(g') + h(s g'),
        vanishes on the tree edges.  Reduced at every step, nothing wraps."""
        n = self.group.order
        h = np.zeros((len(X), n), dtype=np.int64)
        for g in self.tree_order[1:]:
            pos, gp = self.parent[g]
            h[:, g] = (h[:, gp] - X[:, pos, gp]) % N
        Y = X - h[:, None, :] + h[:, self.group.cayley[self.gens]]
        return h, Y.reshape(len(X), self.dim)[:, self.free] % N

    def carries(self, q: int) -> np.ndarray:
        """Generator rows of the carry cocycles (a(s) + a(h') - a(s h')) div q
        of one generator a of Hom(G, Z/q) per invariant factor of G^ab: the
        connecting map is a homomorphism, so their classes span all carries."""
        ab = abelianization(self.group)
        g = np.gcd(np.array(ab.invariant_factors, dtype=np.int64), q)
        P = np.array(ab.projection, dtype=np.int64).reshape(self.group.order, len(g))
        A = (P[:, g > 1] * (q // g[g > 1])).T % q              # [character, element]
        t = self.group.cayley[self.gens]
        return (A[:, self.gens, None] + A[:, None, :] - A[:, t]) // q


def _gauge_fixed_kernel(recon: _Reconstruction, p: int, a: int) -> np.ndarray:
    """Generators, on the free coordinates, of the cocycles that vanish on
    the tree edges.

    They are the kernel of the normalization rows and the identity blocks at
    the non-tree edges.  The kernel K is carried from round to round: it
    starts as the unit vectors off the normalization coordinates, and each
    round's blocks B cut it to Y K, Y the kernel of C = B K^T, so a round
    eliminates only |K| columns.  The first round's C is the first blocks'
    columns off normalization.  Each round checks every generator of K
    against all identities, and the first identity each violating generator
    breaks joins the next round's blocks, which removes that generator from
    the next kernel.  The kernel no generator violates is the whole
    gauge-fixed space.
    """
    q = p ** a
    free = recon.free
    keep = free % recon.group.order != 0
    C = recon.blocks(np.arange(min(_FIRST_BATCH, len(free))), q)[:, keep]
    Y = kernel_mod_q(C, p, a)
    K = np.zeros((len(Y), len(free)), dtype=np.int64)
    K[:, keep] = Y
    while True:
        bad = recon.violated(K, q)
        if not bad.any():
            return K
        first_broken = bad.argmax(axis=1)[bad.any(axis=1)]
        C = recon.blocks(np.unique(first_broken), q) @ K.T % q
        K = kernel_mod_q(C, p, a) @ K % q


def _solution_basis(recon: _Reconstruction, p: int, a: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced basis of the normalized cocycle space in generator
    coordinates: the gauge-fixed kernel plus the coboundaries span it, and
    one elimination gives the basis, which depends only on the space."""
    K = _gauge_fixed_kernel(recon, p, a)
    full = np.zeros((len(K), recon.dim), dtype=np.int64)
    full[:, recon.free] = K
    cob = recon.coboundaries(np.eye(recon.group.order, dtype=np.int64)[:, 1:])
    return eliminate_mod_q(np.vstack([full, cob.reshape(-1, recon.dim)]), p, a)


# ---------------------------------------------------------------------------
# Cocycle space as full tables
# ---------------------------------------------------------------------------


def cocycle_space(G: FiniteGroup, n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of normalized Z^2(G, Z/n) on the |G|^2 table coordinates:
    the reduced basis mod each p^a || n, joined row by row by crt_zip."""
    require_modulus(n)
    size = G.order * G.order
    if size > COCYCLE_SPACE_GUARD:
        raise SizeBound(f"|G|^2 = {size} exceeds {COCYCLE_SPACE_GUARD}")
    if n == 1 or G.order == 1:
        return ()
    recon = _Reconstruction(G)
    parts = []
    for p, a in prime_power_factors(n):
        q = p ** a
        basis, _ = _solution_basis(recon, p, a)
        parts.append((q, [recon.expand(x, q).reshape(-1) for x in basis]))
    return crt_zip(parts, n, size)


def cocycle_in_space(space: Sequence[Sequence[int]], alpha: TwoCocycle) -> bool:
    """Membership of alpha in the space cocycle_space(alpha.group, alpha.modulus)."""
    return in_span_mod(space, alpha.table.ravel().tolist(), alpha.modulus)


def random_cocycle(G: FiniteGroup, n: int, rng: np.random.Generator) -> TwoCocycle:
    """A random element of the normalized cocycle space (seeded)."""
    space = cocycle_space(G, n)
    size = G.order
    acc = np.zeros(size * size, dtype=np.int64)
    for row in space:
        acc = (acc + int(rng.integers(0, n)) * np.asarray(row, dtype=np.int64)) % n
    return TwoCocycle._trusted(G, n, acc.reshape(size, size))


# ---------------------------------------------------------------------------
# Coboundary equivalence over C^x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoboundaryWitness:
    """delta: G -> mu_modulus with
    delta(rho sigma) + alpha(rho,sigma) = delta(sigma) + delta(rho) + beta(rho,sigma).

    The witness modulus refines the cocycle modulus: twists that only
    trivialize over C^x need values in a finer root-of-unity group.
    """

    modulus: int
    values: tuple[int, ...]


def is_cohomologous(alpha: TwoCocycle, beta: TwoCocycle) -> CoboundaryWitness | None:
    """Decide equality of [alpha], [beta] in H^2(G, C^x); None if distinct.

    Mod N = modulus * exp(G), x = alpha - beta is gauge fixed on its
    generator rows, x = Y + dh, and x = d(delta) exactly when Y is a sum of
    the |S| tree coboundaries d(w_c) c_c: then delta = h + W c, W the word
    counts, since a normalized cocycle is fixed by its generator rows."""
    G = alpha.group
    if not same_group(G, beta.group):
        raise GroupMismatch("cocycles live on different groups")
    if alpha.modulus != beta.modulus:
        raise ModulusMismatch("cocycle moduli differ")
    big = alpha.modulus * G.exponent()
    recon = _Reconstruction(G)
    W = G.word_counts()
    x = alpha.promote(big).as_array() - beta.promote(big).as_array()
    h, Y = recon.gauge_fix(x[None, recon.gens], big)
    T = recon.coboundaries(W).reshape(len(W.T), recon.dim)[:, recon.free]
    try:
        c = solve_mod(T.T, Y[0], big).particular
    except Unsolvable:
        return None
    # W c in Python integers: c is reduced mod big, up to 2^62
    delta = (h[0] + W @ np.array(c, dtype=object)) % big
    return CoboundaryWitness(big, tuple(int(v) for v in delta))


def verify_witness(alpha: TwoCocycle, beta: TwoCocycle, w: CoboundaryWitness) -> bool:
    """Whether w.values is a witness delta for alpha ~ beta: delta(1) = 0 and
    delta(rho sigma) + alpha(rho, sigma) = delta(sigma) + delta(rho) +
    beta(rho, sigma) mod w.modulus on every pair, checked in one array pass.
    A witness with other than |G| values is not one."""
    G = alpha.group
    if not same_group(G, beta.group):
        raise GroupMismatch("cocycles live on different groups")
    if alpha.modulus != beta.modulus:
        raise ModulusMismatch("cocycle moduli differ")
    big = w.modulus
    ea, eb = alpha.promote(big).as_array(), beta.promote(big).as_array()
    if len(w.values) != G.order:
        return False
    d = np.array([int(v) % big for v in w.values], dtype=np.int64)
    # every sum below adds two values reduced mod big < 2^62: no int64 wrap
    lhs = (d[G.cayley] + ea) % big
    rhs = (d[None, :] + d[:, None]) % big
    rhs = (rhs + eb) % big
    return bool(d[0] == 0 and np.array_equal(lhs, rhs))


# ---------------------------------------------------------------------------
# Schur multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PrimeComponent:
    p: int
    a: int
    basis: np.ndarray                      # reduced gauge-fixed kernel, free coords
    piv: tuple[tuple[int, int], ...]
    V: np.ndarray                          # relation diagonalizer (mod q)
    positions: tuple[int, ...]             # coordinate slots with nontrivial factor
    factors: tuple[int, ...]               # prime-power factor per kept slot

    @property
    def q(self) -> int:
        return self.p ** self.a


class SchurMultiplier:
    """H^2(G, C^x) in invariant-factor form, with projection and section."""

    def __init__(self, G: FiniteGroup, n: int, components: list[_PrimeComponent],
                 recon: _Reconstruction | None):
        self.group = G
        self.modulus = n
        self._components = components
        self._recon = recon
        self.invariant_factors, slots, _ = merge_primary(
            [(comp.factors, None) for comp in components], 0)
        Vinv = [invert_mod_q(comp.V, comp.p, comp.a) if comp.factors else None
                for comp in components]
        self.section = tuple(self._section_cocycle(slot, Vinv) for slot in slots)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def _section_cocycle(self, slot, Vinv: list[np.ndarray | None]) -> TwoCocycle:
        n = self.modulus
        G = self.group
        acc = np.zeros((G.order, G.order), dtype=np.int64)
        for ci, t in slot:
            comp = self._components[ci]
            q = comp.q
            x = np.zeros(self._recon.dim, dtype=np.int64)
            x[self._recon.free] = Vinv[ci][comp.positions[t]] @ comp.basis
            table = self._recon.expand(x, q)
            acc = (acc + crt_idempotent(n, q) * table) % n
        return TwoCocycle._trusted(G, n, acc)

    def project(self, alpha: TwoCocycle) -> tuple[int, ...]:
        """Canonical coordinates of [alpha] in the invariant-factor basis."""
        G = self.group
        if not same_group(G, alpha.group):
            raise GroupMismatch("cocycle lives on a different group")
        if self.modulus % alpha.modulus:
            raise ModulusMismatch(
                f"modulus {alpha.modulus} does not divide {self.modulus}")
        table = alpha.promote(self.modulus).as_array()
        parts = []
        if self._components:
            x = self._recon.gauge_fix(table[None, self._recon.gens], self.modulus)[1][0]
        for comp in self._components:
            c = coeffs_in_basis(comp.basis, comp.piv, x, comp.p, comp.a)
            if c is None:
                raise NotACocycle("table is not in the cocycle space")
            parts.append((comp.factors, (c @ comp.V)[None, list(comp.positions)]))
        return tuple(merge_primary(parts, 1)[2][0].tolist())

    def class_of(self, alpha: TwoCocycle) -> "CohomClass":
        return self._class(self.project(alpha), alpha.promote(self.modulus))

    def _class(self, coords, rep: TwoCocycle) -> "CohomClass":
        """The class with coordinates coords, reduced mod the invariant
        factors, and representative rep."""
        return CohomClass(self.group, self.modulus, tuple(
            int(c) % d for c, d in zip(coords, self.invariant_factors)), rep, self)

    def class_from_coords(self, coords: Sequence[int]) -> "CohomClass":
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate arity does not match invariant factors")
        rep = TwoCocycle.trivial(self.group, self.modulus)
        for c, gen in zip(coords, self.section):
            if c:                       # a zero power adds nothing to the table
                rep = rep.mul(gen.power(int(c)))
        return self._class(coords, rep)

    def trivial_class(self) -> "CohomClass":
        return self.class_from_coords((0,) * len(self.invariant_factors))

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"C{d}" for d in self.invariant_factors)


def schur_multiplier(G: FiniteGroup, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> SchurMultiplier:
    """H^2(G, C^x) as invariant factors, via mu_|G| cocycles modulo
    coboundaries and connecting-map classes.

    The guard is checked first.  The result is memoized on G while it, or
    anything built from it, is alive: G keeps only a weak reference, since
    the multiplier, its sections and its reconstruction refer back to G and
    a strong one would make a cycle that only the cyclic collector frees."""
    if G.order > max_group_order:
        raise SizeBound(
            f"group order {G.order} exceeds the multiplier guard {max_group_order}")
    cached = getattr(G, "_schur", None)
    M = cached() if cached is not None else None
    if M is None:
        M = _schur_multiplier(G)
        G._schur = weakref.ref(M)
    return M


def _schur_multiplier(G: FiniteGroup) -> SchurMultiplier:
    n = G.order
    orders = G.element_orders()
    # a cyclic Sylow p-subgroup P has M(P) = 0, and restriction embeds the
    # p-part of M(G) into M(P): only the other primes are solved for, and a
    # group with none (every cyclic group among them) needs no word tree
    primes = [(p, a) for p, a in prime_power_factors(n) if not (orders % p ** a == 0).any()]
    recon = _Reconstruction(G) if primes else None
    components = []
    for p, a in primes:
        q = p ** a
        basis, piv = eliminate_mod_q(_gauge_fixed_kernel(recon, p, a), p, a)
        r = len(piv)
        relations = []
        for i, (c, val) in enumerate(piv):
            if val > 0:
                target = (p ** (a - val)) * basis[i] % q
                coeff = coeffs_in_basis(basis, piv, target, p, a)
                if coeff is None:
                    raise InvariantViolation("torsion multiple escaped the cocycle span")
                row = -coeff
                row[i] += p ** (a - val)
                relations.append(row % q)
        for x in recon.gauge_fix(np.vstack([recon.coboundaries(G.word_counts()),
                                            recon.carries(q)]), q)[1]:
            coeff = coeffs_in_basis(basis, piv, x, p, a)
            if coeff is None:
                raise InvariantViolation("coboundary escaped the cocycle space")
            relations.append(coeff)
        _, vals, V = diagonalize_mod_q(np.array(relations, dtype=np.int64).reshape(-1, r), p, a)
        positions, factors = primary_slots(vals, r, p, a)
        components.append(_PrimeComponent(p, a, basis, tuple(piv), V, positions, factors))
    return SchurMultiplier(G, n, components, recon)


# ---------------------------------------------------------------------------
# Cohomology classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohomClass:
    """A class in H^2(G, C^x), as canonical coordinates plus a representative."""

    group: FiniteGroup
    modulus: int
    coords: tuple[int, ...]
    representative: TwoCocycle
    multiplier: SchurMultiplier

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    # project is a homomorphism onto the canonical coordinates, so class
    # arithmetic is coordinate arithmetic mod the invariant factors

    def mul(self, other: "CohomClass") -> "CohomClass":
        if not same_group(self.group, other.group):
            raise GroupMismatch("classes on different groups")
        return self.multiplier._class([a + b for a, b in zip(self.coords, other.coords)],
                                      self.representative.mul(other.representative))

    def inverse(self) -> "CohomClass":
        return self.multiplier._class([-c for c in self.coords],
                                      self.representative.inverse_cocycle())

    def power(self, k: int) -> "CohomClass":
        return self.multiplier._class([k * c for c in self.coords],
                                      self.representative.power(k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomClass):
            return NotImplemented
        return same_group(self.group, other.group) and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.group), self.coords))

    def key(self) -> tuple:
        return self.coords


def class_arith(op: str, *args) -> CohomClass:
    """Group operations on cohomology classes: mul, inv, pow."""
    if op == "mul":
        a, b = args
        return a.mul(b)
    if op == "inv":
        (a,) = args
        return a.inverse()
    if op == "pow":
        a, k = args
        return a.power(int(k))
    raise ValueError(f"unknown class operation {op!r}")


def class_of(alpha: TwoCocycle, M: SchurMultiplier) -> CohomClass:
    return M.class_of(alpha)
