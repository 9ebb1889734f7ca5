"""Normalized 2-cocycles on a finite group with root-of-unity values.

A cocycle alpha: G x G -> mu_n is stored as its exponent table mod n.  The
class group H^2(G, C^x) is computed as H^2(G, Z/n) with n = |G| (cocycles
modulo coboundaries), further quotiented by the carry classes coming from
the refinement exact sequence 0 -> Z/n -> Q/Z -> Q/Z -> 0: a character
chi: G -> Z/n with representative values a contributes the class
(sigma, rho) -> (a(sigma) + a(rho) - a(sigma rho)) div n.

The cocycle solution space is parametrized by restriction to generator rows:
a normalized cocycle is determined by its values e(s, -) for s in a
generating set, via e(s g', sigma) = e(g', sigma) + e(s, g' sigma) - e(s, g')
along a word tree, and the full cocycle identity is equivalent to the
identities with first argument a generator.  That reduction keeps the linear
systems at |S|*|G| unknowns instead of |G|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
    crt_pair,
    crt_zip,
    diagonalize_mod_q,
    eliminate_mod_q,
    in_span_mod,
    invert_mod_q,
    kernel_mod_q,
    prime_power_factors,
    require_modulus,
    solve_mod,
)

COCYCLE_SPACE_GUARD = 4096          # |G|^2 bound for full-table bases
SCHUR_DEFAULT_MAX_ORDER = 48
_RECONSTRUCTION_GUARD = 1 << 27     # entries in the reconstruction tensor
MODULUS_BOUND = 1 << 62             # int64 sums of two reduced exponents stay exact


@dataclass(frozen=True)
class TwoCocycle:
    """Normalized 2-cocycle with values in mu_modulus, stored as exponents.
    Construction checks the table exactly; identity-preserving operations
    build through _trusted."""

    group: FiniteGroup
    modulus: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        report = cocycle_validate(self.group, self.modulus, self.table)
        if not report.ok:
            raise NotACocycle(report.message)
        m = self.modulus
        object.__setattr__(self, "table", tuple(tuple(int(x) % m for x in row)
                                                for row in self.table))

    @classmethod
    def _trusted(cls, G: FiniteGroup, modulus: int, table) -> "TwoCocycle":
        """A cocycle from a table already reduced mod modulus and known to
        satisfy the identity: no check, no reduction."""
        alpha = object.__new__(cls)
        alpha.__dict__.update(group=G, modulus=modulus, table=table)
        return alpha

    @staticmethod
    def trivial(G: FiniteGroup, modulus: int) -> "TwoCocycle":
        require_modulus(modulus)
        row = (0,) * G.order
        return TwoCocycle._trusted(G, modulus, (row,) * G.order)

    @staticmethod
    def from_exponents(G: FiniteGroup, modulus: int, table) -> "TwoCocycle":
        return TwoCocycle(G, modulus, table)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    def promote(self, m: int) -> "TwoCocycle":
        """View the same mu_modulus-valued cocycle inside mu_m (modulus | m)."""
        if m == self.modulus:
            return self
        if m % self.modulus:
            raise ModulusMismatch("can only promote to a multiple of the modulus")
        f = m // self.modulus
        return TwoCocycle._trusted(self.group, m,
                                   tuple(tuple(x * f for x in row) for row in self.table))

    def mul(self, other: "TwoCocycle") -> "TwoCocycle":
        if not same_group(self.group, other.group):
            raise GroupMismatch("cocycles live on different groups")
        if self.modulus != other.modulus:
            raise ModulusMismatch("cocycle moduli differ")
        n = self.modulus
        return TwoCocycle._trusted(self.group, n, tuple(
            tuple((a + b) % n for a, b in zip(ra, rb))
            for ra, rb in zip(self.table, other.table)))

    def inverse_cocycle(self) -> "TwoCocycle":
        n = self.modulus
        return TwoCocycle._trusted(self.group, n,
                                   tuple(tuple(-x % n for x in row) for row in self.table))

    def power(self, k: int) -> "TwoCocycle":
        n = self.modulus
        return TwoCocycle._trusted(self.group, n,
                                   tuple(tuple(x * k % n for x in row) for row in self.table))

    def restrict(self, H: Subgroup) -> "TwoCocycle":
        """Restriction along a subgroup, on the subgroup's own numbering."""
        grp, members = H.as_group()
        tab = tuple(tuple(self.table[a][b] for b in members) for a in members)
        return TwoCocycle._trusted(grp, self.modulus, tab)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""
    triple: tuple[int, int, int] | None = None


def cocycle_validate(G: FiniteGroup, modulus: int, table) -> ValidationReport:
    """Check normalization and the cocycle identity mod modulus on every
    triple of a raw exponent table; BadModulus for a modulus outside
    [1, 2^62), NotACocycle for a table that is not |G| x |G| integers."""
    require_modulus(modulus)
    if modulus >= MODULUS_BOUND:
        raise BadModulus(f"cocycle modulus must be below 2^62, got {modulus}")
    n, m = G.order, modulus
    try:
        if len(table) != n or any(len(r) != n for r in table):
            raise NotACocycle("table dimensions must match the group order")
        E = np.array([[int(x) % m for x in row] for row in table], dtype=np.int64)
    except (TypeError, ValueError):
        raise NotACocycle("table must be a list of integer rows") from None
    if E[0].any() or E[:, 0].any():
        s = int(np.flatnonzero(E[0] | E[:, 0])[0])
        return ValidationReport(False, f"normalization fails at element {s}", (0, s, 0))
    t = G.cayley
    # e(rho,sigma) + e(tau,rho sigma) - e(tau,rho) - e(tau rho,sigma), batched over
    # tau, lies in (-2m, 2m): it is 0 mod m exactly when its absolute value is 0 or m
    for tau in range(n):
        d = E[tau, t]                                 # [rho, sigma]
        d += E
        d -= E[t[tau]]
        d -= E[tau, :, None]
        np.abs(d, out=d)
        bad = (d != 0) & (d != m)
        if bad.any():
            rho, sigma = (int(x) for x in np.argwhere(bad)[0])
            return ValidationReport(
                False, f"cocycle identity fails at ({tau}, {rho}, {sigma})",
                (tau, rho, sigma))
    return ValidationReport(True)


def central_pairing_cocycle(H: FiniteGroup) -> TwoCocycle:
    """The pairing cocycle on H x H^ for abelian H: alpha((a,b),(c,d)) = chi_b(c).

    Returned with modulus exp(H); the twisted algebra it defines is simple.
    """
    from .groups import product_group

    if not H.is_abelian():
        raise NotAbelian("central pairing needs an abelian base group")
    e = H.exponent()
    ab = abelianization(H)
    coords = ab.projection
    factors = ab.invariant_factors
    G = product_group(H, H)
    nH = H.order
    table = []
    for g1 in range(G.order):
        b1 = coords[g1 % nH]
        row = []
        for g2 in range(G.order):
            a2 = coords[g2 // nH]
            pairing = sum(x * y * (e // d) for x, y, d in zip(a2, b1, factors)) % e
            row.append(pairing)
        table.append(tuple(row))
    return TwoCocycle._trusted(G, e, tuple(table))


# ---------------------------------------------------------------------------
# Generator-row parametrization of the cocycle space
# ---------------------------------------------------------------------------


class _Reconstruction:
    """Word tree and linear maps expressing full tables from generator rows."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        gens = list(G.generating_set())
        n = G.order
        if not gens and n > 1:
            raise SizeBound("no generating set available")
        self.gens = gens
        self.dim = len(gens) * n
        if n * n * self.dim > _RECONSTRUCTION_GUARD:
            raise SizeBound("cocycle parametrization too large for this group")
        # BFS: parent[g] = (generator position, g') with g = gens[pos] * g'
        parent: list[tuple[int, int] | None] = [None] * n
        seen = [False] * n
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for gp in frontier:
                for pos, s in enumerate(gens):
                    g = G.mul(s, gp)
                    if not seen[g]:
                        seen[g] = True
                        parent[g] = (pos, gp)
                        nxt.append(g)
            frontier = nxt
        if not all(seen):
            raise InvariantViolation("generating set does not generate the group")
        self.parent = parent
        M = np.zeros((n, n, self.dim), dtype=np.int32)
        order = self._bfs_order()
        t = G.cayley
        sigma = np.arange(n)
        for g in order:
            if g == 0:
                continue
            pos, gp = parent[g]
            M[g] = M[gp]
            M[g][sigma, self._xidx(pos, t[gp])] += 1
            M[g][:, self._xidx(pos, gp)] -= 1
        self.M = M

    def _bfs_order(self) -> list[int]:
        """Elements ordered so every tree parent precedes its children."""
        n = self.group.order
        remaining = [g for g in range(n) if g != 0]
        emitted = {0}
        order = [0]
        while remaining:
            again = []
            for g in remaining:
                if self.parent[g][1] in emitted:
                    emitted.add(g)
                    order.append(g)
                else:
                    again.append(g)
            remaining = again
        return order

    def _xidx(self, pos, h):
        return pos * self.group.order + h

    def constraint_rows(self, q: int) -> np.ndarray:
        """All identities with generator first argument, plus normalization."""
        G = self.group
        n = G.order
        t = G.cayley
        sigma = np.arange(n)
        blocks = []
        for pos, s in enumerate(self.gens):
            for rho in range(n):
                blk = self.M[rho].astype(np.int64) - self.M[G.mul(s, rho)]
                blk[sigma, self._xidx(pos, t[rho])] += 1
                blk[:, self._xidx(pos, rho)] -= 1
                blocks.append(blk)
        for pos in range(len(self.gens)):
            row = np.zeros((1, self.dim), dtype=np.int64)
            row[0, self._xidx(pos, 0)] = 1
            blocks.append(row)
        if not blocks:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.vstack(blocks) % q

    def restrict_table(self, table: np.ndarray, q: int) -> np.ndarray:
        x = np.zeros(self.dim, dtype=np.int64)
        for pos, s in enumerate(self.gens):
            x[pos * self.group.order:(pos + 1) * self.group.order] = table[s] % q
        return x

    def expand(self, x: np.ndarray, q: int) -> np.ndarray:
        n = self.group.order
        out = np.zeros((n, n), dtype=np.int64)
        for g in range(n):
            out[g] = self.M[g].astype(np.int64) @ x % q
        return out

    def coboundary_xvecs(self, q: int) -> list[np.ndarray]:
        """Generator-row restrictions of the coboundaries d_h, h != 1."""
        G = self.group
        n = G.order
        out = []
        for h in range(1, n):
            x = np.zeros(self.dim, dtype=np.int64)
            for pos, s in enumerate(self.gens):
                base = pos * n
                for hp in range(n):
                    v = (1 if hp == h else 0) + (1 if s == h else 0) \
                        - (1 if G.mul(s, hp) == h else 0)
                    x[base + hp] = v % q
            out.append(x)
        return out

    def carry_xvecs(self, q: int) -> list[np.ndarray]:
        """Connecting-map classes of the characters G -> Z/q (carry cocycles)."""
        G = self.group
        n = G.order
        out = []
        for a in _characters_mod(G, q):
            x = np.zeros(self.dim, dtype=np.int64)
            for pos, s in enumerate(self.gens):
                base = pos * n
                for hp in range(n):
                    x[base + hp] = (a[s] + a[hp] - a[G.mul(s, hp)]) // q % q
            out.append(x)
        return out


def _characters_mod(G: FiniteGroup, q: int) -> list[list[int]]:
    """All homomorphisms G -> Z/q as value lists a with a[g] in {0..q-1}."""
    ab = abelianization(G)
    factors = ab.invariant_factors
    choices: list[list[int]] = []
    for d in factors:
        g = gcd(d, q)
        choices.append([(q // g) * t for t in range(g)])
    out = []
    import itertools as _it
    for combo in _it.product(*choices) if choices else [()]:
        vals = [sum(x * c for x, c in zip(ab.projection[g], combo)) % q
                for g in G.elements()]
        out.append(vals)
    return out


def _solution_basis(recon: _Reconstruction, p: int, a: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Reduced basis of the normalized cocycle space in generator coordinates."""
    q = p ** a
    C = recon.constraint_rows(q)
    H, _ = eliminate_mod_q(C, p, a)
    gens = kernel_mod_q(H if H.size else np.zeros((0, recon.dim), dtype=np.int64), p, a)
    if not gens:
        return np.zeros((0, recon.dim), dtype=np.int64), []
    return eliminate_mod_q(np.array(gens, dtype=np.int64), p, a)


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
    return in_span_mod(space, [x for row in alpha.table for x in row], alpha.modulus)


def random_cocycle(G: FiniteGroup, n: int, rng: np.random.Generator) -> TwoCocycle:
    """A random element of the normalized cocycle space (seeded)."""
    space = cocycle_space(G, n)
    size = G.order
    acc = np.zeros(size * size, dtype=np.int64)
    for row in space:
        acc = (acc + int(rng.integers(0, n)) * np.asarray(row, dtype=np.int64)) % n
    return TwoCocycle._trusted(G, n, tuple(map(tuple, acc.reshape(size, size).tolist())))


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
    """Decide equality of [alpha], [beta] in H^2(G, C^x); None if distinct."""
    G = alpha.group
    if not same_group(G, beta.group):
        raise GroupMismatch("cocycles live on different groups")
    if alpha.modulus != beta.modulus:
        raise ModulusMismatch("cocycle moduli differ")
    n = G.order
    big = _witness_modulus(alpha.modulus * G.exponent())
    ea = alpha.promote(big).as_array()
    eb = beta.promote(big).as_array()
    # one row per (rho, sigma): delta(rho sigma) - delta(rho) - delta(sigma)
    k = np.arange(n * n)
    rho, sigma = np.divmod(k, n)
    rows = np.zeros((n * n + 1, n), dtype=np.int64)
    np.add.at(rows, (k, G.cayley[rho, sigma]), 1)
    np.add.at(rows, (k, rho), -1)
    np.add.at(rows, (k, sigma), -1)
    rows[n * n, 0] = 1  # pin delta(1) = 0
    rhs = np.append((eb - ea).reshape(-1) % big, 0)
    try:
        sol = solve_mod(rows, rhs, big)
    except Unsolvable:
        return None
    return CoboundaryWitness(big, sol.particular)


def _witness_modulus(big: int) -> int:
    """big, or BadModulus when the promoted exponents would leave int64."""
    if big >= MODULUS_BOUND:
        raise BadModulus(f"coboundary witness modulus must be below 2^62, got {big}")
    return big


def verify_witness(alpha: TwoCocycle, beta: TwoCocycle, w: CoboundaryWitness) -> bool:
    G = alpha.group
    big = _witness_modulus(w.modulus)
    ea = alpha.promote(big).as_array()
    eb = beta.promote(big).as_array()
    d = w.values
    for rho in G.elements():
        for sigma in G.elements():
            lhs = (d[G.mul(rho, sigma)] + int(ea[rho, sigma])) % big
            rhs = (d[sigma] + d[rho] + int(eb[rho, sigma])) % big
            if lhs != rhs:
                return False
    return d[0] % big == 0


# ---------------------------------------------------------------------------
# Schur multiplier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PrimeComponent:
    p: int
    a: int
    basis: np.ndarray                      # reduced cocycle basis, generator coords
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
        merged: list[int] = []
        layout: list[list[tuple[int, int, int]]] = []  # per merged slot: (comp idx, pos idx, factor)
        per_comp = []
        for ci, comp in enumerate(components):
            # descending prime-power factors for largest-with-largest merging
            idx = sorted(range(len(comp.factors)), key=lambda i: -comp.factors[i])
            per_comp.append([(ci, i, comp.factors[i]) for i in idx])
        depth = max((len(x) for x in per_comp), default=0)
        for j in range(depth):
            d = 1
            slot = []
            for lst in per_comp:
                if j < len(lst):
                    d *= lst[j][2]
                    slot.append(lst[j])
            merged.append(d)
            layout.append(slot)
        self.invariant_factors = tuple(reversed(merged))
        self._layout = list(reversed(layout))
        self.section = tuple(self._section_cocycle(slot) for slot in self._layout)

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def _section_cocycle(self, slot) -> TwoCocycle:
        n = self.modulus
        G = self.group
        acc = np.zeros((G.order, G.order), dtype=np.int64)
        for ci, pos_idx, _ in slot:
            comp = self._components[ci]
            q = comp.q
            Vinv = invert_mod_q(comp.V, comp.p, comp.a)
            combo = Vinv[comp.positions[pos_idx]] % q
            x = combo @ comp.basis % q
            table = self._recon.expand(x.astype(np.int64), q)
            acc = (acc + crt_idempotent(n, q) * table) % n
        return TwoCocycle._trusted(G, n, tuple(map(tuple, acc.tolist())))

    def project(self, alpha: TwoCocycle) -> tuple[int, ...]:
        """Canonical coordinates of [alpha] in the invariant-factor basis."""
        G = self.group
        if not same_group(G, alpha.group):
            raise GroupMismatch("cocycle lives on a different group")
        if self.modulus % alpha.modulus:
            raise ModulusMismatch(
                f"modulus {alpha.modulus} does not divide {self.modulus}")
        alpha = alpha.promote(self.modulus)
        table = alpha.as_array()
        comp_coords: list[list[int]] = []
        for comp in self._components:
            q = comp.q
            x = self._recon.restrict_table(table, q)
            c = coeffs_in_basis(comp.basis, comp.piv, x, comp.p, comp.a)
            if c is None:
                raise NotACocycle("table is not in the cocycle space")
            y = c @ comp.V % q
            comp_coords.append([int(y[pos]) % f
                                for pos, f in zip(comp.positions, comp.factors)])
        coords = []
        for slot in self._layout:
            r, m = 0, 1
            for ci, pos_idx, f in slot:
                r = crt_pair(r, m, comp_coords[ci][pos_idx], f)
                m *= f
            coords.append(r)
        return tuple(coords)

    def class_of(self, alpha: TwoCocycle) -> "CohomClass":
        coords = self.project(alpha)
        return CohomClass(self.group, self.modulus, coords,
                          alpha.promote(self.modulus), self)

    def class_from_coords(self, coords: Sequence[int]) -> "CohomClass":
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate arity does not match invariant factors")
        rep = TwoCocycle.trivial(self.group, self.modulus)
        for c, gen in zip(coords, self.section):
            rep = rep.mul(gen.power(int(c)))
        cls = CohomClass(self.group, self.modulus,
                         tuple(int(c) % d for c, d in zip(coords, self.invariant_factors)),
                         rep, self)
        return cls

    def trivial_class(self) -> "CohomClass":
        return self.class_from_coords((0,) * len(self.invariant_factors))

    def describe(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"C{d}" for d in self.invariant_factors)


def schur_multiplier(G: FiniteGroup, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> SchurMultiplier:
    """H^2(G, C^x) as invariant factors, via mu_|G| cocycles modulo
    coboundaries and connecting-map classes."""
    if G.order > max_group_order:
        raise SizeBound(
            f"group order {G.order} exceeds the multiplier guard {max_group_order}")
    n = G.order
    if n == 1:
        return SchurMultiplier(G, 1, [], None)
    recon = _Reconstruction(G)
    orders = G.element_orders()
    components = []
    for p, a in prime_power_factors(n):
        q = p ** a
        if (orders % q == 0).any():
            # a cyclic Sylow p-subgroup P has M(P) = 0, and restriction embeds
            # the p-part of M(G) into M(P): nothing to solve for
            continue
        basis, piv = _solution_basis(recon, p, a)
        r = len(piv)
        if r == 0:
            components.append(_PrimeComponent(p, a, basis, tuple(piv),
                                              np.zeros((0, 0), dtype=np.int64), (), ()))
            continue
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
        for x in recon.coboundary_xvecs(q) + recon.carry_xvecs(q):
            coeff = coeffs_in_basis(basis, piv, x, p, a)
            if coeff is None:
                raise InvariantViolation("coboundary escaped the cocycle space")
            relations.append(coeff % q)
        R = np.array(relations, dtype=np.int64) if relations else np.zeros((0, r), dtype=np.int64)
        _, vals, V = diagonalize_mod_q(R, p, a)
        positions = []
        factors = []
        for t in range(r):
            if t < len(vals):
                if vals[t] >= 1:
                    positions.append(t)
                    factors.append(p ** vals[t])
            else:
                positions.append(t)
                factors.append(q)
        components.append(_PrimeComponent(p, a, basis, tuple(piv), V,
                                          tuple(positions), tuple(factors)))
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

    def mul(self, other: "CohomClass") -> "CohomClass":
        if not same_group(self.group, other.group):
            raise GroupMismatch("classes on different groups")
        rep = self.representative.mul(other.representative)
        return self.multiplier.class_of(rep)

    def inverse(self) -> "CohomClass":
        return self.multiplier.class_of(self.representative.inverse_cocycle())

    def power(self, k: int) -> "CohomClass":
        return self.multiplier.class_of(self.representative.power(k))

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
