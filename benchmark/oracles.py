"""Expected values computed apart from motivelab.

Multipliers come from the literature (Karpilovsky, *The Schur Multiplier*,
1987) applied to a structural description of each group. Everything else is
brute force over the Cayley table with numpy, or floating-point evaluation of
the exact character values. Nothing here calls into motivelab.
"""

from __future__ import annotations

import cmath
from math import gcd

import numpy as np

# A group description is a tuple:
#   ("cyclic", n), ("dihedral", order), ("symmetric", n), ("alternating", n),
#   ("elem", p, k), ("quaternion",), ("product", a, b)


def abelianization_orders(desc) -> list[int]:
    """Orders of cyclic factors of G/[G,G] (not necessarily invariant)."""
    kind = desc[0]
    if kind == "cyclic":
        return [desc[1]]
    if kind == "dihedral":
        return [2, 2] if (desc[1] // 2) % 2 == 0 else [2]
    if kind == "symmetric":
        return [2] if desc[1] >= 2 else []
    if kind == "alternating":
        return {3: [3], 4: [3], 5: []}[desc[1]]
    if kind == "elem":
        return [desc[1]] * desc[2]
    if kind == "quaternion":
        return [2, 2]
    if kind == "product":
        return abelianization_orders(desc[1]) + abelianization_orders(desc[2])
    raise ValueError(f"no abelianization rule for {desc!r}")


def multiplier_orders(desc) -> list[int]:
    """Orders of cyclic factors of M(G) = H^2(G, C^x)."""
    kind = desc[0]
    if kind == "cyclic" or kind == "quaternion":
        return []
    if kind == "dihedral":                       # D_2n: C2 exactly when n is even
        return [2] if (desc[1] // 2) % 2 == 0 else []
    if kind == "symmetric":                      # S_n: C2 for n >= 4
        return [2] if desc[1] >= 4 else []
    if kind == "alternating":                    # A4, A5: C2
        return {3: [], 4: [2], 5: [2]}[desc[1]]
    if kind == "elem":                           # prod over i<j of C_gcd = C_p
        p, k = desc[1], desc[2]
        return [p] * (k * (k - 1) // 2)
    if kind == "product":                        # Schur: M(A) x M(B) x (A^ab (x) B^ab)
        a, b = desc[1], desc[2]
        tensor = [gcd(x, y) for x in abelianization_orders(a)
                  for y in abelianization_orders(b)]
        return multiplier_orders(a) + multiplier_orders(b) + tensor
    raise ValueError(f"no multiplier rule for {desc!r}")


def invariant_factors(orders) -> tuple[int, ...]:
    """Ascending invariant factors d1 | d2 | ... of a product of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                by_prime.setdefault(p, []).append(p ** e)
            p += 1
    columns = [sorted(powers, reverse=True) for powers in by_prime.values()]
    depth = max((len(c) for c in columns), default=0)
    factors = []
    for j in range(depth):
        d = 1
        for powers in columns:
            if j < len(powers):
                d *= powers[j]
        factors.append(d)
    return tuple(reversed(factors))


def group_order(desc) -> int:
    kind = desc[0]
    if kind in ("cyclic", "dihedral"):
        return desc[1]
    if kind == "symmetric":
        out = 1
        for i in range(2, desc[1] + 1):
            out *= i
        return out
    if kind == "alternating":
        return group_order(("symmetric", desc[1])) // 2
    if kind == "elem":
        return desc[1] ** desc[2]
    if kind == "quaternion":
        return 8
    return group_order(desc[1]) * group_order(desc[2])


# ---------------------------------------------------------------------------
# Brute force over a Cayley table
# ---------------------------------------------------------------------------


class Table:
    """A Cayley table with the brute-force facts the checks need."""

    def __init__(self, cayley):
        T = np.asarray(cayley, dtype=np.int64)
        n = T.shape[0]
        self.T = T
        self.n = n
        inv = np.empty(n, dtype=np.int64)
        rows, cols = np.nonzero(T == 0)
        inv[rows] = cols
        self.inv = inv
        # conj[h, g] = h g h^-1
        self.conj = T[T, inv[:, None]]
        self.commute = T == T.T

    def classes(self, members=None) -> list[tuple[int, ...]]:
        """Conjugacy classes of the subgroup on ``members`` (default: all)."""
        H = np.arange(self.n) if members is None else np.asarray(members)
        seen: set[int] = set()
        out = []
        for g in H.tolist():
            if g in seen:
                continue
            orbit = tuple(sorted(set(self.conj[H, g].tolist())))
            seen.update(orbit)
            out.append(orbit)
        return out

    def centralizer_order(self, g: int) -> int:
        return int(self.commute[g].sum())

    def regular_class_count(self, E, modulus: int, members=None) -> int:
        """Classes (of the subgroup on ``members``) whose elements g satisfy
        E[g, h] == E[h, g] mod ``modulus`` for every h in the centralizer."""
        E = np.asarray(E, dtype=np.int64) % modulus
        H = np.arange(self.n) if members is None else np.asarray(members)
        count = 0
        for cls in self.classes(members):
            g = cls[0]
            cent = H[self.commute[g, H]]
            if np.array_equal(E[g, cent], E[cent, g]):
                count += 1
        return count

    def induced_pair_rank(self, H1, H2) -> int:
        """Sum over G-orbits on G/H1 x G/H2 of the class number of the point
        stabilizer, counted by Burnside's lemma over commuting pairs (g, h):
        (1/|G|) sum fix1(g, h) * fix2(g, h)."""
        T, inv, n = self.T, self.inv, self.n
        # xconj[x, g] = x^-1 g x
        xconj = T[T[inv[:, None], np.arange(n)[None, :]], np.arange(n)[:, None]]
        total = None
        for H in (H1, H2):
            inH = np.zeros(n, dtype=np.int64)
            inH[list(H)] = 1
            A = inH[xconj]                      # A[x, g] = [x^-1 g x in H]
            N = A.T @ A                         # N[g, h] = #x with both in H
            total = N if total is None else total * N
        num = int((total * self.commute).sum())
        den = len(H1) * len(H2) * n
        if num % den:
            raise ArithmeticError("orbit count is not an integer")
        return num // den


def gamma_table(Ea, ma: int, Eb, mb: int) -> tuple[np.ndarray, int]:
    """Exponent table of alpha * beta^-1 over the common root-of-unity order."""
    m = ma * mb // gcd(ma, mb)
    Ea = np.asarray(Ea, dtype=np.int64) * (m // ma)
    Eb = np.asarray(Eb, dtype=np.int64) * (m // mb)
    return (Ea - Eb) % m, m


# ---------------------------------------------------------------------------
# Floating-point evaluation of exact character values
# ---------------------------------------------------------------------------


def cyclotomic_value(conductor: int, coeffs) -> complex:
    """sum_i c_i zeta^i with zeta = exp(2 pi i / conductor)."""
    z = cmath.exp(2j * cmath.pi / conductor)
    return sum(float(c) * z ** i for i, c in enumerate(coeffs))


def table_values(table) -> np.ndarray:
    """Complex matrix [irrep, class] from a CharacterTable's coefficient
    vectors."""
    return np.array([[cyclotomic_value(v.conductor, v.coeffs) for v in row]
                     for row in table.irreducibles], dtype=complex)


# ---------------------------------------------------------------------------
# Catalog collection lengths
# ---------------------------------------------------------------------------


def collection_length(name: str, params: tuple[int, ...]) -> int:
    """Length of the full exceptional collection of a catalog entry."""
    if name == "projective_space":
        return params[0] + 1
    if name == "quadric_odd":
        return params[0] + 1
    if name == "quadric_even":
        return params[0] + 2
    if name == "grassmannian":                   # binomial(d, n) Schubert cells
        n, d = params
        out = 1
        for i in range(n):
            out = out * (d - i) // (i + 1)
        return out
    if name == "del_pezzo_bl2":                  # P^2 blown up in two points
        return 5
    if name == "disjoint_points":
        return params[0]
    if name == "point":
        return 1
    raise ValueError(f"no length rule for {name!r}")


def parse_address(address: str) -> tuple[str, tuple[int, ...]]:
    name, _, raw = address.partition(":")
    return name, tuple(int(x) for x in raw.split(",")) if raw else ()
