"""Twisted group algebras over C.

The algebra attached to a cocycle alpha has basis {e_g} and product
e_g e_h = zeta^alpha(g,h) e_{gh}; associativity is literally the cocycle
identity.  The center is computed exactly by transporting coefficients
along conjugation; its dimension must agree with the count of regular
conjugacy classes (classes whose cocycle values commute with the whole
centralizer), which is also the number of simple blocks.  Block dimensions
are the alpha-projective character degrees, computed exactly: the structure
constants of the twisted class sums are reduced mod a prime and split over
F_p by the routine that builds Dixon's character tables, and each degree is
read from the projective form of Dixon's degree formula (Conlon, Twisted
group algebras and their representations, 1964).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .characters import SPLIT_PRIME_LIMIT, _find_prime, _primitive_root, split_class_algebra
from .cocycles import CohomClass, TwoCocycle
from .cyclotomic import Cyclotomic
from .errors import NotACocycle, SizeBound, check_invariant
from .groups import FiniteGroup

BLOCK_ORDER_GUARD = 256


@dataclass(frozen=True)
class TwistedGroupAlgebra:
    group: FiniteGroup
    cocycle: TwoCocycle

    @property
    def dimension(self) -> int:
        return self.group.order

    @cached_property
    def center_exponents(self) -> tuple[dict[int, int], ...]:
        """Center basis in exponent form, computed once per algebra by
        transport along conjugation: per regular class, x -> t(x), the
        twisted class sum having coefficient zeta^t(x) at e_x.  Conjugating
        by u_h carries u_r to zeta^gamma(h) u_(h r h^-1), gamma(h) =
        alpha(h, r) + alpha(h r, h^-1) - alpha(h, h^-1), for the class
        representative r; the class is regular exactly when gamma is a
        function of h r h^-1, and that function is t.  Each support starts
        at r, where t = 0.  Cross-checked against the regular-class test and
        against exact centrality."""
        G = self.group
        E = self.cocycle.table
        classes = G.conjugacy_classes()
        # every class at once: column c for the representative r of class c
        r, c = G.class_representatives(), np.arange(len(classes))
        h, hi = np.arange(G.order)[:, None], G.inverses[:, None]
        hr = G.cayley[h, r]
        y = G.cayley[hr, hi]                                          # [h, c]
        gamma = (E[h, r] + E[hr, hi] - E[h, hi]) % self.cocycle.modulus
        ty = np.zeros((G.order, len(classes)), dtype=np.int64)
        ty[y, c] = gamma
        consistent = (ty[y, c] == gamma).all(axis=0)
        check_invariant(consistent.tolist() == list(alpha_regular(G, self.cocycle).flags),
                        "transport consistency must match the regular-class test")
        supports = [dict(zip(cls.members, ty[list(cls.members), ci].tolist()))
                    for ci, cls in enumerate(classes) if consistent[ci]]
        _check_central(G, self.cocycle, supports)
        return tuple(supports)


def build_twisted(G: FiniteGroup, alpha: TwoCocycle) -> TwistedGroupAlgebra:
    if alpha.group is not G and alpha.group.order != G.order:
        raise NotACocycle("cocycle attached to a different group")
    return TwistedGroupAlgebra(G, alpha)


@dataclass(frozen=True)
class RegularityReport:
    flags: tuple[bool, ...]  # per conjugacy class, in canonical class order
    count: int


def alpha_regular(G: FiniteGroup, alpha: TwoCocycle) -> RegularityReport:
    """Classes whose elements commute with their centralizer under alpha:
    g is regular when alpha(g, h) == alpha(h, g) for every h with gh == hg."""
    E = alpha.table
    regular = ((G.cayley != G.cayley.T) | (E == E.T)).all(axis=1)
    flags = regular[G.class_representatives()]
    check_invariant((flags[G.class_index()] == regular).all(),
                    "regularity must be constant on a conjugacy class")
    return RegularityReport(tuple(flags.tolist()), int(flags.sum()))


def center_basis(algebra: TwistedGroupAlgebra) -> list[list[Cyclotomic]]:
    """Exact basis of the center, one twisted class sum per regular class.
    Cyclotomic values are immutable, so the vectors share one zero and one
    value per root of unity."""
    n = algebra.cocycle.modulus
    zero = Cyclotomic.zero(n if n > 1 else 1)
    roots: dict[int, Cyclotomic] = {}
    out = []
    for support in algebra.center_exponents:
        vec = [zero] * algebra.group.order
        for x, t in support.items():
            if t not in roots:
                roots[t] = Cyclotomic.root_of_unity(n, t) if n > 1 else Cyclotomic.one()
            vec[x] = roots[t]
        out.append(vec)
    return out


def _check_central(G: FiniteGroup, alpha: TwoCocycle, supports: list[dict[int, int]]) -> None:
    """Exact centrality of every twisted class sum at once: with x1 = y tau^-1
    and x2 = tau^-1 y, x1 and x2 lie in the same support (or in none), and
    there t(x1) + alpha(x1, tau) == t(x2) + alpha(tau, x2) mod the modulus."""
    n = G.order
    E = alpha.as_array()
    label = np.full(n, -1)
    t = np.zeros(n, dtype=np.int64)
    for i, support in enumerate(supports):
        label[list(support)] = i
        t[list(support)] = list(support.values())
    inv = G.inverses
    tau = np.arange(n)[:, None]
    x1 = G.cayley[:, inv].T                          # [tau, y] -> y tau^-1
    x2 = G.cayley[inv]                               # [tau, y] -> tau^-1 y
    check_invariant(np.array_equal(label[x1], label[x2]),
                    "center candidate support is not conjugation-stable")
    diff = (t[x1] + E[x1, tau] - t[x2] - E[tau, x2]) % alpha.modulus
    check_invariant(not diff[label[x1] >= 0].any(), "center candidate fails exact centrality")


@dataclass(frozen=True)
class WedderburnProfile:
    dims: tuple[int, ...]


def wedderburn_dims(algebra: TwistedGroupAlgebra, seed: int = 0) -> WedderburnProfile:
    """Simple-block dimensions, exact: the alpha-projective character degrees.
    Summing the cocycle identity gives n alpha(g, h) = c(g) + c(h) - c(gh)
    (mod m) for n = |G|, c(g) = sum_h alpha(g, h); so e_g -> zeta_mn^c(g) u_g
    carries C^alpha G onto C^beta G, beta = (n alpha - dc) / m with values in
    mu_n whatever m is.  The structure constants of beta's twisted class sums
    lie in Z[zeta_n] and are split over F_p, p = 1 (mod n exp(G)) the least
    prime above 2 sqrt|G|.  The seed only sets the splitting order."""
    G = algebra.group
    n = G.order
    if n > BLOCK_ORDER_GUARD:
        raise SizeBound(f"block dimensions limited to order {BLOCK_ORDER_GUARD}")
    m = algebra.cocycle.modulus
    # every term below is a sum of at most four terms under m n in absolute
    # value: int64 is exact while m n < 2^61, Python integers beyond
    E = algebra.cocycle.table.astype(np.int64 if m * n < 1 << 61 else object)
    c = E.sum(axis=1)                                  # c(g) < m n
    p = _find_prime(n * G.exponent(), 2 * isqrt(n) + 1, SPLIT_PRIME_LIMIT)
    z = pow(_primitive_root(p), (p - 1) // n, p)
    zeta = np.array([pow(z, v, p) for v in range(n)], dtype=np.int64)  # zeta_n^v -> z^v
    # K_i at u_x is zeta_mn^(n t(x) + c(x) - c(r_i)), 1 at its representative r_i;
    # on the support of K_i, label(x) = i and s(x) = n t(x) - c(r_i)
    supports = algebra.center_exponents
    k = len(supports)
    reps = np.array([next(iter(support)) for support in supports], dtype=np.int64)
    label = np.full(n, -1, dtype=np.int64)
    t = np.zeros(n, dtype=E.dtype)
    for i, support in enumerate(supports):
        label[list(support)] = i
        t[list(support)] = list(support.values())
    s = n * t - c[reps[label]]
    # K_i K_j = sum_l a_ijl K_l, read off at u_r for the representative r of K_l:
    # the term at u_x u_y, y = x^-1 r, is zeta_mn^(s(x) + s(y) + n alpha(x, y) + c(r)),
    # an n-th root
    x = np.flatnonzero(label >= 0)
    y = G.cayley[G.inverses[x][:, None], reps]         # [x, l]
    i, l = np.nonzero(label[y] >= 0)
    x, y = x[i], y[i, l]
    v = s[x] + s[y] + n * E[x, y] + c[reps[l]]
    check_invariant(not (v % m).any(), "twisted class sums must rescale into mu_|G|")
    a = np.zeros((k, k, k), dtype=np.int64)
    np.add.at(a, (label[x], label[y], l), zeta[(v // m % n).astype(np.int64)])
    partner = label[G.inverses[reps]].tolist()
    dims = sorted(d for _, d in split_class_algebra(a, partner, n, p, random.Random(seed)))
    check_invariant(sum(d * d for d in dims) == n, "block dimensions must square-sum to |G|")
    return WedderburnProfile(tuple(dims))


def invariant_copies(cls: CohomClass) -> int:
    """Multiplicity of the base-field summand any additive invariant assigns
    to the twisted unit of this class: the regular class count."""
    return alpha_regular(cls.group, cls.representative).count
