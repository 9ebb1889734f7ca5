"""Finite groups as explicit Cayley tables.

Elements are integers 0..order-1 with 0 the identity.  Constructors fix a
canonical numbering so that downstream golden tests are byte-stable.  Tables
are validated eagerly: associativity is checked on all triples up to order
64 and on 10^4 seeded random triples above that.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadGroupSpec,
    NoIdentity,
    NonAssociative,
    NotASubgroup,
    NotClosed,
    OrderBound,
    SizeBound,
    WrongShape,
    check_invariant,
    json_integer,
    json_integers,
)
from .intlinalg import (
    diagonalize_mod_q,
    eliminate_mod_q,
    merge_primary,
    primary_slots,
    prime_power_factors,
)

DEFAULT_MAX_ORDER = 2048
EXHAUSTIVE_ASSOC_BOUND = 64
ASSOC_SAMPLES = 10_000
_SHORTEN_TRIALS = 32                # random k-tuples per length in generating_set


def max_order() -> int:
    return int(os.environ.get("MOTIVELAB_MAX_ORDER", DEFAULT_MAX_ORDER))


class FiniteGroup:
    """A finite group materialized as an order x order Cayley table."""

    def __init__(self, cayley: np.ndarray, label: str = "", gens: Sequence[int] = (),
                 _validated: bool = False):
        table = np.asarray(cayley, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n):
            raise NotClosed("Cayley table must be square")
        if n == 0:
            raise NoIdentity("empty table")
        if n > max_order():
            raise OrderBound(f"order {n} exceeds bound {max_order()}")
        if table.min() < 0 or table.max() >= n:
            raise NotClosed("table entries out of element range")
        self.order = n
        self.cayley = table
        self.cayley.setflags(write=False)
        self.label = label or f"G{n}"
        self.identity = 0
        if not _validated:
            self._validate()
        self.inverses = self._compute_inverses()
        self._gens = tuple(gens) if gens else None
        self._short_gens: tuple[int, ...] | None = None
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: np.ndarray | None = None
        self._class_reps: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._word_tree = None
        self._abelianization = None

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        t = self.cayley
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise NoIdentity("element 0 is not a two-sided identity")
        if n <= EXHAUSTIVE_ASSOC_BOUND:
            left = t[t, :]    # (a*b)*c indexed [a, b, c]
            right = t[:, t]   # a*(b*c) indexed [a, b, c]
            bad = np.argwhere(left != right)
            if bad.size:
                a, b, c = (int(x) for x in bad[0])
                raise NonAssociative(f"associativity fails at triple ({a}, {b}, {c})")
        else:
            rng = np.random.default_rng(0)
            trip = rng.integers(0, n, size=(ASSOC_SAMPLES, 3))
            a, b, c = trip[:, 0], trip[:, 1], trip[:, 2]
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
                raise NonAssociative("associativity fails on sampled triples")

    def _compute_inverses(self) -> np.ndarray:
        n = self.order
        inv = np.full(n, -1, dtype=np.int32)
        rows, cols = np.nonzero(self.cayley == 0)
        inv[rows] = cols
        if (inv < 0).any():
            raise NotClosed("some element has no right inverse")
        if not np.array_equal(self.cayley[inv, np.arange(n)], np.zeros(n, dtype=np.int32)):
            raise NotClosed("left and right inverses disagree")
        inv.setflags(write=False)
        return inv

    # -- basic operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return int(self.cayley[self.cayley[h, g], self.inverses[h]])

    def elements(self) -> range:
        return range(self.order)

    def element_orders(self) -> np.ndarray:
        """Read-only array of the order of every element, computed once."""
        if self._orders is None:
            self._orders = self._compute_orders()
            self._orders.setflags(write=False)
        return self._orders

    def element_order(self, g: int) -> int:
        return int(self.element_orders()[g])

    def _compute_orders(self) -> np.ndarray:
        """One Cayley walk x <- x g for every g at once; g leaves the live
        set at the step k where g^k = 1, within exp(G) steps."""
        orders = np.ones(self.order, dtype=np.int64)
        live = np.arange(1, self.order)
        x, k = live, 1
        while live.size:
            k += 1
            x = self.cayley[x, live]
            done = x == 0
            orders[live[done]] = k
            live, x = live[~done], x[~done]
        return orders

    def exponent(self) -> int:
        return lcm(*(int(o) for o in self.element_orders())) if self.order > 1 else 1

    def is_abelian(self) -> bool:
        return np.array_equal(self.cayley, self.cayley.T)

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        out, base = 0, g
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def commutator(self, g: int, h: int) -> int:
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    # -- generators ----------------------------------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """A short generating set, chosen once: the constructor's set (or a
        greedy one) unless a seeded search finds a strictly shorter one.

        The search takes one element of order |G| when there is one, and
        otherwise tries k = 2, ..., |S| - 1 with _SHORTEN_TRIALS random
        k-tuples each, drawn with weights the element orders, keeping the
        first that generates, without its repeated elements."""
        if self._short_gens is None:
            gens = self._seed_gens()
            orders = self.element_orders()
            if len(gens) > 1 and orders.max() == self.order:
                gens = (int(np.argmax(orders)),)
            elif len(gens) > 2:
                # the standard library's generator: a first numpy Generator
                # costs about 6 MB of resident memory and 20 ms
                rng = random.Random(0)
                cum = list(itertools.accumulate(orders[1:].tolist()))
                for k in range(2, len(gens)):
                    trials = np.array([rng.choices(range(1, self.order), cum_weights=cum, k=k)
                                       for _ in range(_SHORTEN_TRIALS)])
                    hits = np.flatnonzero(self._closures(trials).all(axis=1))
                    if hits.size:
                        gens = tuple(sorted(set(trials[hits[0]].tolist()),
                                            key=lambda g: (-orders[g], g)))
                        break
            self._short_gens = gens
        return self._short_gens

    def _seed_gens(self) -> tuple[int, ...]:
        """The constructor's generating set, or a greedy one by element order;
        products combine these, never a searched set."""
        if self._gens is None:
            by_order = sorted(range(1, self.order),
                              key=lambda g: (-self.element_order(g), g))
            gens: list[int] = []
            closure = self._closures([gens])[0]
            for g in by_order:
                if not closure[g]:
                    gens.append(g)
                    closure = self._closures([gens])[0]
                    if closure.all():
                        break
            self._gens = tuple(gens)
        return self._gens

    def _closures(self, tuples) -> np.ndarray:
        """reached[t, g]: g lies in the subgroup generated by row t of
        tuples, the elements reached by words of growing length; all rows in
        one boolean array."""
        # reached[t, x] -> reached[t, s x]: row t moves by the left multiplications
        # x -> s^-1 x of its generators s, gathered as [t, s, x]
        back = self.cayley[self.inverses[np.asarray(tuples, dtype=np.int64)]]
        reached = np.zeros((len(back), self.order), dtype=bool)
        reached[:, 0] = True
        while True:
            grown = reached | np.take_along_axis(reached[:, None, :], back, axis=2).any(axis=1)
            if np.array_equal(grown, reached):
                return reached
            reached = grown

    def word_tree(self) -> tuple[tuple[tuple[int, int] | None, ...], tuple[int, ...]]:
        """The breadth-first word tree on generating_set(), computed once:
        parent[g] = (generator position, g') with g = gens[pos] * g' (None
        at the identity), and tree_order lists every element after its
        parent.  A level visits its elements g' in order and, for each, the
        generators in order."""
        if self._word_tree is None:
            n = self.order
            gens = np.asarray(self.generating_set(), dtype=np.int64)
            parent: list[tuple[int, int] | None] = [None] * n
            order = [0]
            seen = np.zeros(n, dtype=bool)
            seen[0] = True
            frontier = np.zeros(1, dtype=np.int64)
            while frontier.size:
                # s g' for g' in frontier and s in gens, g'-major: the first
                # occurrence of each unseen element is its tree edge
                found = self.cayley[np.ix_(gens, frontier)].T.reshape(-1)
                new, first = np.unique(found, return_index=True)
                first = np.sort(first[~seen[new]])
                new = found[first]
                seen[new] = True
                at, pos = np.divmod(first, len(gens))
                for g, s, gp in zip(new.tolist(), pos.tolist(), frontier[at].tolist()):
                    parent[g] = (s, gp)
                order += new.tolist()
                frontier = new
            check_invariant(bool(seen.all()), "generating set does not generate the group")
            self._word_tree = (tuple(parent), tuple(order))
        return self._word_tree

    def word_counts(self) -> np.ndarray:
        """W[g, pos]: how often gens[pos] occurs in the tree word of g."""
        parent, tree_order = self.word_tree()
        W = np.zeros((self.order, len(self.generating_set())), dtype=np.int64)
        for g in tree_order[1:]:
            pos, gp = parent[g]
            W[g] = W[gp]
            W[g, pos] += 1
        return W

    # -- conjugacy ----------------------------------------------------------

    def conjugacy_classes(self) -> list["ConjugacyClass"]:
        if self._classes is None:
            self._compute_classes()
        return list(self._classes)

    def class_index(self) -> np.ndarray:
        """Read-only array: the canonical class index of each element."""
        if self._class_of is None:
            self._compute_classes()
        return self._class_of

    def class_representatives(self) -> np.ndarray:
        """Read-only int64 array: the representative of each class, in
        canonical class order."""
        if self._class_of is None:
            self._compute_classes()
        return self._class_reps

    def class_index_of(self, g: int) -> int:
        return int(self.class_index()[g])

    def _compute_classes(self) -> None:
        n = self.order
        all_h = np.arange(n)
        assigned = np.full(n, -1, dtype=np.int64)
        raw: list[tuple[int, ...]] = []
        for g in range(n):
            if assigned[g] >= 0:
                continue
            orbit = np.unique(self.cayley[self.cayley[all_h, g], self.inverses[all_h]])
            idx = len(raw)
            assigned[orbit] = idx
            raw.append(tuple(int(x) for x in orbit))
        order_keys = sorted(range(len(raw)), key=lambda i: (len(raw[i]), raw[i][0]))
        classes = []
        relabel = np.zeros(len(raw), dtype=np.int64)
        for new_idx, old_idx in enumerate(order_keys):
            members = raw[old_idx]
            classes.append(ConjugacyClass(representative=members[0], members=members))
            relabel[old_idx] = new_idx
        self._classes = classes
        self._class_reps = np.array([c.representative for c in classes], dtype=np.int64)
        self._class_reps.setflags(write=False)
        self._class_of = relabel[assigned]
        self._class_of.setflags(write=False)

    def centralizer(self, g: int) -> "Subgroup":
        if not 0 <= g < self.order:
            raise ValueError("element out of range")
        mask = self.cayley[:, g] == self.cayley[g, :]
        members = tuple(int(x) for x in np.nonzero(mask)[0])
        sub = Subgroup(self, members)
        cls = self.conjugacy_classes()[self.class_index_of(g)]
        check_invariant(len(cls.members) * len(members) == self.order,
                        "orbit-stabilizer consistency violated")
        return sub

    # -- misc -----------------------------------------------------------------

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, tuple(sorted(set(int(m) for m in members))))

    def generated_subgroup(self, gens: Iterable[int]) -> "Subgroup":
        members = np.flatnonzero(self._closures([[int(g) for g in gens]])[0])
        return Subgroup(self, tuple(members.tolist()))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a is b or (a.order == b.order and np.array_equal(a.cayley, b.cayley))


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class Subgroup:
    """A validated subgroup given by its sorted member set."""

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        members = tuple(sorted(set(int(m) for m in members)))
        outside = [m for m in members if not 0 <= m < parent.order]
        if outside:
            raise NotASubgroup(
                f"element {outside[0]} is outside the group of order {parent.order}")
        if 0 not in members:
            raise NotASubgroup("missing identity")
        m = np.array(members)
        inside = np.zeros(parent.order, dtype=bool)
        inside[m] = True
        # row a: [a^-1 in H, a*b in H for b in H]; the first failure in row-major order
        ok = np.column_stack([inside[parent.inverses[m]], inside[parent.cayley[m[:, None], m]]])
        if not ok.all():
            i, j = (int(x) for x in np.argwhere(~ok)[0])
            if j == 0:
                raise NotASubgroup(f"missing inverse of {members[i]}")
            raise NotASubgroup(f"not closed: {members[i]}*{members[j - 1]}")
        self.parent = parent
        self.members = members
        self._as_group: tuple[FiniteGroup, list[int]] | None = None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Re-number members 0..|H|-1; returns (group, member list)."""
        if self._as_group is None:
            m = np.array(self.members)
            n = len(m)
            position = np.zeros(self.parent.order, dtype=np.int32)
            position[m] = np.arange(n)
            table = position[self.parent.cayley[m[:, None], m]]
            grp = FiniteGroup(table, label=f"{self.parent.label}|sub{n}")
            self._as_group = (grp, list(self.members))
        return self._as_group

    def canonical_conjugate(self) -> tuple[int, ...]:
        """Lexicographically least member tuple among all conjugates."""
        p = self.parent
        # conjugates[g, i] = g m_i g^-1, each row sorted
        conjugates = np.sort(p.cayley[p.cayley[:, self.members], p.inverses[:, None]], axis=1)
        return tuple(conjugates[np.lexsort(conjugates.T[::-1])[0]].tolist())

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


@dataclass(frozen=True)
class CosetSpace:
    subgroup: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    action: tuple[tuple[int, ...], ...]  # action[g] permutes coset indices

    @property
    def size(self) -> int:
        return len(self.cosets)


def coset_space(G: FiniteGroup, H: Subgroup) -> CosetSpace:
    """Left cosets gH with the left-translation action of G."""
    if H.parent is not G and not same_group(H.parent, G):
        raise NotASubgroup("subgroup belongs to a different group")
    # cosets in the order of their least elements, which form a transversal
    members = np.array(H.members)
    reps, coset_of = np.unique(G.cayley[:, members].min(axis=1), return_inverse=True)
    cosets = np.sort(G.cayley[reps[:, None], members], axis=1)
    space = CosetSpace(H, tuple(map(tuple, cosets.tolist())),
                       tuple(map(tuple, coset_of[G.cayley[:, reps]].tolist())))
    _check_coset_space(G, H, space)
    return space


def _check_coset_space(G: FiniteGroup, H: Subgroup, space: CosetSpace) -> None:
    check_invariant(space.size * H.order == G.order, "coset count times |H| must be |G|")
    stab0 = tuple(sorted(g for g in G.elements() if space.action[g][0] == 0))
    check_invariant(stab0 == H.members, "stabilizer of the subgroup coset must be H")
    if G.order <= EXHAUSTIVE_ASSOC_BOUND:
        for a in G.elements():
            for b in G.elements():
                ab = G.mul(a, b)
                composed = tuple(space.action[a][space.action[b][i]]
                                 for i in range(space.size))
                check_invariant(composed == space.action[ab],
                                "coset action is not a homomorphism")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise OrderBound("order must be positive")
    if n > max_order():
        raise OrderBound(f"order {n} exceeds bound {max_order()}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, label=f"C{n}", gens=(1,) if n > 1 else ())


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on the transposition (0 1) and the n-cycle, numbered as
    group_from_permutations numbers them."""
    if not 1 <= n <= 6:
        raise OrderBound("symmetric groups supported for 1 <= n <= 6")
    gens = [[1, 0] + list(range(2, n))] if n >= 2 else []
    if n >= 3:
        gens.append(list(range(1, n)) + [0])
    G = group_from_permutations(n, gens)
    G.label = f"S{n}"
    return G


def dihedral_group(order: int) -> FiniteGroup:
    if order < 2 or order % 2:
        raise OrderBound("dihedral constructor needs an even order >= 2")
    if order > max_order():
        raise OrderBound(f"order {order} exceeds bound {max_order()}")
    n = order // 2
    table = np.zeros((order, order), dtype=np.int32)
    for e in (0, 1):
        for i in range(n):
            for f in (0, 1):
                for j in range(n):
                    rot = (i + (j if e == 0 else -j)) % n
                    table[e * n + i, f * n + j] = (e ^ f) * n + rot
    gens = [1, n] if n > 1 else [n]
    return FiniteGroup(table, label=f"D{order}", gens=gens)


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise OrderBound("p must be prime")
    if k < 1:
        raise OrderBound("k must be positive")
    order = p ** k
    if order > max_order():
        raise OrderBound(f"order {order} exceeds bound {max_order()}")
    idx = np.arange(order)
    digits = np.stack([(idx // p ** j) % p for j in range(k)], axis=1)
    table = np.zeros((order, order), dtype=np.int32)
    weights = np.array([p ** j for j in range(k)])
    for a in range(order):
        table[a] = ((digits[a][None, :] + digits) % p) @ weights
    gens = [p ** j for j in range(k)]
    return FiniteGroup(table, label=f"E{order}", gens=gens)


def product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    order = a.order * b.order
    if order > max_order():
        raise OrderBound(f"order {order} exceeds bound {max_order()}")
    nb = b.order
    idx = np.arange(order)
    ai, bi = idx // nb, idx % nb
    table = a.cayley[np.ix_(ai, ai)].astype(np.int64) * nb + b.cayley[np.ix_(bi, bi)]
    gens = [g * nb for g in a._seed_gens()] + list(b._seed_gens())
    return FiniteGroup(table.astype(np.int32), label=f"{a.label}x{b.label}", gens=gens)


def group_from_cayley(table: Sequence[Sequence[int]]) -> FiniteGroup:
    arr = np.asarray(table, dtype=np.int64)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise NotClosed("Cayley table must be square")
    if n and (arr.min() < 0 or arr.max() >= n):
        raise NotClosed("table entries out of element range")
    # locate the identity and renumber so it sits at index 0
    ident = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(arr[e], rng) and np.array_equal(arr[:, e], rng):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity element")
    if ident != 0:
        perm = [ident] + [x for x in range(n) if x != ident]
        pos = np.argsort(perm)
        arr = pos[arr[np.ix_(perm, perm)]]
    return FiniteGroup(arr.astype(np.int32), label=f"G{n}")


def group_from_permutations(degree: int, gens: Sequence[Sequence[int]]) -> FiniteGroup:
    """The group generated by permutations of 0..degree-1, its elements
    numbered in lexicographic order; p q is x -> p[q[x]]."""
    if degree > 16:
        raise OrderBound("permutation degree limited to 16")
    rows = []
    for g in gens:
        t = [int(x) for x in g]
        if sorted(t) != list(range(degree)):
            raise NotClosed(f"not a permutation of 0..{degree - 1}: {g}")
        rows.append(t)
    gen_arr = np.array(rows, dtype=np.int64).reshape(len(rows), max(degree, 0))
    # a permutation is fixed by its first degree - 1 images; as base-degree
    # digits they give int64 codes (below 16^15 = 2^60) that increase with the
    # lexicographic order
    weights = degree ** np.arange(degree - 1, dtype=np.int64)[::-1]

    def code(p: np.ndarray) -> np.ndarray:
        return p[..., :len(weights)] @ weights

    # breadth-first closure under x -> g x; each level keeps, per new element
    # g x, the generator's position (via) and the row of x in perms (parent)
    perms = frontier = np.arange(degree, dtype=np.int64)[None, :]
    codes = code(perms)
    levels = []
    while len(frontier):
        found = gen_arr[:, frontier]                         # [g, x] -> g x
        new_codes, first = np.unique(code(found).reshape(-1), return_index=True)
        fresh = ~np.isin(new_codes, codes)
        via, at = np.divmod(first[fresh], len(frontier))
        levels.append((via, len(perms) - len(frontier) + at))
        frontier = found[via, at]
        if len(perms) + len(frontier) > max_order():
            raise OrderBound(f"closure exceeds bound {max_order()}")
        perms = np.vstack([perms, frontier])
        codes = np.concatenate([codes, new_codes[fresh]])
    order = np.argsort(codes)
    keys = codes[order]
    # row x of the table is y -> x y; the row of g x is the row of x followed
    # by y -> g y, whose table is left[g]
    left = np.searchsorted(keys, code(gen_arr[:, perms[order]]))
    table = np.empty((len(perms), len(perms)), dtype=np.int32)
    table[0] = np.arange(len(perms))
    start = 1
    for via, parent in levels:
        table[start:start + len(via)] = left[via[:, None], table[parent]]
        start += len(via)
    gen_idx = np.searchsorted(keys, code(gen_arr)).tolist()
    return FiniteGroup(table[order], label=f"P{len(perms)}", gens=gen_idx)


# shorthand name -> spec keys of its comma-separated integer parameters
_SHORTHAND_KEYS = {"cyclic": ("n",), "symmetric": ("n",), "dihedral": ("order",),
                   "elem_abelian": ("p", "k")}


def _parse_shorthand(text: str) -> dict:
    """cyclic:4, symmetric:3, dihedral:8 or elem_abelian:2,2 as a spec dict."""
    name, _, raw = text.partition(":")
    keys = _SHORTHAND_KEYS.get(name)
    try:
        params = [int(x) for x in raw.split(",")] if raw else []
    except ValueError:
        params = None
    if keys is None or params is None or len(params) != len(keys):
        raise BadGroupSpec(f"unknown group shorthand {text!r}")
    return {"kind": name, **dict(zip(keys, params))}


def construct_group(spec) -> FiniteGroup:
    """Build a group from a JSON-style spec dict or a shorthand string."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        spec = _parse_shorthand(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BadGroupSpec(f"bad group spec: {spec!r}")
    kind = spec["kind"]

    def param(key):
        return json_integer(spec[key], f"group spec field '{key}'")

    def rows(key):
        where = f"group spec field '{key}'"
        if not isinstance(spec[key], list):
            raise WrongShape(f"{where} must be a list of integer lists, not {spec[key]!r:.40}")
        return [json_integers(r, where) for r in spec[key]]

    if kind == "cyclic":
        return cyclic_group(param("n"))
    if kind == "symmetric":
        return symmetric_group(param("n"))
    if kind == "dihedral":
        return dihedral_group(param("order"))
    if kind == "elem_abelian":
        return elementary_abelian_group(param("p"), param("k"))
    if kind == "product":
        return product_group(construct_group(spec["a"]), construct_group(spec["b"]))
    if kind == "cayley":
        return group_from_cayley(rows("table"))
    if kind == "perm_gens":
        return group_from_permutations(param("degree"), rows("gens"))
    raise BadGroupSpec(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# Abelianization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Abelianization:
    """G^ab presented as a direct sum of cyclic groups Z/d_i (d_1 | d_2 | ...)."""

    invariant_factors: tuple[int, ...]
    projection: tuple[tuple[int, ...], ...]  # element index -> coordinate tuple


def abelianization(G: FiniteGroup) -> Abelianization:
    """G^ab from the Schreier relations of the word tree, computed once.

    With w(g) in Z^S the generator counts of the tree word of g, G^ab is
    Z^S modulo the rows w(g) + e_s - w(s g) over s in S and g in G
    (Reidemeister-Schreier; a tree edge gives a zero row).  |G^ab| divides
    |G|, so for p^a || |G| its p-part is (Z/p^a)^S modulo the same rows:
    their diagonalization U R V = diag(p^v) gives the factors p^v and the
    coordinates w(g) V.
    """
    if G._abelianization is None:
        gens = list(G.generating_set())
        n, k = G.order, len(gens)
        W = G.word_counts()
        R = W[None] - W[G.cayley[gens]]                  # [s, g]: w(g) - w(s g)
        R[np.arange(k), :, np.arange(k)] += 1
        parts = []
        for p, a in prime_power_factors(n):
            reduced, _ = eliminate_mod_q(R.reshape(k * n, k), p, a)
            _, vals, V = diagonalize_mod_q(reduced, p, a)
            positions, factors = primary_slots(vals, k, p, a)
            parts.append((factors, (W @ V)[:, positions]))
        factors, _, coords = merge_primary(parts, n)
        G._abelianization = Abelianization(factors, tuple(map(tuple, coords.tolist())))
    return G._abelianization


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of a small group (intended for test batteries)."""
    if G.order > 64:
        raise SizeBound("subgroup enumeration limited to order 64")
    cyclics = set()
    for g in G.elements():
        members = frozenset(G.generated_subgroup([g]).members)
        cyclics.add(members)
    found = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        H = frontier.pop()
        for C in cyclics:
            if C <= H:
                continue
            new = frozenset(G.generated_subgroup(H | C).members)
            if new not in found:
                found.add(new)
                frontier.append(new)
    subs = [Subgroup(G, tuple(sorted(h))) for h in found]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs
