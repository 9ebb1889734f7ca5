"""Catalog of varieties carrying standard full exceptional collections.

Each entry records dimension, Betti numbers, the diagonal Hodge numbers,
and the block structure of its collection: invariant line-bundle slots whose
classes are powers of a single base class, plus special slots (spinor
bundles, exceptional divisors, or points) that an action may either fix or
permute.  Fixed-locus Euler data is supplied with the action, not computed
from geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cocycles import SCHUR_DEFAULT_MAX_ORDER, CohomClass, SchurMultiplier, schur_multiplier
from .errors import InconsistentAction, ParamRange, UnknownEntry, check_invariant
from .groups import FiniteGroup, Subgroup
from .motives import Block, CollectionSpec


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple[int, ...]
    dimension: int
    betti_numbers: tuple[int, ...]      # b_0 .. b_{2 dim}
    line_powers: tuple[int, ...]        # base-class exponent per line slot
    special_slots: int = 0              # swappable pair (2) or single spinor (1)
    point_slots: int = 0                # structure-sheaf slots of a 0-fold

    @property
    def collection_length(self) -> int:
        return len(self.line_powers) + self.special_slots + self.point_slots

    @property
    def hodge_diagonal(self) -> tuple[int, ...]:
        return tuple(self.betti_numbers[2 * p]
                     for p in range(self.dimension + 1))

    def hodge_number(self, p: int, q: int) -> int:
        """h^{p,q}; every catalog variety has only diagonal Hodge numbers,
        so Hochschild dimensions concentrate in degree zero."""
        if p != q:
            return 0
        if not 0 <= p <= self.dimension:
            return 0
        return self.betti_numbers[2 * p]

    def label(self) -> str:
        if self.params:
            return f"{self.name}:{','.join(str(p) for p in self.params)}"
        return self.name


def _gaussian_binomial(d: int, n: int) -> list[int]:
    """Coefficients of the q-binomial [d choose n]_q."""
    num = [1]
    for i in range(1, n + 1):
        # multiply by (1 - q^(d-n+i)) / (1 - q^i) = cyclotomic-free exact division
        top = [0] * (d - n + i + 1)
        top[0], top[-1] = 1, -1
        num = _poly_mul(num, top)
        num = _poly_div(num, i)
    return num


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div(a: list[int], i: int) -> list[int]:
    """Exact division by (1 - q^i): out[k] = a[k] + out[k-i]."""
    out = [0] * (len(a) - i)
    for k in range(len(out)):
        prev = out[k - i] if k >= i else 0
        out[k] = a[k] + prev
    for k in range(len(out), len(a)):
        prev = out[k - i] if 0 <= k - i < len(out) else 0
        check_invariant(a[k] == -prev, "gaussian binomial division must be exact")
    return out


def catalog_lookup(name: str, params: tuple[int, ...] = ()) -> CatalogEntry:
    params = tuple(int(p) for p in params)
    if name == "point":
        if params:
            raise ParamRange("point takes no parameters")
        return CatalogEntry("point", (), 0, (1,), (0,))
    if name == "disjoint_points":
        if len(params) != 1 or params[0] < 1:
            raise ParamRange("disjoint_points needs k >= 1")
        k = params[0]
        if k > 64:
            raise ParamRange("disjoint_points limited to k <= 64")
        return CatalogEntry("disjoint_points", params, 0, (k,), (), point_slots=k)
    if name == "projective_space":
        if len(params) != 1 or not 1 <= params[0] <= 12:
            raise ParamRange("projective_space needs 1 <= n <= 12")
        n = params[0]
        betti = tuple(1 if i % 2 == 0 else 0 for i in range(2 * n + 1))
        return CatalogEntry("projective_space", params, n, betti, tuple(range(n + 1)))
    if name == "quadric_odd":
        if len(params) != 1 or params[0] < 1 or params[0] % 2 == 0 or params[0] > 10:
            raise ParamRange("quadric_odd needs odd dimension 1 <= d <= 10")
        d = params[0]
        betti = tuple(1 if i % 2 == 0 else 0 for i in range(2 * d + 1))
        return CatalogEntry("quadric_odd", params, d, betti, tuple(range(d)),
                            special_slots=1)
    if name == "quadric_even":
        if len(params) != 1 or params[0] < 2 or params[0] % 2 or params[0] > 10:
            raise ParamRange("quadric_even needs even dimension 2 <= d <= 10")
        d = params[0]
        betti = [1 if i % 2 == 0 else 0 for i in range(2 * d + 1)]
        betti[d] = 2
        return CatalogEntry("quadric_even", params, d, tuple(betti), tuple(range(d)),
                            special_slots=2)
    if name == "grassmannian":
        if len(params) != 2:
            raise ParamRange("grassmannian needs (n, d)")
        n, d = params
        if not 1 <= n <= d or d > 8:
            raise ParamRange("grassmannian needs 1 <= n <= d <= 8")
        coeffs = _gaussian_binomial(d, n)
        dim = n * (d - n)
        betti = []
        for i in range(2 * dim + 1):
            betti.append(coeffs[i // 2] if i % 2 == 0 else 0)
        check_invariant(sum(coeffs) == comb(d, n),
                        "gaussian binomial at q = 1 must be the binomial coefficient")
        powers = []
        for r, b in enumerate(coeffs):
            powers.extend([r] * b)
        return CatalogEntry("grassmannian", params, dim, tuple(betti), tuple(powers))
    if name == "del_pezzo_bl2":
        if params:
            raise ParamRange("del_pezzo_bl2 takes no parameters")
        return CatalogEntry("del_pezzo_bl2", (), 2, (1, 0, 3, 0, 1), (0, 1, 2),
                            special_slots=2)
    raise UnknownEntry(f"unknown catalog entry {name!r}")


def parse_catalog_address(address: str) -> CatalogEntry:
    """Parse CLI-style addresses like projective_space:3 or grassmannian:2,4."""
    if ":" in address:
        name, raw = address.split(":", 1)
        params = tuple(int(x) for x in raw.split(","))
    else:
        name, params = address, ()
    return catalog_lookup(name, params)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActionSpec:
    """How a group acts on a catalog entry's collection.

    line_class: multiplier coordinates of the class attached to the ample
    line bundle (powers of it decorate the line slots); special slots are
    either individually invariant with their own classes or form one orbit
    with the given stabilizer; point slots split into orbits.  Classes are
    symbolic inputs: the actual linearization data is not computed here.
    """

    group: FiniteGroup
    line_class: tuple[int, ...] = ()
    special_classes: tuple[tuple[int, ...], ...] = ()
    special_orbit: tuple[int, ...] | None = None
    point_orbits: tuple[tuple[int, ...], ...] = ()
    fixed_locus: tuple[int, ...] | None = None       # chi(X^g) per conjugacy class
    sectors: tuple[tuple[int, int], ...] | None = None

    @staticmethod
    def trivial(G: FiniteGroup, fixed_locus=None, sectors=None) -> "ActionSpec":
        return ActionSpec(G, fixed_locus=_opt_tuple(fixed_locus),
                          sectors=_opt_pairs(sectors))

    @staticmethod
    def swap_pair(G: FiniteGroup, stabilizer: tuple[int, ...],
                  line_class: tuple[int, ...] = (), fixed_locus=None,
                  sectors=None) -> "ActionSpec":
        return ActionSpec(G, line_class=tuple(line_class),
                          special_orbit=tuple(stabilizer),
                          fixed_locus=_opt_tuple(fixed_locus),
                          sectors=_opt_pairs(sectors))


def _opt_tuple(x):
    return None if x is None else tuple(int(v) for v in x)


def _opt_pairs(x):
    return None if x is None else tuple((int(a), int(b)) for a, b in x)


def _class_from_coords(M: SchurMultiplier, coords: tuple[int, ...]) -> CohomClass:
    if not coords:
        return M.trivial_class()
    if len(coords) != len(M.invariant_factors):
        raise InconsistentAction(
            f"class coordinates {coords} do not match the multiplier "
            f"{M.describe()}")
    return M.class_from_coords(coords)


def instantiate(entry: CatalogEntry, action: ActionSpec,
                max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> CollectionSpec:
    """Build the collection blocks the action induces on the entry."""
    G = action.group
    M = schur_multiplier(G, max_group_order)
    full = G.full_subgroup()
    blocks: list[Block] = []

    if entry.special_slots == 0 and (action.special_classes or action.special_orbit):
        raise InconsistentAction(f"{entry.name} has no special slots")
    if entry.point_slots == 0 and action.point_orbits:
        raise InconsistentAction(f"{entry.name} has no point slots")

    if entry.special_slots:
        if action.special_orbit is not None:
            if entry.special_slots != 2:
                raise InconsistentAction("only a pair of special objects can be swapped")
            H = Subgroup(G, tuple(action.special_orbit))
            if H.index != 2:
                raise InconsistentAction(
                    f"swap stabilizer must have index 2, got {H.index}")
            blocks.append(Block(2, H))
        else:
            classes = action.special_classes or ((),) * entry.special_slots
            if len(classes) != entry.special_slots:
                raise InconsistentAction(
                    f"{entry.name} needs {entry.special_slots} special classes")
            for coords in classes:
                blocks.append(Block(1, full, _class_from_coords(M, tuple(coords))))

    if entry.point_slots:
        if action.point_orbits:
            total = 0
            for members in action.point_orbits:
                H = Subgroup(G, tuple(members))
                blocks.append(Block(H.index, H))
                total += H.index
            if total != entry.point_slots:
                raise InconsistentAction(
                    f"orbits cover {total} points, entry has {entry.point_slots}")
        else:
            for _ in range(entry.point_slots):
                blocks.append(Block(1, full, M.trivial_class()))

    base = _class_from_coords(M, tuple(action.line_class))
    for r in entry.line_powers:
        blocks.append(Block(1, full, base.power(r)))
    return CollectionSpec(G, tuple(blocks))
