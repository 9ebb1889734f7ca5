"""Measure layer: classes of equivariant varieties in the Grothendieck ring
of skeletal motives, and representation-valued Euler characteristics.

The measure sends a catalog symbol to the class of its collection
decomposition.  Two families of checks pin the measure down: the blow-up
relations [Bl] = [X] + (c-1)[Y], [E] = c[Y], and the factorization of the
compact-support Euler characteristic: the Hochschild shadow of the skeleton
(trivial character per twisted unit, permutation character per induced
atom; the twist lives in the 2-cells, which the unenhanced trace forgets)
must reproduce the fixed-locus Euler character class for class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .catalog import ActionSpec, CatalogEntry, instantiate
from .characters import (
    VirtualCharacter,
    decompose_class_function,
    permutation_character,
)
from .cocycles import SCHUR_DEFAULT_MAX_ORDER
from .cyclotomic import Cyclotomic
from .errors import ClassCountMismatch, GroupMismatch, UnsupportedInvariant
from .groups import FiniteGroup, same_group
from .motives import (
    CollectionSpec,
    MotiveAtom,
    MotiveSkeleton,
    decompose_collection,
    tensor_skeletons,
)
from .twisted import invariant_copies


# ---------------------------------------------------------------------------
# Symbols and K_0 classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarietySymbol:
    """A catalog entry with an action: one generator of the variety ring."""

    entry: CatalogEntry
    action: ActionSpec

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def label(self) -> str:
        return self.entry.label()


@dataclass(frozen=True)
class ProductSymbol:
    """Product of two symbols with the diagonal action."""

    left: "VarietySymbol | ProductSymbol"
    right: "VarietySymbol | ProductSymbol"

    @property
    def group(self) -> FiniteGroup:
        return self.left.group

    def label(self) -> str:
        return f"({self.left.label()} x {self.right.label()})"


@dataclass(frozen=True)
class CollectionSymbol:
    """A variety given directly by its collection blocks (for actions that
    are not factorwise, e.g. a factor swap on a product)."""

    name: str
    spec: CollectionSpec

    @property
    def group(self) -> FiniteGroup:
        return self.spec.group

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class K0VarExpr:
    """Formal integer combination of variety symbols."""

    terms: tuple[tuple[int, "VarietySymbol | ProductSymbol"], ...]

    @staticmethod
    def of(symbol, coeff: int = 1) -> "K0VarExpr":
        return K0VarExpr(((int(coeff), symbol),))

    def add(self, other: "K0VarExpr") -> "K0VarExpr":
        return K0VarExpr(self.terms + other.terms)

    def scale(self, c: int) -> "K0VarExpr":
        return K0VarExpr(tuple((c * k, s) for k, s in self.terms))


class K0NCClass:
    """Class in the Grothendieck ring of skeletal motives: an integer
    multiset of atoms (possibly with negative multiplicities)."""

    def __init__(self, group: FiniteGroup, counts: dict[MotiveAtom, int] | None = None):
        self.group = group
        self.counts: dict[MotiveAtom, int] = {}
        for atom, c in (counts or {}).items():
            if c:
                self.counts[atom] = self.counts.get(atom, 0) + int(c)
        self.counts = {a: c for a, c in self.counts.items() if c}

    @staticmethod
    def from_skeleton(A: MotiveSkeleton) -> "K0NCClass":
        out = K0NCClass(A.group)
        for atom in A.atoms:
            out.counts[atom] = out.counts.get(atom, 0) + 1
        return out

    def add(self, other: "K0NCClass") -> "K0NCClass":
        if not same_group(self.group, other.group):
            raise GroupMismatch("classes on different groups")
        merged = dict(self.counts)
        for a, c in other.counts.items():
            merged[a] = merged.get(a, 0) + c
        return K0NCClass(self.group, merged)

    def scale(self, c: int) -> "K0NCClass":
        return K0NCClass(self.group, {a: c * k for a, k in self.counts.items()})

    def sub(self, other: "K0NCClass") -> "K0NCClass":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return not self.counts

    def canonical(self) -> tuple:
        return tuple(sorted(((a.key(), c) for a, c in self.counts.items())))

    def __eq__(self, other):
        if not isinstance(other, K0NCClass):
            return NotImplemented
        return same_group(self.group, other.group) and self.canonical() == other.canonical()

    __hash__ = None

    def to_json(self) -> list[dict]:
        out = []
        for atom, c in sorted(self.counts.items(), key=lambda kv: kv[0].key()):
            d = atom.to_json()
            d["multiplicity"] = c
            out.append(d)
        return out


def mu_nc(symbol, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> K0NCClass:
    """The motivic measure: class of the collection decomposition.

    Products decompose through box-product collections; atom-level tensor
    rules cover point factors, zero-dimensional factors, and products of
    invariant-line collections."""
    return K0NCClass.from_skeleton(symbol_skeleton(symbol, max_group_order))


def symbol_skeleton(symbol, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> MotiveSkeleton:
    if isinstance(symbol, ProductSymbol):
        A = symbol_skeleton(symbol.left, max_group_order)
        B = symbol_skeleton(symbol.right, max_group_order)
        return tensor_skeletons(A, B)
    if isinstance(symbol, CollectionSymbol):
        return decompose_collection(symbol.spec, max_group_order)
    spec = instantiate(symbol.entry, symbol.action, max_group_order)
    return decompose_collection(spec, max_group_order)


def resolve_expr(expr: K0VarExpr, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> K0NCClass:
    out: K0NCClass | None = None
    for coeff, symbol in expr.terms:
        cls = mu_nc(symbol, max_group_order).scale(coeff)
        out = cls if out is None else out.add(cls)
    if out is None:
        raise ValueError("empty variety expression")
    return out


# ---------------------------------------------------------------------------
# Blow-up relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupCheck:
    ok: bool
    messages: tuple[str, ...]
    blowup_side: tuple
    expected_blowup: tuple
    divisor_side: tuple
    expected_divisor: tuple


def blowup_check(X: K0VarExpr, Y: K0VarExpr, c: int, Bl: K0VarExpr,
                 E: K0VarExpr, max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> BlowupCheck:
    """Verify [Bl] = [X] + (c-1)[Y] and [E] = c[Y] at class level."""
    if c < 1:
        raise ValueError("codimension must be >= 1")
    if X == Y:
        raise ValueError("degenerate blow-up: the center equals the ambient variety")
    clX = resolve_expr(X, max_group_order)
    clY = resolve_expr(Y, max_group_order)
    clBl = resolve_expr(Bl, max_group_order)
    clE = resolve_expr(E, max_group_order)
    want_bl = clX.add(clY.scale(c - 1))
    want_e = clY.scale(c)
    messages = []
    if clBl != want_bl:
        messages.append("blow-up class differs from [X] + (c-1)[Y]")
    if clE != want_e:
        messages.append("exceptional divisor class differs from c[Y]")
    return BlowupCheck(not messages, tuple(messages),
                       clBl.canonical(), want_bl.canonical(),
                       clE.canonical(), want_e.canonical())


# ---------------------------------------------------------------------------
# Invariant evaluation on skeletons
# ---------------------------------------------------------------------------


def _atom_unit_copies(atom: MotiveAtom) -> int:
    """Multiplicity of the base-field summand an additive invariant assigns."""
    if atom.kind == "unit":
        return invariant_copies(atom.unit_class)
    sub, _ = atom.stabilizer.as_group()
    return len(sub.conjugacy_classes())


def evaluate_invariant(A: MotiveSkeleton, which: str):
    """Evaluate a standard additive invariant on a skeleton.

    HH: graded dict (all in degree 0); HP: (even, odd) pair; K0rank: integer.
    """
    total = sum(_atom_unit_copies(atom) for atom in A.atoms)
    if which == "HH":
        return {0: total}
    if which == "HP":
        return (total, 0)
    if which == "K0rank":
        return total
    raise UnsupportedInvariant(f"unknown invariant {which!r}")


# ---------------------------------------------------------------------------
# Euler characteristics valued in R(G)
# ---------------------------------------------------------------------------


def euler_char_rep(G: FiniteGroup, fixed_locus: Sequence[int]) -> VirtualCharacter:
    """Character with trace chi(X^g) at each class, decomposed over Irr(G).

    One value per conjugacy class in canonical class order; non-integral
    multiplicities signal inconsistent fixed-locus data."""
    classes = G.conjugacy_classes()
    if len(fixed_locus) != len(classes):
        raise ClassCountMismatch(
            f"need {len(classes)} fixed-locus values, got {len(fixed_locus)}")
    values = [Cyclotomic.from_rational(int(v)) for v in fixed_locus]
    coeffs = decompose_class_function(G, values)
    return VirtualCharacter(G, coeffs)


def hh_class(A: MotiveSkeleton) -> VirtualCharacter:
    """Hochschild shadow in R(G): twisted units contribute the trivial
    character (the underlying complex is the base field with the identity
    action), induced atoms the permutation character of their coset space."""
    G = A.group
    out = VirtualCharacter.zero(G)
    trivial = VirtualCharacter.trivial_character(G)
    for atom in A.atoms:
        if atom.kind == "unit":
            out = out.add(trivial)
        else:
            out = out.add(permutation_character(G, atom.stabilizer))
    return out


@dataclass(frozen=True)
class FactorizationCheck:
    ok: bool
    euler_side: tuple
    skeleton_side: tuple


def factorization_check(symbol, fixed_locus: Sequence[int],
                        max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> FactorizationCheck:
    """Euler character from fixed-locus data must match the Hochschild
    shadow of the measured skeleton, as exact virtual characters."""
    G = symbol.group
    skel = symbol_skeleton(symbol, max_group_order)
    lhs = euler_char_rep(G, fixed_locus)
    rhs = hh_class(skel)
    return FactorizationCheck(lhs == rhs,
                              tuple(lhs.coeffs), tuple(rhs.coeffs))


def orbifold_dims(G: FiniteGroup,
                  sectors: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Total (even, odd) dimensions summed over per-class sectors."""
    classes = G.conjugacy_classes()
    if len(sectors) != len(classes):
        raise ClassCountMismatch(
            f"need {len(classes)} sector pairs, got {len(sectors)}")
    even = sum(int(e) for e, _ in sectors)
    odd = sum(int(o) for _, o in sectors)
    return (even, odd)
