"""Motive skeletons: formal direct sums of twisted-unit and induced atoms.

A skeleton models the decomposition of the equivariant motive of a variety
whose perfect complexes carry a full exceptional collection: blocks of
G-invariant objects contribute twisted units (one per cohomology class),
and blocks permuted with stabilizer H contribute induced atoms on G/H.
Hom ranks are computed through twisted-algebra block counts and
orbit-stabilizer bookkeeping; after localization at the augmentation ideal
all twisted units become isomorphic, so only the atom count survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import SCHUR_DEFAULT_MAX_ORDER, CohomClass, SchurMultiplier, schur_multiplier
from .errors import (
    GroupMismatch,
    LengthMismatch,
    NonTrivialStabilizerH2,
    OddCohomology,
    StabilizerIndexMismatch,
    UnsupportedAtom,
    UnsupportedTensor,
)
from .groups import FiniteGroup, Subgroup, coset_space, same_group
from .twisted import alpha_regular


@dataclass(frozen=True)
class MotiveAtom:
    """Twisted unit (a cohomology class) or induced point (a subgroup orbit)."""

    group: FiniteGroup
    kind: str  # "unit" | "induced"
    unit_class: CohomClass | None = None
    stabilizer: Subgroup | None = None

    def key(self) -> tuple:
        if self.kind == "unit":
            return (0, self.unit_class.coords)
        return (1, self.stabilizer.members)

    def __eq__(self, other):
        if not isinstance(other, MotiveAtom):
            return NotImplemented
        return (same_group(self.group, other.group) and self.kind == other.kind
                and self.key() == other.key())

    def __hash__(self):
        return hash((id(self.group), self.kind, self.key()))

    def to_json(self) -> dict:
        if self.kind == "unit":
            return {"kind": "twisted_unit", "class": list(self.unit_class.coords)}
        return {"kind": "induced", "stabilizer": list(self.stabilizer.members)}


def twisted_unit(cls: CohomClass) -> MotiveAtom:
    return MotiveAtom(cls.group, "unit", unit_class=cls)


def induced_atom(H: Subgroup, multiplier: SchurMultiplier | None = None) -> MotiveAtom:
    """Induced atom on G/H; the full subgroup normalizes to the trivial unit.

    The atom identity only depends on the conjugacy class of H, so the
    stabilizer is canonicalized to its lexicographically least conjugate.
    """
    G = H.parent
    if H.is_whole_group():
        M = multiplier if multiplier is not None else schur_multiplier(G)
        return twisted_unit(M.trivial_class())
    canonical = H.canonical_conjugate()
    return MotiveAtom(G, "induced", stabilizer=Subgroup(G, canonical))


@dataclass(frozen=True)
class MotiveSkeleton:
    group: FiniteGroup
    atoms: tuple[MotiveAtom, ...]

    def __post_init__(self):
        for a in self.atoms:
            if not same_group(a.group, self.group):
                raise GroupMismatch("atom attached to a different group")
        object.__setattr__(self, "atoms",
                           tuple(sorted(self.atoms, key=lambda a: a.key())))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def __eq__(self, other):
        if not isinstance(other, MotiveSkeleton):
            return NotImplemented
        return same_group(self.group, other.group) and self.atoms == other.atoms

    __hash__ = None

    def to_json(self) -> list[dict]:
        return [a.to_json() for a in self.atoms]


# ---------------------------------------------------------------------------
# Collections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One permutation block of an exceptional collection."""

    length: int
    stabilizer: Subgroup
    cocycle_class: CohomClass | None = None


@dataclass(frozen=True)
class CollectionSpec:
    group: FiniteGroup
    blocks: tuple[Block, ...]

    @property
    def total_length(self) -> int:
        return sum(b.length for b in self.blocks)


def decompose_collection(spec: CollectionSpec,
                         max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> MotiveSkeleton:
    """One atom per block: a twisted unit for invariant blocks, an induced
    point for permuted blocks whose stabilizer has trivial multiplier."""
    G = spec.group
    multiplier: SchurMultiplier | None = None
    atoms = []
    for i, block in enumerate(spec.blocks):
        H = block.stabilizer
        if block.length != H.index:
            raise StabilizerIndexMismatch(
                f"block {i}: length {block.length} != index {H.index}")
        if H.is_whole_group():
            cls = block.cocycle_class
            if cls is None:
                if multiplier is None:
                    multiplier = schur_multiplier(G, max_group_order)
                cls = multiplier.trivial_class()
            atoms.append(twisted_unit(cls))
        else:
            sub, _ = H.as_group()
            sub_mult = schur_multiplier(sub, max_group_order)
            if not sub_mult.is_trivial():
                raise NonTrivialStabilizerH2(
                    f"block {i}: stabilizer of order {H.order} has multiplier "
                    f"{sub_mult.describe()}; the permutation decomposition "
                    "hypothesis fails")
            atoms.append(induced_atom(H, multiplier))
    return MotiveSkeleton(G, tuple(atoms))


# ---------------------------------------------------------------------------
# Hom ranks
# ---------------------------------------------------------------------------


def hom_rank(a: MotiveAtom, b: MotiveAtom) -> int:
    """Rank of the hom group between two atoms."""
    if not same_group(a.group, b.group):
        raise GroupMismatch("atoms on different groups")
    G = a.group
    if a.kind == "unit" and b.kind == "unit":
        gamma = a.unit_class.representative.mul(
            b.unit_class.representative.inverse_cocycle())
        return alpha_regular(G, gamma).count
    if a.kind == "induced" and b.kind == "unit":
        return _restricted_regular_count(b.unit_class, a.stabilizer)
    if a.kind == "unit" and b.kind == "induced":
        # two-sided adjunction between restriction and induction
        return _restricted_regular_count(a.unit_class, b.stabilizer)
    return _induced_pair_rank(G, a.stabilizer, b.stabilizer)


def _restricted_regular_count(cls: CohomClass, H: Subgroup) -> int:
    sub, _ = H.as_group()
    restricted = cls.representative.restrict(H)
    return alpha_regular(sub, restricted).count


def _induced_pair_rank(G: FiniteGroup, H1: Subgroup, H2: Subgroup) -> int:
    """Mackey's double-coset formula: the sum of the class numbers of the
    stabilizers K_g = H1 n gH2g^-1 over the orbits of H1 on G/H2.

    K_g has #{(x, y) in K_g^2 : xy = yx} / |K_g| classes and its orbit
    |H1| / |K_g| points, so the sum is the commuting pairs of every K_g, g
    over a transversal T of G/H2, divided by |H1|.  With M[g, x] = [x in K_g]
    and C[x, y] = [xy = yx] on H1 that is sum((M C) * M) / |H1|, at a cost of
    |T| |H1|^2; the sum is symmetric, so H1 is the smaller subgroup."""
    if H1.order > H2.order:
        H1, H2 = H2, H1
    cay = G.cayley
    h1, h2 = np.array(H1.members), np.array(H2.members)
    in_h2 = np.zeros(G.order, dtype=bool)
    in_h2[h2] = True
    T = np.flatnonzero(cay[:, h2].min(axis=1) == np.arange(G.order))   # least of each gH2
    # int64, not bool: a bool matmul returns logical values, not counts
    M = in_h2[cay[cay[G.inverses[T][:, None], h1], T[:, None]]].astype(np.int64)
    P = cay[h1[:, None], h1]
    return int(((M @ (P == P.T)) * M).sum()) // len(h1)


def skeleton_hom_rank(A: MotiveSkeleton, B: MotiveSkeleton) -> int:
    if not same_group(A.group, B.group):
        raise GroupMismatch("skeletons on different groups")
    return sum(hom_rank(a, b) for a in A.atoms for b in B.atoms)


def possibly_isomorphic_atoms(A: MotiveSkeleton) -> list[tuple[int, int]]:
    """Pairs of distinct atoms with identical hom profiles against every atom
    of the skeleton.  Such atoms are kept distinct (equality is by canonical
    class data), but reports flag them since no finer criterion is available
    at skeleton level."""
    battery = A.atoms
    profiles = []
    for a in A.atoms:
        profiles.append(tuple((hom_rank(a, b), hom_rank(b, a)) for b in battery))
    out = []
    for i in range(len(A.atoms)):
        for j in range(i + 1, len(A.atoms)):
            if A.atoms[i] != A.atoms[j] and profiles[i] == profiles[j]:
                out.append((i, j))
    return out


def restrict_skeleton(A: MotiveSkeleton) -> int:
    """Number of plain unit atoms after forgetting the group action."""
    total = 0
    for atom in A.atoms:
        if atom.kind == "unit":
            total += 1
        else:
            total += atom.stabilizer.index
    return total


def localized_isomorphic(A: MotiveSkeleton, B: MotiveSkeleton) -> bool:
    """Isomorphism test after localizing at the augmentation ideal: all
    twisted units become isomorphic, so only the atom count matters."""
    if not same_group(A.group, B.group):
        raise GroupMismatch("skeletons on different groups")
    for S in (A, B):
        for atom in S.atoms:
            if atom.kind != "unit":
                raise UnsupportedAtom(
                    "localized comparison is only defined for twisted units")
    return A.size == B.size


# ---------------------------------------------------------------------------
# Tensor structure (used by the motivic measure layer)
# ---------------------------------------------------------------------------


def tensor_atoms(a: MotiveAtom, b: MotiveAtom) -> list[MotiveAtom]:
    """Atom list of the tensor product of two atoms."""
    if not same_group(a.group, b.group):
        raise GroupMismatch("atoms on different groups")
    G = a.group
    if a.kind == "unit" and b.kind == "unit":
        return [twisted_unit(a.unit_class.mul(b.unit_class))]
    if a.kind == "unit" or b.kind == "unit":
        cls = a.unit_class if a.kind == "unit" else b.unit_class
        H = a.stabilizer if a.kind == "induced" else b.stabilizer
        restricted = cls.representative.restrict(H)
        from .cocycles import TwoCocycle, is_cohomologous
        trivial = TwoCocycle.trivial(restricted.group, restricted.modulus)
        if is_cohomologous(restricted, trivial) is None:
            raise UnsupportedTensor(
                "tensor with an induced atom needs the class to restrict "
                "trivially to the stabilizer")
        return [induced_atom(H, cls.multiplier)]
    # induced x induced: orbits on the product of coset spaces
    out = []
    space2 = coset_space(G, b.stabilizer)
    H1 = a.stabilizer
    seen: set[tuple[int, int]] = set()
    space1 = coset_space(G, H1)
    for i in range(space1.size):
        for j in range(space2.size):
            if (i, j) in seen:
                continue
            orbit = {(space1.action[g][i], space2.action[g][j]) for g in G.elements()}
            seen |= orbit
            stab = [g for g in G.elements()
                    if space1.action[g][i] == i and space2.action[g][j] == j]
            out.append(induced_atom(Subgroup(G, tuple(sorted(stab)))))
    return out


def tensor_skeletons(A: MotiveSkeleton, B: MotiveSkeleton) -> MotiveSkeleton:
    atoms: list[MotiveAtom] = []
    for a in A.atoms:
        for b in B.atoms:
            atoms.extend(tensor_atoms(a, b))
    return MotiveSkeleton(A.group, tuple(atoms))


# ---------------------------------------------------------------------------
# Lefschetz-type shadows on the commutative side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChowSkeleton:
    """Multiset of Lefschetz twists: exponent r appears b_{2r} times."""

    exponents: tuple[int, ...]

    def __eq__(self, other):
        if not isinstance(other, ChowSkeleton):
            return NotImplemented
        return self.exponents == other.exponents

    __hash__ = None


@dataclass(frozen=True)
class ViaCheck:
    ok: bool
    problems: tuple[str, ...] = ()


def chow_skeleton(entry) -> ChowSkeleton:
    """Twist exponents pinned down by the Betti numbers of a catalog entry."""
    betti = entry.betti_numbers
    odd = [i for i in range(1, len(betti), 2) if betti[i]]
    if odd:
        raise OddCohomology(
            f"odd Betti numbers {odd} are nonzero: no invariant collection exists")
    if sum(betti) != entry.collection_length:
        raise LengthMismatch(
            f"Betti total {sum(betti)} != collection length {entry.collection_length}")
    exps = []
    for r in range(0, len(betti), 2):
        exps.extend([r // 2] * betti[r])
    return ChowSkeleton(tuple(sorted(exps)))


def check_via(entry) -> ViaCheck:
    """Verify the cohomological constraints a full invariant collection forces:
    vanishing odd cohomology and total dimension equal to the length."""
    problems = []
    betti = entry.betti_numbers
    odd = [i for i in range(1, len(betti), 2) if betti[i]]
    if odd:
        problems.append(f"odd Betti numbers nonzero at degrees {odd}")
    if sum(betti) != entry.collection_length:
        problems.append(
            f"Betti total {sum(betti)} differs from collection length "
            f"{entry.collection_length}")
    return ViaCheck(not problems, tuple(problems))
