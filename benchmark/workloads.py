"""The four workloads: inputs, operations and independent output checks.

A workload builds its state in ``setup`` and hands out one round of
operations at a time. An operation is ``(label, call, check)``: ``call``
is the timed call into motivelab; ``check(result)`` runs outside the timed
region and returns an error message, or None when the output is right. Every
round runs the same operations; the seed only fixes their order (and, in
``repring``, which operand of a product comes first), so every seed does
the same work.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

import motivelab as ml
from motivelab import catalog, cli, measures, motives, twisted

import oracles

# Multiplier guard used for every workload group; the library default is 48.
MAX_ORDER = 120

C = lambda n: ("cyclic", n)                                  # noqa: E731
D = lambda order: ("dihedral", order)                        # noqa: E731
S = lambda n: ("symmetric", n)                               # noqa: E731
A = lambda n: ("alternating", n)                             # noqa: E731
E = lambda p, k: ("elem", p, k)                              # noqa: E731
Q8 = ("quaternion",)
X = lambda a, b: ("product", a, b)                           # noqa: E731

# Generators of the permutation groups built with group_from_permutations.
_PERM_GENS = {
    ("alternating", 4): (4, [[1, 2, 0, 3], [1, 0, 3, 2]]),
    ("alternating", 5): (5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
    ("quaternion",): (8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
}


def build_group(desc) -> ml.FiniteGroup:
    """A new group object from the library's constructors."""
    kind = desc[0]
    if kind == "cyclic":
        return ml.cyclic_group(desc[1])
    if kind == "dihedral":
        return ml.dihedral_group(desc[1])
    if kind == "symmetric":
        return ml.symmetric_group(desc[1])
    if kind == "elem":
        return ml.elementary_abelian_group(desc[1], desc[2])
    if kind == "product":
        return ml.product_group(build_group(desc[1]), build_group(desc[2]))
    degree, gens = _PERM_GENS[desc]
    return ml.group_from_permutations(degree, gens)


def _check_order(G, desc):
    want = oracles.group_order(desc)
    return None if G.order == want else f"built order {G.order}, expected {want}"


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, smoke: bool, rng: random.Random):
        self.smoke = smoke
        self.rng = rng

    def setup(self):
        raise NotImplementedError

    def ops(self, state, first: bool) -> list:
        """One round of operations, in the seed's order."""
        raise NotImplementedError

    def warm_up(self, state) -> None:
        """Untimed work done once per set-up so timed rounds are in steady
        state; part of set-up."""

    def _shuffled(self, ops):
        """(position, label, call, check) in the seed's order; the position
        in the unshuffled round identifies an operation across rounds."""
        out = [(i, *op) for i, op in enumerate(ops)]
        self.rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# multiplier: schur_multiplier on new group objects
# ---------------------------------------------------------------------------


class Multiplier(Workload):
    name = "multiplier"
    setup_repeats = 5
    # The median operation is D48 (about 0.16 s), with clear gaps to S4 below
    # (0.04 s) and D64 above (0.24 s). D16xC2 (0.13 s) and E4xS3 (0.17 s) are
    # replaced by D8xC2 and E4xA4: beside D48 they made the median whichever
    # of the three ran second fastest, which moved it by 20 % between runs.
    GROUPS = [
        ("Q8", Q8), ("A4", A(4)), ("C3xC3", X(C(3), C(3))), ("D16", D(16)),
        ("C4xC4", X(C(4), C(4))), ("D8xC2", X(D(8), C(2))), ("S4", S(4)),
        ("D48", D(48)), ("D64", D(64)), ("E32", E(2, 5)), ("A5", A(5)),
        ("S4xC2", X(S(4), C(2))), ("E4xA4", X(E(2, 2), A(4))),
        ("D12xS3", X(D(12), S(3))), ("S5", S(5)),
    ]
    SMOKE_GROUPS = [("S3", S(3)), ("E4", E(2, 2)), ("C2xC2", X(C(2), C(2))), ("A4", A(4))]

    def _build(self):
        groups = self.SMOKE_GROUPS if self.smoke else self.GROUPS
        return [(label, desc, build_group(desc)) for label, desc in groups]

    def setup(self):
        return {"groups": self._build()}

    def ops(self, state, first):
        groups = state["groups"] if first else self._build()
        out = []
        for label, desc, G in groups:
            want = oracles.invariant_factors(oracles.multiplier_orders(desc))

            def check(M, G=G, desc=desc, want=want):
                err = _check_order(G, desc)
                if err is None and tuple(M.invariant_factors) != want:
                    err = f"M = {M.invariant_factors}, literature {want}"
                return err

            out.append((label, lambda G=G: ml.schur_multiplier(G, MAX_ORDER), check))
        return self._shuffled(out)


# ---------------------------------------------------------------------------
# chartable: character_table on new group objects
# ---------------------------------------------------------------------------


def check_character_table(G, T) -> str | None:
    n = G.order
    brute = oracles.Table(G.cayley)
    classes = brute.classes()
    if T.num_irreducibles != len(classes):
        return f"{T.num_irreducibles} irreducibles, {len(classes)} classes"
    program_classes = sorted(tuple(c.members) for c in G.conjugacy_classes())
    if program_classes != sorted(classes):
        return "class partition differs from brute force"
    degrees = list(T.degrees)
    if sum(d * d for d in degrees) != n:
        return f"sum of squared degrees {sum(d * d for d in degrees)} != {n}"
    if any(n % d for d in degrees):
        return f"a degree does not divide {n}: {degrees}"
    V = oracles.table_values(T)
    reps = [c.representative for c in G.conjugacy_classes()]
    if not np.allclose(V[:, reps.index(0)], degrees, atol=1e-6):
        return "identity column differs from the degrees"
    col = (np.abs(V) ** 2).sum(axis=0)
    cent = np.array([brute.centralizer_order(g) for g in reps], dtype=float)
    if not np.allclose(col, cent, atol=1e-6):
        return "column orthogonality fails"
    return None


class Chartable(Workload):
    name = "chartable"
    # C6xC6 (2.3 s) and C8xC4 (3.0 s) are left out: with them a round took
    # about 11 s, two rounds per run, and the median rested on two samples.
    # Without them the median falls on the D48/S6 level (about 0.6 s each).
    GROUPS = [("D48", D(48)), ("D64", D(64)), ("S6", S(6)), ("S3xS4", X(S(3), S(4))),
              ("E32", E(2, 5))]
    SMOKE_GROUPS = [("S3", S(3)), ("D8", D(8)), ("C4", C(4))]

    def _build(self):
        groups = self.SMOKE_GROUPS if self.smoke else self.GROUPS
        return [(label, desc, build_group(desc)) for label, desc in groups]

    def setup(self):
        return {"groups": self._build()}

    def ops(self, state, first):
        groups = state["groups"] if first else self._build()
        out = []
        for label, desc, G in groups:
            def check(T, G=G, desc=desc):
                return _check_order(G, desc) or check_character_table(G, T)

            out.append((label, lambda G=G: ml.character_table(G), check))
        return self._shuffled(out)


# ---------------------------------------------------------------------------
# repring: products of irreducibles on tables already built
# ---------------------------------------------------------------------------


class Repring(Workload):
    name = "repring"
    # E4xS3 is left out: its products (16-19 ms) sit between the S4/D16
    # level and the C12/C4xC4 level (about 33 ms) and put the median in the
    # gap, so op_p50_ms jumped between the two levels from run to run.
    GROUPS = [("S4", S(4)), ("D16", D(16)), ("C4xC4", X(C(4), C(4))), ("C12", C(12))]
    SMOKE_GROUPS = [("S3", S(3)), ("C4", C(4))]

    def __init__(self, smoke, rng):
        super().__init__(smoke, rng)
        self._expected: dict[str, np.ndarray] = {}

    def setup(self):
        groups = []
        for label, desc in (self.SMOKE_GROUPS if self.smoke else self.GROUPS):
            G = build_group(desc)
            T = ml.character_table(G)
            irr = [ml.VirtualCharacter.irreducible(G, i) for i in range(T.num_irreducibles)]
            groups.append((label, G, T, irr))
        return {"groups": groups}

    def warm_up(self, state):
        for _, _, _, irr in state["groups"]:
            irr[-1].mul(irr[-1])

    def _float_products(self, label, G, T) -> np.ndarray:
        """P[i, j, k] = <chi_i chi_j, chi_k> in floating point."""
        if label not in self._expected:
            V = oracles.table_values(T)
            sizes = np.array([len(c.members) for c in G.conjugacy_classes()], dtype=float)
            P = np.einsum("c,ic,jc,kc->ijk", sizes, V, V, V.conj()) / G.order
            self._expected[label] = P
        return self._expected[label]

    def ops(self, state, first):
        out = []
        for label, G, T, irr in state["groups"]:
            k = len(irr)
            for i, j in itertools.combinations_with_replacement(range(k), 2):
                if self.rng.random() < 0.5:
                    i, j = j, i

                def check(prod, label=label, G=G, T=T, i=i, j=j):
                    coeffs = prod.coeffs
                    if any(c.denominator != 1 or c < 0 for c in coeffs):
                        return f"chi_{i} chi_{j}: coefficients not in N: {coeffs}"
                    rank = sum(c * d for c, d in zip(coeffs, T.degrees))
                    if rank != T.degrees[i] * T.degrees[j]:
                        return f"chi_{i} chi_{j}: rank {rank}"
                    want = self._float_products(label, G, T)[i, j]
                    if not np.allclose(np.array(coeffs, dtype=float), want, atol=1e-6):
                        return f"chi_{i} chi_{j}: differs from the floating inner products"
                    return None

                out.append((f"{label}[{i},{j}]",
                            lambda a=irr[i], b=irr[j]: a.mul(b), check))
        return self._shuffled(out)


# ---------------------------------------------------------------------------
# skeleton: small motive, twisted-algebra and measure queries on reused groups
# ---------------------------------------------------------------------------


def _cyclic_subgroups(brute: oracles.Table) -> list[tuple[int, ...]]:
    """Proper cyclic subgroups up to conjugacy, as least conjugate member
    tuples, smallest first."""
    n = brute.n
    out = set()
    for g in range(n):
        members, x = [0], g
        while x != 0:
            members.append(x)
            x = int(brute.T[x, g])
        if len(members) == n:
            continue
        conjugates = (tuple(sorted(set(brute.conj[h, members].tolist())))
                      for h in range(n))
        out.add(min(conjugates))
    return sorted(out, key=lambda m: (len(m), m))


def _class_coords(M) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in M.invariant_factors)))


def _datasets_dir() -> Path:
    return Path(ml.__file__).parent / "datasets"


class Skeleton(Workload):
    name = "skeleton"
    GROUPS = [
        ("E4", E(2, 2)), ("S3", S(3)), ("D8", D(8)), ("Q8", Q8), ("E8", E(2, 3)),
        ("A4", A(4)), ("D12", D(12)), ("C3xC3", X(C(3), C(3))),
        ("C4xC4", X(C(4), C(4))), ("D16", D(16)), ("S4", S(4)),
        ("C6xC2", X(C(6), C(2))), ("D24", D(24)),
    ]
    SMOKE_GROUPS = [("E4", E(2, 2)), ("S3", S(3))]
    TRIVIAL_ENTRIES = ["projective_space:3", "quadric_odd:3", "grassmannian:2,4",
                       "del_pezzo_bl2"]
    FACTOR_DATASETS = ["p1_c2.json", "p1xp1_swap_c2.json", "p2_trivial_c2.json",
                       "swapped_points_c2.json"]
    BLOWUP_DATASETS = ["del_pezzo_blowup.json", "blowup_fixed_point.json"]

    def __init__(self, smoke, rng):
        super().__init__(smoke, rng)
        self._expect: dict[tuple, object] = {}

    # -- set-up ----------------------------------------------------------------

    def setup(self):
        groups = []
        for label, desc in (self.SMOKE_GROUPS if self.smoke else self.GROUPS):
            G = build_group(desc)
            brute = oracles.Table(G.cayley)
            M = ml.schur_multiplier(G, MAX_ORDER)
            coords = _class_coords(M)
            units = {c: ml.twisted_unit(M.class_from_coords(c)) for c in coords}
            subs = _cyclic_subgroups(brute)
            induced = {H: ml.induced_atom(ml.Subgroup(G, H), M) for H in subs}
            index2 = [H for H in subs if 2 * len(H) == G.order]
            top = subs[-1]                     # a cyclic subgroup of largest order
            actions = [(a, ml.ActionSpec.trivial(G)) for a in self.TRIVIAL_ENTRIES]
            actions += [("projective_space:2", ml.ActionSpec(G, line_class=c))
                        for c in coords[1:3]]
            if index2:
                actions.append(("del_pezzo_bl2", ml.ActionSpec.swap_pair(G, index2[0])))
            actions.append((f"disjoint_points:{G.order // len(top)}",
                            ml.ActionSpec(G, point_orbits=(top,))))
            entries = [(addr, catalog.parse_catalog_address(addr), act)
                       for addr, act in actions]
            skeletons = [motives.decompose_collection(
                catalog.instantiate(entries[0][1], entries[0][2], MAX_ORDER), MAX_ORDER)]
            skeletons.append(motives.decompose_collection(
                catalog.instantiate(entries[-1][1], entries[-1][2], MAX_ORDER), MAX_ORDER))
            groups.append({"label": label, "G": G, "brute": brute, "M": M,
                           "coords": coords, "units": units, "subs": subs,
                           "induced": induced, "entries": entries,
                           "skeletons": skeletons})
        return {"groups": groups, "datasets": self._load_datasets()}

    def _load_datasets(self):
        out = []
        for fname in self.FACTOR_DATASETS:
            data = json.loads((_datasets_dir() / fname).read_text())
            G = ml.construct_group(data["group"])
            symbol = cli.load_symbol(G, data["symbol"])
            fixed = cli.per_class_values(G, data["fixed_locus"])
            out.append(("factor", fname, G, (symbol, fixed), None))
        for fname in self.BLOWUP_DATASETS:
            data = json.loads((_datasets_dir() / fname).read_text())
            G = ml.construct_group(data["group"])
            exprs = tuple(cli.load_expr(G, data[k]) for k in ("X", "Y", "Bl", "E"))
            lengths = tuple(oracles.collection_length(*oracles.parse_address(data[k]["catalog"]))
                            for k in ("X", "Y"))
            out.append(("blowup", fname, G, (exprs, int(data["c"])), lengths))
        return out

    def warm_up(self, state):
        for _, _, call, _ in self.ops(state, True):
            call()

    # -- expected values (cached per group label; computed outside timing) ------

    def _memo(self, key, fn):
        if key not in self._expect:
            self._expect[key] = fn()
        return self._expect[key]

    def _atom_rank_oracle(self, g, a, b) -> int:
        brute = g["brute"]
        if a.kind == "induced" and b.kind == "induced":
            return self._memo((g["label"], "ind", a.stabilizer.members, b.stabilizer.members),
                              lambda: brute.induced_pair_rank(a.stabilizer.members,
                                                              b.stabilizer.members))
        if a.kind == "unit" and b.kind == "unit":
            ra, rb = a.unit_class.representative, b.unit_class.representative
            key = (g["label"], "uu", a.unit_class.coords, b.unit_class.coords)
            return self._memo(key, lambda: brute.regular_class_count(
                *oracles.gamma_table(ra.table, ra.modulus, rb.table, rb.modulus)))
        unit, ind = (a, b) if a.kind == "unit" else (b, a)
        rep = unit.unit_class.representative
        key = (g["label"], "ui", unit.unit_class.coords, ind.stabilizer.members)
        return self._memo(key, lambda: brute.regular_class_count(
            rep.table, rep.modulus, ind.stabilizer.members))

    def _check_collection(self, g, addr, action, skel) -> str | None:
        name, params = oracles.parse_address(addr)
        length = oracles.collection_length(name, params)
        G = g["G"]
        units = [a for a in skel.atoms if a.kind == "unit"]
        induced = [a for a in skel.atoms if a.kind == "induced"]
        if len(units) + sum(a.stabilizer.index for a in induced) != length:
            return f"{addr}: atoms cover {len(units)} + induced, collection length {length}"
        if action.special_orbit is not None or action.point_orbits:
            H = tuple(action.special_orbit or action.point_orbits[0])
            want = min(tuple(sorted(set(g["brute"].conj[h, list(H)].tolist())))
                       for h in range(G.order))
            if len(induced) != 1 or induced[0].stabilizer.members != want:
                return f"{addr}: expected one induced atom on {want}"
            return None
        if induced:
            return f"{addr}: unexpected induced atoms"
        factors = g["M"].invariant_factors
        base = action.line_class or (0,) * len(factors)
        if name == "projective_space" and action.line_class:
            want = sorted(tuple(r * c % d for c, d in zip(base, factors))
                          for r in range(length))
        else:
            want = sorted([tuple(0 for _ in factors)] * length)
        got = sorted(tuple(a.unit_class.coords) for a in units)
        if got != want:
            return f"{addr}: unit classes {got}, expected {want}"
        return None

    # -- one round ---------------------------------------------------------------

    def ops(self, state, first):
        out = []
        for g in state["groups"]:
            out += self._group_ops(g)
        out += self._dataset_ops(state["datasets"])
        return self._shuffled(out)

    def _group_ops(self, g):
        G, label, brute = g["G"], g["label"], g["brute"]
        out = []
        for addr, entry, action in g["entries"]:
            out.append((f"{label} decompose {addr}",
                        lambda e=entry, a=action: motives.decompose_collection(
                            catalog.instantiate(e, a, MAX_ORDER), MAX_ORDER),
                        lambda skel, a=addr, act=action: self._check_collection(g, a, act, skel)))

        def rank_check(want_fn):
            def check(r):
                want = want_fn()
                return None if r == want else f"rank {r}, expected {want}"
            return check

        atoms = list(g["induced"].values())
        for a, b in itertools.product(atoms, atoms):
            out.append((f"{label} hom induced",
                        lambda a=a, b=b: motives.hom_rank(a, b),
                        rank_check(lambda a=a, b=b: self._atom_rank_oracle(g, a, b))))
        trivial = g["units"][g["coords"][0]]
        for c, u in g["units"].items():
            out.append((f"{label} hom unit {c}",
                        lambda u=u: motives.hom_rank(u, trivial),
                        rank_check(lambda u=u: self._atom_rank_oracle(g, u, trivial))))
            for b in atoms:
                out.append((f"{label} hom unit-induced {c}",
                            lambda u=u, b=b: motives.hom_rank(u, b),
                            rank_check(lambda u=u, b=b: self._atom_rank_oracle(g, u, b))))
        out.append((f"{label} hom unit-unit class count",
                    lambda: motives.hom_rank(trivial, trivial),
                    rank_check(lambda: self._memo((label, "k"), lambda: len(brute.classes())))))
        skels = g["skeletons"]
        for A_, B_ in itertools.product(skels, skels):
            out.append((f"{label} skeleton hom",
                        lambda A_=A_, B_=B_: motives.skeleton_hom_rank(A_, B_),
                        rank_check(lambda A_=A_, B_=B_: sum(
                            self._atom_rank_oracle(g, a, b)
                            for a in A_.atoms for b in B_.atoms))))
        for c, u in g["units"].items():
            rep = u.unit_class.representative

            def query(rep=rep):
                algebra = twisted.build_twisted(G, rep)
                return len(twisted.center_basis(algebra)), twisted.wedderburn_dims(algebra).dims

            def check(res, rep=rep, c=c):
                centre, dims = res
                want = self._memo((label, "reg", c), lambda: brute.regular_class_count(
                    rep.table, rep.modulus))
                if sum(d * d for d in dims) != G.order:
                    return f"{label} class {c}: sum of squares {dims}"
                if any(G.order % d for d in dims):
                    return f"{label} class {c}: a block dimension does not divide |G|"
                if len(dims) != want or centre != want:
                    return f"{label} class {c}: {len(dims)} blocks, centre {centre}, " \
                           f"{want} regular classes"
                return None

            out.append((f"{label} twisted {c}", query, check))
        return out

    def _dataset_ops(self, datasets):
        out = []
        for kind, fname, G, args, lengths in datasets:
            if kind == "factor":
                symbol, fixed = args
                out.append((fname,
                            lambda s=symbol, f=fixed: measures.factorization_check(s, f),
                            lambda res, G=G, f=fixed: self._check_factor(G, f, res)))
            else:
                exprs, c = args
                out.append((fname,
                            lambda x=exprs, c=c: measures.blowup_check(x[0], x[1], c, x[2], x[3]),
                            lambda res, G=G, c=c, lengths=lengths:
                            self._check_blowup(G, res, c, lengths)))
        return out

    @staticmethod
    def _check_factor(G, fixed, res) -> str | None:
        if not res.ok or res.euler_side != res.skeleton_side:
            return "factorization check failed"
        V = oracles.table_values(ml.character_table(G))
        values = np.array([float(c) for c in res.euler_side]) @ V
        if not np.allclose(values, fixed, atol=1e-6):
            return "Euler character does not reproduce the fixed-locus data"
        return None

    @staticmethod
    def _check_blowup(G, res, c, lengths) -> str | None:
        if not res.ok:
            return "blow-up check failed"
        bl, e = dict(res.blowup_side), dict(res.divisor_side)
        if any(v % c for v in e.values()):
            return "[E] is not c times a class"
        y = {k: v // c for k, v in e.items()}
        x = dict(bl)
        for k, v in y.items():
            x[k] = x.get(k, 0) - (c - 1) * v
        x = {k: v for k, v in x.items() if v}
        if any(v < 0 for v in x.values()):
            return "[Bl] - (c-1)[Y] has negative multiplicities"

        def rank(cls):
            # a unit key is (0, coords); an induced key is (1, members)
            total = 0
            for (kind, data), v in cls.items():
                total += v * (1 if kind == 0 else G.order // len(data))
            return total

        if (rank(x), rank(y)) != lengths:
            return f"derived [X], [Y] have ranks {(rank(x), rank(y))}, expected {lengths}"
        return None


WORKLOADS = {w.name: w for w in (Multiplier, Chartable, Repring, Skeleton)}
