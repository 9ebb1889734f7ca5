"""Acceptance battery: every quantitative claim the package is built around,
runnable end to end from the CLI (`motivelab selftest`).

Each row prints one pass/fail line.  The same rows are exercised (with the
full-size property suites) by the pytest acceptance module.
"""

from __future__ import annotations

import time

import numpy as np

from .catalog import ActionSpec, catalog_lookup, instantiate
from .characters import (
    VirtualCharacter,
    character_table,
    idempotents,
    rank,
)
from .cocycles import (
    TwoCocycle,
    central_pairing_cocycle,
    cocycle_validate,
    is_cohomologous,
    random_cocycle,
    schur_multiplier,
    verify_witness,
)
from .errors import InvariantViolation, MotiveLabError, NotACocycle, check_invariant
from .groups import (
    FiniteGroup,
    all_subgroups,
    coset_space,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_from_permutations,
    symmetric_group,
)
from .measures import (
    K0VarExpr,
    ProductSymbol,
    VarietySymbol,
    blowup_check,
    evaluate_invariant,
    factorization_check,
    orbifold_dims,
    symbol_skeleton,
)
from .motives import (
    MotiveSkeleton,
    check_via,
    chow_skeleton,
    decompose_collection,
    hom_rank,
    induced_atom,
    localized_isomorphic,
    twisted_unit,
)
from .twisted import alpha_regular, build_twisted, center_basis, wedderburn_dims

SCHUR_TABLE = [
    *[("cyclic", (n,), ()) for n in range(2, 13)],
    ("symmetric", (3,), ()),
    ("symmetric", (4,), (2,)),
    ("symmetric", (5,), (2,)),
    ("dihedral", (6,), ()),
    ("dihedral", (8,), (2,)),
    ("dihedral", (10,), ()),
    ("dihedral", (12,), (2,)),
    ("elem_abelian", (2, 2), (2,)),
    ("elem_abelian", (2, 3), (2, 2, 2)),
    ("elem_abelian", (3, 2), (3,)),
    # A4; Q8 by left multiplication on 1, -1, i, -i, j, -j, k, -k; SL(2,3) on
    # the nonzero vectors of F_3^2; C3 x C3; the Heisenberg group of order 27
    # as the maps (x, y) -> (x + u, y + v x + w) of F_3^2; A5
    ("permutations", (4, [[1, 2, 0, 3], [1, 0, 3, 2]]), (2,)),
    ("permutations", (8, [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]), ()),
    ("permutations", (8, [[3, 7, 2, 6, 1, 5, 0, 4], [0, 1, 3, 4, 2, 7, 5, 6]]), ()),
    ("permutations", (6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]]), (3,)),
    ("permutations", (9, [[3, 4, 5, 6, 7, 8, 0, 1, 2], [0, 1, 2, 4, 5, 3, 8, 6, 7]]), (3, 3)),
    ("permutations", (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]), (2,)),
]

_CONSTRUCTORS = {
    "cyclic": cyclic_group,
    "symmetric": symmetric_group,
    "dihedral": dihedral_group,
    "elem_abelian": elementary_abelian_group,
    "permutations": group_from_permutations,
}


def _make(kind: str, params) -> FiniteGroup:
    return _CONSTRUCTORS[kind](*params)


def check_schur_table() -> None:
    t0 = time.time()
    for kind, params, expected in SCHUR_TABLE:
        G = _make(kind, params)
        M = schur_multiplier(G, max_group_order=120)
        check_invariant(M.invariant_factors == tuple(expected),
                        f"{G.label}: got {M.invariant_factors}, expected {expected}")
    elapsed = time.time() - t0
    check_invariant(elapsed < 60, f"multiplier battery took {elapsed:.1f}s (budget 60s)")


def check_representation_rings() -> None:
    for n in range(1, 13):
        G = cyclic_group(n)
        table = character_table(G)
        k = table.num_irreducibles
        check_invariant(k == n, f"C{n} has {k} irreducibles")
        found = False
        for i in range(k):
            chi = VirtualCharacter.irreducible(G, i)
            powers = [VirtualCharacter.trivial_character(G)]
            for _ in range(n - 1):
                powers.append(powers[-1].mul(chi))
            coords = sorted(tuple(p.coeffs) for p in powers)
            distinct_basis = sorted(
                tuple(VirtualCharacter.irreducible(G, j).coeffs) for j in range(k))
            if coords == distinct_basis and powers[-1].mul(chi) == powers[0]:
                found = True
                break
        check_invariant(found, f"R(C{n}) has no basis of powers of a single character")
    S3 = symmetric_group(3)
    table = character_table(S3)
    one = VirtualCharacter.trivial_character(S3)
    sgn = next(VirtualCharacter.irreducible(S3, i) for i in range(3)
               if table.degrees[i] == 1
               and VirtualCharacter.irreducible(S3, i) != one)
    psi = next(VirtualCharacter.irreducible(S3, i) for i in range(3)
               if table.degrees[i] == 2)
    check_invariant(sgn.mul(sgn) == one, "S3: sgn^2 != 1")
    check_invariant(sgn.mul(psi) == psi.mul(sgn), "S3: sgn psi != psi sgn")
    check_invariant(psi.mul(psi) == one.add(sgn).add(psi), "S3: psi^2 != 1 + sgn + psi")


def _battery_groups() -> list[FiniteGroup]:
    from .groups import product_group
    return [
        *[cyclic_group(n) for n in range(2, 13)],
        symmetric_group(3), symmetric_group(4),
        dihedral_group(6), dihedral_group(8), dihedral_group(12),
        elementary_abelian_group(2, 2), elementary_abelian_group(2, 3),
        elementary_abelian_group(3, 2),
        product_group(elementary_abelian_group(2, 2), symmetric_group(3)),
    ]


def check_unit_endomorphisms() -> None:
    for G in _battery_groups():
        M = schur_multiplier(G)
        unit = twisted_unit(M.trivial_class())
        check_invariant(hom_rank(unit, unit) == len(G.conjugacy_classes()), G.label)
        idem = idempotents(G)  # internal exact checks
        check_invariant(rank(idem.e_plus) == 1, f"{G.label}: rank(e_plus) != 1")
        check_invariant(rank(idem.e_minus) == 0, f"{G.label}: rank(e_minus) != 0")


def check_central_type() -> None:
    for base, expected_dim in ((cyclic_group(2), 2), (cyclic_group(3), 3)):
        alpha = central_pairing_cocycle(base)
        G = alpha.group
        algebra = build_twisted(G, alpha)
        reg = alpha_regular(G, alpha)
        check_invariant(reg.count == 1, f"{G.label}: {reg.count} regular classes")
        check_invariant(len(center_basis(algebra)) == 1, f"{G.label}: center is not C")
        profile = wedderburn_dims(algebra)
        check_invariant(profile.dims == (expected_dim,), f"{G.label}: blocks {profile.dims}")
        check_invariant(sum(d * d for d in profile.dims) == G.order, f"{G.label}: sum d^2")


def check_localization() -> None:
    for G in (elementary_abelian_group(2, 2), dihedral_group(8)):
        M = schur_multiplier(G)
        check_invariant(M.invariant_factors == (2,), f"{G.label}: multiplier is not Z/2")
        alpha = M.class_from_coords((1,))
        A = MotiveSkeleton(G, (twisted_unit(M.trivial_class()),
                               twisted_unit(alpha),
                               twisted_unit(alpha.power(2))))
        B = MotiveSkeleton(G, tuple(twisted_unit(M.trivial_class()) for _ in range(3)))
        check_invariant(localized_isomorphic(A, B), f"{G.label}: localizations differ")
        check_invariant(A != B, f"{G.label}: skeletons equal before localization")
    # before localization the central-type unit differs from the trivial one
    alpha = central_pairing_cocycle(cyclic_group(2))
    G = alpha.group
    M = schur_multiplier(G)
    cls = M.class_of(alpha.promote(G.order))
    simple = MotiveSkeleton(G, (twisted_unit(cls),))
    plain = MotiveSkeleton(G, (twisted_unit(M.trivial_class()),))
    check_invariant(simple != plain, "central-type unit equals the trivial unit")
    check_invariant(evaluate_invariant(simple, "K0rank") == 1, "central-type K0 rank != 1")
    check_invariant(evaluate_invariant(plain, "K0rank") == len(G.conjugacy_classes()), "K0 rank")


def golden_decompositions() -> list[tuple[str, dict]]:
    """Expected atom lists for the catalog examples, as (label, golden) pairs.

    Golden syntax: {"units": sorted class-coordinate lists,
                    "induced": sorted stabilizer member lists}."""
    E4 = elementary_abelian_group(2, 2)
    C2 = cyclic_group(2)
    C1 = cyclic_group(1)
    rows: list[tuple[str, FiniteGroup, str, tuple, ActionSpec, dict]] = []
    for n in range(1, 7):
        rows.append((f"P{n} trivial", C1, "projective_space", (n,),
                     ActionSpec.trivial(C1),
                     {"units": [[]] * (n + 1), "induced": []}))
        rows.append((f"P{n} E4 alpha", E4, "projective_space", (n,),
                     ActionSpec(E4, line_class=(1,)),
                     {"units": sorted([[i % 2] for i in range(n + 1)]),
                      "induced": []}))
    for d in (1, 3, 5):
        rows.append((f"Q{d} odd E4", E4, "quadric_odd", (d,),
                     ActionSpec(E4, line_class=(1,), special_classes=((1,),)),
                     {"units": sorted([[1]] + [[i % 2] for i in range(d)]),
                      "induced": []}))
    for d in (2, 4):
        rows.append((f"Q{d} even invariant E4", E4, "quadric_even", (d,),
                     ActionSpec(E4, line_class=(1,),
                                special_classes=((1,), (0,))),
                     {"units": sorted([[1], [0]] + [[i % 2] for i in range(d)]),
                      "induced": []}))
        rows.append((f"Q{d} even swapped C2", C2, "quadric_even", (d,),
                     ActionSpec.swap_pair(C2, (0,)),
                     {"units": [[]] * d, "induced": [[0]]}))
    rows.append(("Gr(2,4) E4 alpha", E4, "grassmannian", (2, 4),
                 ActionSpec(E4, line_class=(1,)),
                 {"units": sorted([[r % 2] for r in (0, 1, 2, 2, 3, 4)]),
                  "induced": []}))
    rows.append(("del Pezzo invariant E4", E4, "del_pezzo_bl2", (),
                 ActionSpec(E4, line_class=(1,), special_classes=((1,), (1,))),
                 {"units": sorted([[1], [1], [0], [1], [0]]), "induced": []}))
    rows.append(("del Pezzo swapped C2", C2, "del_pezzo_bl2", (),
                 ActionSpec.swap_pair(C2, (0,)),
                 {"units": [[]] * 3, "induced": [[0]]}))
    out = []
    for label, G, name, params, action, golden in rows:
        skel = decompose_collection(instantiate(catalog_lookup(name, params), action))
        got = {
            "units": sorted(list(a.unit_class.coords) for a in skel.atoms
                            if a.kind == "unit"),
            "induced": sorted(list(a.stabilizer.members) for a in skel.atoms
                              if a.kind == "induced"),
        }
        out.append((label, {"got": got, "want": golden}))
    return out


def check_decompositions() -> None:
    for label, pair in golden_decompositions():
        check_invariant(pair["got"] == pair["want"], f"{label}: {pair['got']} != {pair['want']}")


def check_chow() -> None:
    entries = [catalog_lookup("point"), catalog_lookup("disjoint_points", (2,)),
               catalog_lookup("del_pezzo_bl2")]
    entries += [catalog_lookup("projective_space", (n,)) for n in range(1, 7)]
    entries += [catalog_lookup("quadric_odd", (d,)) for d in (1, 3, 5)]
    entries += [catalog_lookup("quadric_even", (d,)) for d in (2, 4)]
    entries += [catalog_lookup("grassmannian", (2, 4))]
    for entry in entries:
        via = check_via(entry)
        check_invariant(via.ok, f"{entry.label()}: {via.problems}")
        chow_skeleton(entry)
    p1 = chow_skeleton(catalog_lookup("projective_space", (1,)))
    pts = chow_skeleton(catalog_lookup("disjoint_points", (2,)))
    check_invariant(p1.exponents == (0, 1) and pts.exponents == (0, 0), "Lefschetz exponents")
    check_invariant(p1 != pts, "P1 and two points share a Chow skeleton")
    # same group action, same skeletal motive:
    C1 = cyclic_group(1)
    a = symbol_skeleton(VarietySymbol(catalog_lookup("projective_space", (1,)),
                                      ActionSpec.trivial(C1)))
    b = symbol_skeleton(VarietySymbol(catalog_lookup("disjoint_points", (2,)),
                                      ActionSpec.trivial(C1)))
    check_invariant(a == b, "P1 and two points differ as symbols of one action")


def _blowup_data():
    C2 = cyclic_group(2)
    pts = VarietySymbol(catalog_lookup("disjoint_points", (2,)),
                        ActionSpec(C2, point_orbits=((0,),)))
    p1 = VarietySymbol(catalog_lookup("projective_space", (1,)),
                       ActionSpec.trivial(C2))
    p2 = VarietySymbol(catalog_lookup("projective_space", (2,)),
                       ActionSpec.trivial(C2))
    dp = VarietySymbol(catalog_lookup("del_pezzo_bl2"),
                       ActionSpec.swap_pair(C2, (0,)))
    pt = VarietySymbol(catalog_lookup("point"), ActionSpec.trivial(C2))
    return C2, pts, p1, p2, dp, pt


def check_blowups() -> None:
    _, pts, p1, p2, dp, pt = _blowup_data()
    bc = blowup_check(K0VarExpr.of(p2), K0VarExpr.of(pts), 2,
                      K0VarExpr.of(dp), K0VarExpr.of(ProductSymbol(pts, p1)))
    check_invariant(bc.ok, f"{bc.messages}")
    bc2 = blowup_check(K0VarExpr.of(p2), K0VarExpr.of(pt), 2,
                       K0VarExpr.of(p2).add(K0VarExpr.of(pt)), K0VarExpr.of(p1))
    check_invariant(bc2.ok, f"{bc2.messages}")


def check_factorization() -> None:
    C2, pts, p1, p2, _, _ = _blowup_data()
    for symbol, fixed in ((pts, [2, 0]), (p1, [2, 2]), (p2, [3, 3])):
        fc = factorization_check(symbol, fixed)
        check_invariant(fc.ok, f"{symbol.label()}: {fc.euler_side} != {fc.skeleton_side}")
    hp = evaluate_invariant(symbol_skeleton(p1), "HP")
    check_invariant(hp == orbifold_dims(C2, [(2, 0), (2, 0)]), f"HP of P1 is {hp}")


def property_suites(cases: int = 200, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    groups = [cyclic_group(4), symmetric_group(3), elementary_abelian_group(2, 2),
              dihedral_group(8)]
    multipliers = {G.label: schur_multiplier(G) for G in groups}
    per_group = max(1, cases // len(groups))

    for G in groups:
        n = G.order
        M = multipliers[G.label]
        for _ in range(per_group):
            alpha = random_cocycle(G, n, rng)
            # cocycle identity <-> associativity of the twisted product
            algebra = build_twisted(G, alpha)
            # corrupting one entry must break the identity
            table = alpha.table.tolist()
            i, j = (int(rng.integers(1, n)) for _ in range(2))
            table[i][j] = (table[i][j] + 1 + int(rng.integers(0, n - 1))) % n
            if n > 1:
                check_invariant(not cocycle_validate(G, n, table).ok, f"{G.label}: broken cocycle")
                try:
                    TwoCocycle(G, n, table)
                    raise InvariantViolation(f"{G.label}: broken cocycle constructed")
                except NotACocycle:
                    pass
            # class_of respects coboundary equivalence
            beta = random_cocycle(G, n, rng)
            same_class = M.class_of(alpha) == M.class_of(beta)
            witness = is_cohomologous(alpha, beta)
            check_invariant(same_class == (witness is not None) and (
                witness is None or verify_witness(alpha, beta, witness)), f"{G.label}: class_of")
            # center dimension = regular class count (exact both sides)
            reg = alpha_regular(G, alpha)
            check_invariant(len(center_basis(algebra)) == reg.count, f"{G.label}: center")
        character_table(G).verify_orthogonality()

    # induced/induced hom ranks against the orbit-stabilizer oracle
    for G in (symmetric_group(3), dihedral_group(8), elementary_abelian_group(2, 2)):
        subs = all_subgroups(G)
        for H1 in subs:
            for H2 in subs:
                if H1.is_whole_group() or H2.is_whole_group():
                    continue
                got = hom_rank(induced_atom(H1), induced_atom(H2))
                check_invariant(got == _induced_oracle(G, H1, H2),
                                f"{G.label}: hom rank of {H1.members}, {H2.members}")


def _induced_oracle(G, H1, H2) -> int:
    """Brute force: orbits of H1 on G/H2, stabilizers, class counts."""
    space = coset_space(G, H2)
    seen = set()
    total = 0
    for i in range(space.size):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for h in H1.members:
                y = space.action[h][x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        stab_members = [h for h in H1.members if space.action[h][i] == i]
        sub, _ = G.subgroup(stab_members).as_group()
        total += len(sub.conjugacy_classes())
    return total


ROWS = [
    ("1 multiplier table", check_schur_table),
    ("2 representation rings", check_representation_rings),
    ("3 unit endomorphisms + idempotents", check_unit_endomorphisms),
    ("4 central type blocks", check_central_type),
    ("5 localization collapse", check_localization),
    ("6 collection decompositions", check_decompositions),
    ("7 Lefschetz shadows", check_chow),
    ("8 blow-up relations", check_blowups),
    ("9 Euler factorization", check_factorization),
]


def run(fast: bool = False, verbose: bool = True) -> tuple[list[str], dict[str, float]]:
    """The names of the failed rows, and every row's seconds."""
    failures = []
    seconds = {}
    rows = list(ROWS)
    if not fast:
        rows.append(("10 property suites", lambda: property_suites(cases=40)))
    for name, fn in rows:
        t0 = time.perf_counter()
        try:
            fn()
        except MotiveLabError as exc:
            failures.append(name)
            if verbose:
                print(f"FAIL {name}: {exc}")
        else:
            if verbose:
                print(f"PASS {name} ({time.perf_counter() - t0:.1f}s)")
        seconds[name] = time.perf_counter() - t0
    return failures, seconds
