import numpy as np
import pytest

from motivelab.catalog import ActionSpec, catalog_lookup, instantiate
from motivelab.cocycles import central_pairing_cocycle, schur_multiplier
from motivelab.errors import (
    LengthMismatch,
    NonTrivialStabilizerH2,
    OddCohomology,
    StabilizerIndexMismatch,
    UnsupportedAtom,
)
from motivelab.groups import (
    Subgroup,
    all_subgroups,
    coset_space,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_from_permutations,
    product_group,
    symmetric_group,
)
from motivelab.motives import (
    Block,
    ChowSkeleton,
    CollectionSpec,
    MotiveSkeleton,
    _induced_pair_rank,
    check_via,
    chow_skeleton,
    decompose_collection,
    hom_rank,
    induced_atom,
    localized_isomorphic,
    restrict_skeleton,
    skeleton_hom_rank,
    tensor_skeletons,
    twisted_unit,
)
from mackey_oracle import double_coset_pair_rank


def _unit(G, coords=None):
    M = schur_multiplier(G)
    return twisted_unit(M.class_from_coords(coords) if coords else M.trivial_class())


def test_decompose_projective_trivial():
    C1 = cyclic_group(1)
    spec = instantiate(catalog_lookup("projective_space", (4,)), ActionSpec.trivial(C1))
    skel = decompose_collection(spec)
    assert skel.size == 5
    assert all(a.kind == "unit" and a.unit_class.is_trivial() for a in skel.atoms)


def test_decompose_even_quadric_swapped():
    C2 = cyclic_group(2)
    spec = instantiate(catalog_lookup("quadric_even", (2,)),
                       ActionSpec.swap_pair(C2, (0,)))
    skel = decompose_collection(spec)
    kinds = sorted(a.kind for a in skel.atoms)
    assert kinds == ["induced", "unit", "unit"]


def test_decompose_del_pezzo_swapped():
    C2 = cyclic_group(2)
    spec = instantiate(catalog_lookup("del_pezzo_bl2"), ActionSpec.swap_pair(C2, (0,)))
    skel = decompose_collection(spec)
    assert sorted(a.kind for a in skel.atoms) == ["induced", "unit", "unit", "unit"]
    assert restrict_skeleton(skel) == 5


def test_block_length_mismatch():
    G = cyclic_group(2)
    spec = CollectionSpec(G, (Block(3, G.trivial_subgroup()),))
    with pytest.raises(StabilizerIndexMismatch):
        decompose_collection(spec)


def test_nontrivial_stabilizer_h2_reported():
    # E4 inside E8 has multiplier C2: the permutation hypothesis fails
    G = elementary_abelian_group(2, 3)
    H = G.subgroup([0, 1, 2, 3])
    spec = CollectionSpec(G, (Block(2, H),))
    with pytest.raises(NonTrivialStabilizerH2):
        decompose_collection(spec)


def test_induced_full_subgroup_normalizes_to_unit():
    G = cyclic_group(2)
    atom = induced_atom(G.full_subgroup())
    assert atom.kind == "unit" and atom.unit_class.is_trivial()


def test_induced_canonicalizes_conjugates():
    G = symmetric_group(3)
    transpositions = G.conjugacy_classes()[2].members
    atoms = {induced_atom(G.generated_subgroup([t])) for t in transpositions}
    assert len(atoms) == 1


def test_hom_rank_endomorphisms():
    for G in (symmetric_group(3), dihedral_group(8), elementary_abelian_group(2, 2)):
        u = _unit(G)
        assert hom_rank(u, u) == len(G.conjugacy_classes())
        # any twist: alpha alpha^-1 is trivial, so End has the same rank
        M = schur_multiplier(G)
        if M.invariant_factors:
            tw = twisted_unit(M.class_from_coords((1,) + (0,) * (len(M.invariant_factors) - 1)))
            assert hom_rank(tw, tw) == len(G.conjugacy_classes())


def test_hom_rank_central_twist():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    u1 = twisted_unit(M.trivial_class())
    ua = twisted_unit(M.class_from_coords((1,)))
    assert hom_rank(u1, ua) == 1
    assert hom_rank(ua, u1) == 1


def test_hom_rank_symmetry_property():
    rng = np.random.default_rng(0)
    for G in (elementary_abelian_group(2, 2), dihedral_group(8),
              elementary_abelian_group(2, 3)):
        M = schur_multiplier(G)
        import itertools
        coords = list(itertools.product(*(range(d) for d in M.invariant_factors)))
        for ca in coords:
            for cb in coords:
                a, b = twisted_unit(M.class_from_coords(ca)), \
                    twisted_unit(M.class_from_coords(cb))
                assert hom_rank(a, b) == hom_rank(b, a)
                assert hom_rank(a, a) >= 1


def test_hom_rank_induced_to_unit():
    G = symmetric_group(3)
    threecycle = G.conjugacy_classes()[1].representative
    H = G.generated_subgroup([threecycle])
    assert hom_rank(induced_atom(H), _unit(G)) == 3
    assert hom_rank(_unit(G), induced_atom(H)) == 3


def test_hom_rank_induced_pair_oracle():
    """Double-coset formula against brute-force orbit enumeration, whose
    stabilizers are counted as groups of their own."""
    for G, step in ((symmetric_group(3), 1), (dihedral_group(8), 1),
                    (elementary_abelian_group(2, 2), 1), (symmetric_group(4), 3),
                    (dihedral_group(12), 3), (product_group(symmetric_group(3), cyclic_group(4)), 3)):
        subs = [H for H in all_subgroups(G) if not H.is_whole_group()][::step]
        for H1 in subs:
            for H2 in subs:
                got = hom_rank(induced_atom(H1), induced_atom(H2))
                assert got == _oracle(G, H1, H2), (G.label, H1.members, H2.members)


@pytest.mark.parametrize("make", [
    lambda: symmetric_group(4),
    lambda: dihedral_group(24),
    lambda: product_group(symmetric_group(3), symmetric_group(3)),
    lambda: product_group(cyclic_group(4), cyclic_group(4)),
    lambda: group_from_permutations(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
], ids=["S4", "D24", "S3xS3", "C4xC4", "A5"])
def test_induced_pair_rank_matches_the_double_coset_loop(make):
    """The transversal contraction equals the double-coset loop on every
    ordered pair of subgroups, the whole group included; hom ranks between
    induced atoms are symmetric."""
    G = make()
    subs = all_subgroups(G)
    for H1 in subs:
        for H2 in subs:
            assert _induced_pair_rank(G, H1, H2) == double_coset_pair_rank(G, H1, H2), \
                (H1.members, H2.members)
    atoms = [induced_atom(H) for H in subs if not H.is_whole_group()]
    for a in atoms:
        for b in atoms:
            assert hom_rank(a, b) == hom_rank(b, a)


def _oracle(G, H1, H2):
    space = coset_space(G, H2)
    seen, total = set(), 0
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
        stab = [h for h in H1.members if space.action[h][i] == i]
        sub, _ = G.subgroup(stab).as_group()
        total += len(sub.conjugacy_classes())
    return total


def test_skeleton_hom_rank_bilinear():
    G = symmetric_group(3)
    u = _unit(G)
    for n in (1, 2, 3):
        A = MotiveSkeleton(G, (u,) * n)
        assert skeleton_hom_rank(A, A) == n * n * 3


def test_skeleton_hom_rank_p1_c2():
    C2 = cyclic_group(2)
    spec = instantiate(catalog_lookup("projective_space", (1,)), ActionSpec.trivial(C2))
    skel = decompose_collection(spec)
    assert skeleton_hom_rank(skel, skel) == 4 * 2


def test_skeleton_hom_rank_empty():
    G = cyclic_group(2)
    empty = MotiveSkeleton(G, ())
    other = MotiveSkeleton(G, (_unit(G),))
    assert skeleton_hom_rank(empty, other) == 0


def test_restrict_skeleton():
    G = cyclic_group(2)
    assert restrict_skeleton(MotiveSkeleton(G, (_unit(G),) * 3)) == 3
    H = G.trivial_subgroup()
    assert restrict_skeleton(MotiveSkeleton(G, (induced_atom(H),))) == 2


def test_restriction_matches_collection_length():
    C2 = cyclic_group(2)
    for name, params, action in [
        ("projective_space", (3,), ActionSpec.trivial(C2)),
        ("quadric_even", (4,), ActionSpec.swap_pair(C2, (0,))),
        ("del_pezzo_bl2", (), ActionSpec.swap_pair(C2, (0,))),
        ("disjoint_points", (2,), ActionSpec(C2, point_orbits=((0,),))),
    ]:
        entry = catalog_lookup(name, params)
        spec = instantiate(entry, action)
        skel = decompose_collection(spec)
        assert restrict_skeleton(skel) == spec.total_length == entry.collection_length


def test_localized_isomorphic():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    a = M.class_from_coords((1,))
    A = MotiveSkeleton(G, (twisted_unit(M.trivial_class()), twisted_unit(a),
                           twisted_unit(a.power(2))))
    B = MotiveSkeleton(G, (twisted_unit(M.trivial_class()),) * 3)
    assert localized_isomorphic(A, B)
    assert not localized_isomorphic(A, MotiveSkeleton(G, (twisted_unit(a),) * 2))
    assert localized_isomorphic(A, A)
    assert A != B  # rank-preserving but not an equality before localization


def test_localized_rejects_induced():
    G = cyclic_group(2)
    A = MotiveSkeleton(G, (induced_atom(G.trivial_subgroup()),))
    with pytest.raises(UnsupportedAtom):
        localized_isomorphic(A, A)


def test_tensor_unit_rules():
    G = elementary_abelian_group(2, 2)
    M = schur_multiplier(G)
    a = twisted_unit(M.class_from_coords((1,)))
    A = MotiveSkeleton(G, (a,))
    B = tensor_skeletons(A, A)
    assert B.size == 1 and B.atoms[0].unit_class.is_trivial()


def test_chow_skeleton_examples():
    assert chow_skeleton(catalog_lookup("projective_space", (3,))).exponents == (0, 1, 2, 3)
    assert chow_skeleton(catalog_lookup("del_pezzo_bl2")).exponents == (0, 1, 1, 1, 2)
    p1 = chow_skeleton(catalog_lookup("projective_space", (1,)))
    pts = chow_skeleton(catalog_lookup("disjoint_points", (2,)))
    assert p1.exponents == (0, 1) and pts.exponents == (0, 0)
    assert p1 != pts


def test_check_via_catches_bad_entries():
    class FakeEntry:
        betti_numbers = (1, 1, 1)
        collection_length = 3
    via = check_via(FakeEntry)
    assert not via.ok
    with pytest.raises(OddCohomology):
        chow_skeleton(FakeEntry)

    class ShortEntry:
        betti_numbers = (1, 0, 1)
        collection_length = 3
    with pytest.raises(LengthMismatch):
        chow_skeleton(ShortEntry)


def test_nc_skeletons_coincide_where_chow_differs():
    """Two points and the line have equal skeletal motives but distinct
    Lefschetz shadows."""
    for G in (cyclic_group(1), cyclic_group(3)):
        a = decompose_collection(instantiate(
            catalog_lookup("projective_space", (1,)), ActionSpec.trivial(G)))
        b = decompose_collection(instantiate(
            catalog_lookup("disjoint_points", (2,)), ActionSpec.trivial(G)))
        assert a == b
    assert chow_skeleton(catalog_lookup("projective_space", (1,))) != \
        chow_skeleton(catalog_lookup("disjoint_points", (2,)))


def test_possibly_isomorphic_atoms():
    from motivelab.motives import possibly_isomorphic_atoms
    G = elementary_abelian_group(2, 3)
    M = schur_multiplier(G)
    a = twisted_unit(M.class_from_coords((1, 0, 0)))
    b = twisted_unit(M.class_from_coords((0, 1, 0)))
    # hom(a, a) = 8 class count while hom(b, a) = 2: profiles separate them,
    # so nothing is flagged even though the classes differ only by relabeling
    skel = MotiveSkeleton(G, (a, b))
    assert hom_rank(a, a) == 8 and hom_rank(b, a) == 2
    assert possibly_isomorphic_atoms(skel) == []
    skel2 = MotiveSkeleton(G, (twisted_unit(M.trivial_class()), a))
    assert possibly_isomorphic_atoms(skel2) == []
    # equal atoms are never reported (they are literally equal, not "possibly")
    skel3 = MotiveSkeleton(G, (a, a))
    assert possibly_isomorphic_atoms(skel3) == []
