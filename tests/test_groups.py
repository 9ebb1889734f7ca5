import hashlib
import itertools

import numpy as np
import pytest

from motivelab.errors import (
    BadGroupSpec,
    NoIdentity,
    NonAssociative,
    NotASubgroup,
    NotClosed,
    OrderBound,
)
from motivelab.groups import (
    Subgroup,
    abelianization,
    all_subgroups,
    construct_group,
    coset_space,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    group_from_cayley,
    group_from_permutations,
    product_group,
    symmetric_group,
)
from test_cocycles import _LITERATURE, _WORKLOAD_GROUPS


def brute_classes(G):
    """Independent conjugation-orbit enumeration (plain loops)."""
    seen = set()
    out = []
    for g in G.elements():
        if g in seen:
            continue
        orbit = set()
        for h in G.elements():
            orbit.add(G.mul(G.mul(h, g), G.inv(h)))
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return sorted(out, key=lambda c: (len(c), c[0]))


def test_cyclic_trivial():
    G = cyclic_group(1)
    assert G.order == 1
    assert len(G.conjugacy_classes()) == 1


def _symmetric_table_by_loops(n):
    """The Cayley table of S_n on lexicographically sorted permutations,
    composed one pair at a time: (p q)(x) = p[q[x]]."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[x]] for x in range(n))] for q in perms]
                     for p in perms], dtype=np.int32)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_table_matches_loops(n):
    assert np.array_equal(symmetric_group(n).cayley, _symmetric_table_by_loops(n))


def test_symmetric_6_table_hash():
    G = symmetric_group(6)
    assert G.cayley.dtype == np.int32
    assert hashlib.sha256(G.cayley.tobytes()).hexdigest() == \
        "9a5043d70bf02b9fa8f2fbf31246b273b5d4a3703fc625cf8cf6b94536a8b9c6"
    assert G.generating_set() == (120, 153)


def _permutation_group_by_loops(degree, gens):
    """Closure of gens under x -> g x, then the table on the sorted elements
    composed one pair at a time, and the generators' numbers."""
    gens = [tuple(g) for g in gens]
    elems, frontier = {tuple(range(degree))}, [tuple(range(degree))]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[x[i]] for i in range(degree))
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    perms = sorted(elems)
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[tuple(p[q[x]] for x in range(degree))] for q in perms]
                      for p in perms], dtype=np.int32)
    return table, tuple(index[g] for g in gens)


_SHIFT16 = list(range(1, 16)) + [0]
_FLIP16 = list(range(15, -1, -1))


@pytest.mark.parametrize("degree,gens", [
    (1, []), (2, [[1, 0]]), (3, [[1, 2, 0]]), (4, [[1, 2, 0, 3], [1, 0, 3, 2]]),
    (5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
    (8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
    (6, [[1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4], [2, 3, 4, 5, 0, 1]]),
    (16, [_SHIFT16, _FLIP16]), (16, [_FLIP16, [1, 0] + list(range(2, 16))]),
], ids=lambda v: str(v) if isinstance(v, int) else None)
def test_permutation_table_matches_loops(degree, gens):
    G = group_from_permutations(degree, gens)
    table, gen_idx = _permutation_group_by_loops(degree, gens)
    assert np.array_equal(G.cayley, table)
    assert G.label == f"P{len(table)}" and G._seed_gens() == gen_idx


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_group_is_a_permutation_group(n):
    transposition, cycle = [1, 0] + list(range(2, n)), list(range(1, n)) + [0]
    gens = [transposition, cycle][:n - 1]           # S1 has none, S2 only (0 1)
    P, G = group_from_permutations(n, gens), symmetric_group(n)
    assert np.array_equal(G.cayley, P.cayley) and G.label == f"S{n}"
    assert G._seed_gens() == P._seed_gens()


def test_symmetric_3():
    G = symmetric_group(3)
    assert G.order == 6
    assert len(G.conjugacy_classes()) == 3
    sizes = sorted(c.size for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_elementary_abelian():
    G = elementary_abelian_group(2, 2)
    assert G.order == 4
    assert len(G.conjugacy_classes()) == 4


def test_conjugacy_against_brute_force():
    for G in (symmetric_group(3), dihedral_group(8), symmetric_group(4),
              product_group(cyclic_group(2), symmetric_group(3))):
        got = sorted((c.members for c in G.conjugacy_classes()),
                     key=lambda c: (len(c), c[0]))
        assert got == brute_classes(G)


def loop_orders(G):
    """The order of each element by repeated multiplication, one at a time."""
    orders = []
    for g in G.elements():
        k, x = 1, g
        while x != 0:
            x = G.mul(x, g)
            k += 1
        orders.append(k)
    return orders


_ORDER_GROUPS = {
    "Q8": lambda: group_from_permutations(8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
    "S6": lambda: symmetric_group(6),
    "D64": lambda: dihedral_group(64),
    "C96": lambda: cyclic_group(96),
    "E32": lambda: elementary_abelian_group(2, 5),
    "A5": lambda: group_from_permutations(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]),
    "C1": lambda: cyclic_group(1),
}


@pytest.mark.parametrize("name", list(_ORDER_GROUPS))
def test_element_orders_match_the_multiplication_loop(name):
    G = _ORDER_GROUPS[name]()
    orders = G.element_orders()
    assert orders.dtype == np.int64 and not orders.flags.writeable
    assert orders.tolist() == loop_orders(G)


@pytest.mark.parametrize("name", list(_ORDER_GROUPS))
def test_class_representatives_are_cached_and_read_only(name):
    G = _ORDER_GROUPS[name]()
    reps = G.class_representatives()
    assert reps is G.class_representatives()
    assert reps.dtype == np.int64 and not reps.flags.writeable
    assert reps.tolist() == [c.representative for c in G.conjugacy_classes()]
    assert G.class_index()[reps].tolist() == list(range(len(reps)))


def test_cyclic_4_singleton_classes():
    G = cyclic_group(4)
    assert [c.members for c in G.conjugacy_classes()] == [(0,), (1,), (2,), (3,)]


def test_dihedral_8_class_sizes():
    G = dihedral_group(8)
    assert sorted(c.size for c in G.conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_class_partition_and_size_divisibility():
    for G in (symmetric_group(4), dihedral_group(12), cyclic_group(9)):
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order
        assert all(G.order % c.size == 0 for c in classes)
        assert classes[0].members == (0,)


def test_centralizer_identity_and_abelian():
    G = symmetric_group(3)
    assert G.centralizer(0).order == 6
    A = cyclic_group(8)
    for g in A.elements():
        assert A.centralizer(g).order == 8


def test_centralizer_brute_force():
    G = symmetric_group(3)
    transposition = G.conjugacy_classes()[2].representative
    cent = G.centralizer(transposition)
    brute = tuple(sorted(h for h in G.elements()
                         if G.mul(h, transposition) == G.mul(transposition, h)))
    assert cent.members == brute
    assert cent.order == 2


def test_orbit_stabilizer_law():
    for G in (symmetric_group(4), dihedral_group(8)):
        for g in G.elements():
            cls = G.conjugacy_classes()[G.class_index_of(g)]
            assert cls.size * G.centralizer(g).order == G.order


def test_coset_space_full_subgroup():
    G = symmetric_group(3)
    space = coset_space(G, G.full_subgroup())
    assert space.size == 1
    assert all(perm == (0,) for perm in space.action)


def test_coset_space_s3_transposition():
    G = symmetric_group(3)
    t = G.conjugacy_classes()[2].representative
    H = G.generated_subgroup([t])
    space = coset_space(G, H)
    assert space.size == 3
    # the action must be the natural S3 on three points: transitive and faithful
    reachable = {0}
    for g in G.elements():
        reachable.add(space.action[g][0])
    assert reachable == {0, 1, 2}
    assert len(set(space.action)) == 6


def test_coset_space_c4():
    G = cyclic_group(4)
    H = G.subgroup([0, 2])
    space = coset_space(G, H)
    assert space.size == 2
    assert space.action[1] == (1, 0)
    assert space.action[2] == (0, 1)


def test_abelianization_s3():
    ab = abelianization(symmetric_group(3))
    assert ab.invariant_factors == (2,)


def test_abelianization_e4_and_cyclic():
    assert abelianization(elementary_abelian_group(2, 2)).invariant_factors == (2, 2)
    for n in (2, 5, 12):
        assert abelianization(cyclic_group(n)).invariant_factors == (n,)


def test_abelianization_projection_is_homomorphism():
    for G in (symmetric_group(4), dihedral_group(12),
              product_group(cyclic_group(4), cyclic_group(2))):
        ab = abelianization(G)
        factors = ab.invariant_factors
        for g in G.elements():
            for h in G.elements():
                combined = tuple((x + y) % d for x, y, d in
                                 zip(ab.projection[g], ab.projection[h], factors))
                assert combined == ab.projection[G.mul(g, h)]


def test_abelianization_kills_commutators():
    for G in (symmetric_group(4), dihedral_group(8)):
        ab = abelianization(G)
        zero = tuple(0 for _ in ab.invariant_factors)
        for g in G.elements():
            for h in G.elements():
                assert ab.projection[G.commutator(g, h)] == zero


def test_construct_group_specs():
    assert construct_group({"kind": "cyclic", "n": 4}).order == 4
    assert construct_group({"kind": "symmetric", "n": 3}).order == 6
    assert construct_group({"kind": "dihedral", "order": 8}).order == 8
    assert construct_group({"kind": "elem_abelian", "p": 2, "k": 2}).order == 4
    G = construct_group({"kind": "product",
                         "a": {"kind": "cyclic", "n": 2},
                         "b": {"kind": "cyclic", "n": 3}})
    assert G.order == 6 and G.is_abelian()


def test_construct_group_shorthand():
    assert construct_group("cyclic:4").order == 4
    assert construct_group("symmetric:3").order == 6
    assert construct_group("dihedral:8").order == 8
    assert construct_group("elem_abelian:2,2").order == 4
    for bad in ("nonsense:1", "cyclic", "cyclic:x", "elem_abelian:2"):
        with pytest.raises(BadGroupSpec):
            construct_group(bad)


def test_cayley_input_validation():
    with pytest.raises(NoIdentity):
        group_from_cayley([[0, 0], [0, 0]])
    with pytest.raises(NotClosed):
        group_from_cayley([[0, 1], [1, 5]])
    # Klein table with broken associativity
    with pytest.raises((NonAssociative, NotClosed)):
        group_from_cayley([[0, 1, 2, 3],
                           [1, 0, 3, 2],
                           [2, 3, 0, 1],
                           [3, 2, 1, 2]])


def test_cayley_identity_relabeling():
    # identity at position 1; constructor must renumber it to 0
    G = group_from_cayley([[1, 0], [0, 1]])
    assert G.order == 2 and G.mul(1, 1) == 0


def test_perm_gens():
    G = group_from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert len(G.conjugacy_classes()) == 3
    with pytest.raises(NotClosed):
        group_from_permutations(3, [[0, 0, 2]])


def test_order_bound(monkeypatch):
    monkeypatch.setenv("MOTIVELAB_MAX_ORDER", "10")
    with pytest.raises(OrderBound):
        cyclic_group(11)
    monkeypatch.delenv("MOTIVELAB_MAX_ORDER")
    assert cyclic_group(11).order == 11


def test_subgroup_validation():
    G = symmetric_group(3)
    with pytest.raises(NotASubgroup):
        Subgroup(G, (1, 2))  # missing identity
    with pytest.raises(NotASubgroup):
        G.subgroup([0, 3])  # not closed: 3*3 = ?


def test_subgroup_out_of_range_member():
    with pytest.raises(NotASubgroup, match="element 5 .* order 2"):
        Subgroup(cyclic_group(2), (0, 5))
    with pytest.raises(NotASubgroup, match="element -1"):
        Subgroup(cyclic_group(2), (0, -1))


def test_all_subgroups_counts():
    assert len(all_subgroups(symmetric_group(3))) == 6
    assert len(all_subgroups(dihedral_group(8))) == 10
    assert len(all_subgroups(elementary_abelian_group(2, 2))) == 5


def test_generating_sets_generate():
    for G in (symmetric_group(4), dihedral_group(12), cyclic_group(9),
              elementary_abelian_group(3, 2)):
        gens = G.generating_set()
        assert G.generated_subgroup(gens).order == G.order


_GENERATING_BATTERY = {**{name: make for name, (make, _) in _LITERATURE.items()},
                       **{f"workload-{name}": make for name, make in _WORKLOAD_GROUPS.items()},
                       "C3xC4": lambda: product_group(cyclic_group(3), cyclic_group(4)),
                       "S3xS4": lambda: product_group(symmetric_group(3), symmetric_group(4))}


def _brute_generated(G, gens):
    """The subgroup generated by gens, by multiplying until nothing is new."""
    out = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = G.mul(s, x)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


@pytest.mark.parametrize("name", list(_GENERATING_BATTERY))
def test_generating_set_is_short_deterministic_and_generates(name):
    """The searched set generates G, is no longer than the constructor's
    (or greedy) set, and is the same on a second, fresh build."""
    make = _GENERATING_BATTERY[name]
    G = make()
    gens = G.generating_set()
    assert len(_brute_generated(G, gens)) == G.order
    assert len(gens) <= len(G._seed_gens())
    assert len(set(gens)) == len(gens) and 0 not in gens
    assert make().generating_set() == gens


def test_generating_set_shortens_products():
    a4 = group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])
    expected = {
        "E4xA4": (product_group(elementary_abelian_group(2, 2), a4), 4, 2),
        "S4xC2": (product_group(symmetric_group(4), cyclic_group(2)), 3, 2),
        "D12xS3": (product_group(dihedral_group(12), symmetric_group(3)), 4, 3),
        "C3xC4": (product_group(cyclic_group(3), cyclic_group(4)), 2, 1),
        "S3xS4": (product_group(symmetric_group(3), symmetric_group(4)), 4, 2),
    }
    for name, (G, before, after) in expected.items():
        assert (len(G._seed_gens()), len(G.generating_set())) == (before, after), name
    C12 = expected["C3xC4"][0]
    assert C12.element_order(C12.generating_set()[0]) == 12


def test_generating_set_keeps_constructor_sets():
    """Constructor sets that cannot shrink stay as given: S_n, D_n, C_n,
    the permutation groups, and D8 x C2, whose abelianization is C2^3."""
    groups = [symmetric_group(n) for n in range(1, 7)]
    groups += [dihedral_group(2 * n) for n in (1, 2, 3, 4, 12, 32)]
    groups += [cyclic_group(n) for n in (1, 2, 7, 12)]
    groups += [elementary_abelian_group(2, 5)]
    groups += [make() for name, (make, _) in _LITERATURE.items()
               if name in ("A4", "A5", "Q8", "SL(2,3)", "C3xC3", "Heisenberg27", "A6")]
    groups += [product_group(dihedral_group(8), cyclic_group(2))]
    for G in groups:
        assert G.generating_set() == G._seed_gens() == G._gens, G.label


def test_generating_set_search_is_cheap_where_nothing_shrinks():
    """D8 x C2 tries 32 random pairs and keeps its three generators, in at
    most a few milliseconds (best of three fresh builds)."""
    import time
    best = float("inf")
    for _ in range(3):
        G = product_group(dihedral_group(8), cyclic_group(2))
        G.element_orders()
        t0 = time.perf_counter()
        assert len(G.generating_set()) == 3
        best = min(best, time.perf_counter() - t0)
    assert best < 0.02


def test_generating_set_is_chosen_before_the_word_tree():
    """abelianization and the word tree, called first, see the short set."""
    a4 = group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])
    G = product_group(elementary_abelian_group(2, 2), a4)
    abelianization(G)
    parent, _ = G.word_tree()
    assert len(G.generating_set()) == 2
    assert {edge[0] for edge in parent[1:]} == {0, 1}


def test_abelianization_mixed_primes():
    G = product_group(cyclic_group(6), cyclic_group(6))
    ab = abelianization(G)
    assert ab.invariant_factors == (6, 6)
    for g in (1, 7, 13):
        for h in (2, 5, 11):
            combined = tuple((x + y) % d for x, y, d in
                             zip(ab.projection[g], ab.projection[h],
                                 ab.invariant_factors))
            assert combined == ab.projection[G.mul(g, h)]


def _a4():
    return group_from_permutations(4, [[1, 2, 0, 3], [1, 0, 3, 2]])


def _c(*ns):
    G = cyclic_group(ns[0])
    for n in ns[1:]:
        G = product_group(G, cyclic_group(n))
    return G


# invariant factors of G^ab: every literature group, the benchmark
# workloads' groups and a few abelian groups with mixed or deep primes
_LITERATURE_ABELIANIZATIONS = {
    "A4": (3,), "S4": (2,), "A5": (), "S5": (2,), "D48": (2, 2), "S3": (2,),
    "C12": (12,), "D12xS3": (2, 2, 2), "Q8": (2, 2), "SL(2,3)": (3,),
    "C3xC3": (3, 3), "Heisenberg27": (3, 3), "A6": (),
}
_ABELIANIZATION_BATTERY = {
    **{name: (_LITERATURE[name][0], factors)
       for name, factors in _LITERATURE_ABELIANIZATIONS.items()},
    "D16": (lambda: dihedral_group(16), (2, 2)),
    "C4xC4": (lambda: _c(4, 4), (4, 4)),
    "D8xC2": (lambda: product_group(dihedral_group(8), cyclic_group(2)), (2, 2, 2)),
    "D64": (lambda: dihedral_group(64), (2, 2)),
    "E32": (lambda: elementary_abelian_group(2, 5), (2, 2, 2, 2, 2)),
    "S4xC2": (lambda: product_group(symmetric_group(4), cyclic_group(2)), (2, 2)),
    "E4xA4": (lambda: product_group(elementary_abelian_group(2, 2), _a4()), (2, 6)),
    "S6": (lambda: symmetric_group(6), (2,)),
    "S3xS4": (lambda: product_group(symmetric_group(3), symmetric_group(4)), (2, 2)),
    "E4": (lambda: elementary_abelian_group(2, 2), (2, 2)),
    "D8": (lambda: dihedral_group(8), (2, 2)),
    "E8": (lambda: elementary_abelian_group(2, 3), (2, 2, 2)),
    "D12": (lambda: dihedral_group(12), (2, 2)),
    "C6xC2": (lambda: _c(6, 2), (2, 6)),
    "D24": (lambda: dihedral_group(24), (2, 2)),
    "C6xC6": (lambda: _c(6, 6), (6, 6)),
    "C10xC6": (lambda: _c(10, 6), (2, 30)),
    "C9xC3": (lambda: _c(9, 3), (3, 9)),
    "C8xC4": (lambda: _c(8, 4), (4, 8)),
    "C2xC4": (lambda: _c(2, 4), (2, 4)),
    "C128": (lambda: cyclic_group(128), (128,)),
}


def _commutator_closure(G):
    """The subgroup generated by all commutators, by brute force."""
    t, inv = G.cayley, G.inverses
    members = np.unique(t[t[inv][:, inv], t])           # g^-1 h^-1 g h
    while True:
        closed = np.unique(t[np.ix_(members, members)])
        if closed.size == members.size:
            return members
        members = closed


@pytest.mark.parametrize("name", list(_ABELIANIZATION_BATTERY))
def test_abelianization_certificate(name):
    """The projection is a homomorphism onto the sum of Z/d_i, d_i | d_i+1,
    whose kernel is exactly the commutator subgroup."""
    make, expected = _ABELIANIZATION_BATTERY[name]
    G = make()
    ab = abelianization(G)
    d = np.array(ab.invariant_factors, dtype=np.int64)
    assert ab.invariant_factors == expected
    assert all(x > 1 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:]))
    P = np.array(ab.projection, dtype=np.int64).reshape(G.order, len(d))
    assert ((0 <= P) & (P < d)).all()
    assert np.array_equal(P[G.cayley], (P[:, None] + P[None, :]) % d)
    kernel = np.flatnonzero(~P.any(axis=1))
    assert np.array_equal(kernel, _commutator_closure(G))
    assert G.order // kernel.size == int(np.prod(d))


def test_reconstruction_and_abelianization_share_the_word_tree():
    from motivelab.cocycles import _Reconstruction
    G = product_group(dihedral_group(8), cyclic_group(2))
    abelianization(G)
    parent, tree_order = G.word_tree()
    recon = _Reconstruction(G)
    assert recon.parent is parent and recon.tree_order is tree_order
    # every element follows its parent, g = gens[pos] * g'
    gens = G.generating_set()
    seen = {0}
    for g in tree_order[1:]:
        pos, gp = parent[g]
        assert gp in seen and G.mul(gens[pos], gp) == g
        seen.add(g)
    assert len(seen) == G.order


# ---------------------------------------------------------------------------
# Subgroup array passes against the loops they replaced
# ---------------------------------------------------------------------------


def _subgroup_failure_by_loops(G, members):
    """The NotASubgroup message of the old element-by-element check, or None."""
    members = tuple(sorted(set(members)))
    outside = [m for m in members if not 0 <= m < G.order]
    if outside:
        return f"element {outside[0]} is outside the group of order {G.order}"
    if 0 not in members:
        return "missing identity"
    mset = set(members)
    for a in members:
        if G.inv(a) not in mset:
            return f"missing inverse of {a}"
        for b in members:
            if G.mul(a, b) not in mset:
                return f"not closed: {a}*{b}"
    return None


def _subgroup_failure(G, members):
    try:
        Subgroup(G, members)
    except NotASubgroup as exc:
        return str(exc)
    return None


def test_subgroup_messages_name_the_first_failure():
    S3, C4 = symmetric_group(3), cyclic_group(4)
    assert _subgroup_failure(C4, (0, 9)) == "element 9 is outside the group of order 4"
    assert _subgroup_failure(C4, (2, 3)) == "missing identity"
    assert _subgroup_failure(C4, (0, 1)) == "missing inverse of 1"      # 1^-1 = 3
    assert _subgroup_failure(C4, (0, 1, 3)) == "not closed: 1*1"
    # in S3 the transpositions 1 and 2 are their own inverses; 1*2 is a 3-cycle
    assert _subgroup_failure(S3, (0, 1, 2)) == "not closed: 1*2"
    for members in [(0, 1), (0, 1, 3), (0, 2, 3), (0, 1, 2), (0, 3, 4)]:
        assert _subgroup_failure(S3, members) == _subgroup_failure_by_loops(S3, members)


@pytest.mark.parametrize("make", [lambda: symmetric_group(4), lambda: dihedral_group(24)],
                         ids=["S4", "D24"])
def test_subgroup_check_matches_the_loops_on_random_subsets(make):
    """The inverse and closure gathers raise the loop's message, at the loop's
    first failing (a, b) with the inverse of a checked first."""
    G = make()
    rng = np.random.default_rng(5)
    failures = set()
    for _ in range(300):
        size = int(rng.integers(1, G.order + 1))
        members = tuple(int(x) for x in rng.choice(G.order, size, replace=False))
        if rng.random() < 0.8:
            members += (0,)
        expected = _subgroup_failure_by_loops(G, members)
        assert _subgroup_failure(G, members) == expected, members
        failures.add(" ".join(expected.split(" ")[:2]) if expected else None)
    assert failures >= {"missing identity", "missing inverse", "not closed:"}


@pytest.mark.parametrize("make", [lambda: symmetric_group(4), lambda: dihedral_group(24)],
                         ids=["S4", "D24"])
def test_subgroup_tables_and_canonical_conjugates_match_the_loops(make):
    G = make()
    for H in all_subgroups(G):
        idx = {m: i for i, m in enumerate(H.members)}
        table = [[idx[G.mul(a, b)] for b in H.members] for a in H.members]
        sub, members = H.as_group()
        assert sub.cayley.tolist() == table and members == list(H.members)
        best = min(tuple(sorted(G.conjugate(g, m) for m in H.members)) for g in G.elements())
        assert H.canonical_conjugate() == best
