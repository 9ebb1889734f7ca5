"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria 1-9 are the quantitative battery (exact equalities); criterion 10 runs the property suites at >= 200 cases under a
fixed seed with a five-minute budget.
"""

import time

import numpy as np
import pytest
from spectral_oracle import spectral_dims

from motivelab import selftest
from motivelab.cocycles import (
    TwoCocycle,
    cocycle_validate,
    is_cohomologous,
    random_cocycle,
    schur_multiplier,
    verify_witness,
)
from motivelab.characters import character_table
from motivelab.errors import NotACocycle
from motivelab.groups import (
    all_subgroups,
    cyclic_group,
    dihedral_group,
    elementary_abelian_group,
    symmetric_group,
)
from motivelab.motives import hom_rank, induced_atom
from motivelab.twisted import alpha_regular, build_twisted, center_basis, wedderburn_dims

PROPERTY_SEED = 20240
PROPERTY_CASES = 200


def _report(name):
    print(f"PASS {name}")


def test_criterion_1_schur_multiplier_table():
    selftest.check_schur_table()
    _report("criterion 1: multiplier table (C_n, S_n, D_2n, E_p^k) under 60s")


def test_criterion_2_representation_rings():
    selftest.check_representation_rings()
    _report("criterion 2: R(C_n) power basis (n <= 12) and R(S3) relations, exact")


def test_criterion_3_unit_endomorphisms():
    selftest.check_unit_endomorphisms()
    _report("criterion 3: End(unit) rank = class count; idempotent pair exact")


def test_criterion_4_central_type():
    selftest.check_central_type()
    _report("criterion 4: central-type pairings give one block, dims {2}/{3}, exact")


def test_criterion_5_localization():
    selftest.check_localization()
    _report("criterion 5: twisted units collapse after localization, differ before")


def test_criterion_6_decompositions():
    selftest.check_decompositions()
    _report("criterion 6: catalog decompositions match the golden atom lists")


def test_criterion_7_lefschetz():
    selftest.check_chow()
    _report("criterion 7: twist exponents + length checks; line vs point pair split")


def test_criterion_8_blowups():
    selftest.check_blowups()
    _report("criterion 8: blow-up relations hold on both datasets, exact")


def test_criterion_9_factorization():
    selftest.check_factorization()
    _report("criterion 9: Euler character factors through the skeleton measure")


# ---------------------------------------------------------------------------
# Criterion 10: property suites, fixed seed, >= 200 cases each, < 5 min
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def property_clock():
    state = {"start": time.time()}
    yield state
    elapsed = time.time() - state["start"]
    assert elapsed < 300, f"property suites took {elapsed:.0f}s (budget 300s)"


def _random_cocycle_battery(rng, count):
    groups = [cyclic_group(4), symmetric_group(3), elementary_abelian_group(2, 2),
              dihedral_group(8)]
    per = max(1, count // len(groups))
    for G in groups:
        for _ in range(per):
            yield G, random_cocycle(G, G.order, rng)


def test_criterion_10a_cocycle_identity_is_associativity(property_clock):
    rng = np.random.default_rng(PROPERTY_SEED)
    checked = 0
    for G, alpha in _random_cocycle_battery(rng, PROPERTY_CASES):
        build_twisted(G, alpha)  # raises unless the identity holds exactly
        n = G.order
        table = [list(r) for r in alpha.table]
        i, j = int(rng.integers(1, n)), int(rng.integers(1, n))
        table[i][j] = (table[i][j] + 1 + int(rng.integers(0, n - 1))) % n
        assert not cocycle_validate(G, n, table).ok
        with pytest.raises(NotACocycle):
            TwoCocycle(G, n, table)
        checked += 1
    assert checked >= PROPERTY_CASES
    _report("criterion 10a: cocycle identity <-> twisted associativity")


def test_criterion_10b_class_of_respects_cohomology(property_clock):
    rng = np.random.default_rng(PROPERTY_SEED + 1)
    groups = [cyclic_group(4), symmetric_group(3), elementary_abelian_group(2, 2),
              dihedral_group(8)]
    multipliers = {G.label: schur_multiplier(G) for G in groups}
    checked = 0
    per = PROPERTY_CASES // len(groups)
    for G in groups:
        M = multipliers[G.label]
        for _ in range(per):
            a = random_cocycle(G, G.order, rng)
            b = random_cocycle(G, G.order, rng)
            w = is_cohomologous(a, b)
            assert (M.class_of(a) == M.class_of(b)) == (w is not None)
            # class_of and is_cohomologous share the gauge fix; the witness
            # is checked on every pair
            assert w is None or verify_witness(a, b, w)
            checked += 1
    assert checked >= PROPERTY_CASES
    _report("criterion 10b: class projection matches coboundary equivalence")


def test_criterion_10c_regularity_class_constancy(property_clock):
    rng = np.random.default_rng(PROPERTY_SEED + 2)
    checked = 0
    for G, alpha in _random_cocycle_battery(rng, PROPERTY_CASES):
        reg = alpha_regular(G, alpha)  # raises if constancy ever fails
        # exhaustive per-element cross-check
        table = alpha.table
        for cls, flag in zip(G.conjugacy_classes(), reg.flags):
            for x in cls.members:
                cent = G.centralizer(x)
                elem_flag = all(table[x][h] == table[h][x] for h in cent.members)
                assert elem_flag == flag
        checked += 1
    assert checked >= PROPERTY_CASES
    _report("criterion 10c: regularity is constant on conjugacy classes")


def test_criterion_10d_center_dim_equals_regular_count(property_clock):
    rng = np.random.default_rng(PROPERTY_SEED + 3)
    checked = 0
    for G, alpha in _random_cocycle_battery(rng, PROPERTY_CASES):
        algebra = build_twisted(G, alpha)
        reg = alpha_regular(G, alpha)
        assert len(center_basis(algebra)) == reg.count
        checked += 1
    assert checked >= PROPERTY_CASES
    _report("criterion 10d: center dimension = regular class count")


def test_criterion_10e_dixon_orthogonality(property_clock):
    from motivelab.groups import product_group
    battery = [cyclic_group(n) for n in range(2, 13)]
    battery += [symmetric_group(3), symmetric_group(4), dihedral_group(6),
                dihedral_group(8), dihedral_group(12),
                elementary_abelian_group(2, 2), elementary_abelian_group(2, 3),
                elementary_abelian_group(3, 2),
                product_group(elementary_abelian_group(2, 2), symmetric_group(3))]
    for G in battery:
        character_table(G).verify_orthogonality()
    _report("criterion 10e: modular character tables orthogonal, exact")


def test_criterion_10f_induced_hom_oracle(property_clock):
    pairs = 0
    for G in (symmetric_group(3), dihedral_group(8), elementary_abelian_group(2, 2)):
        subs = [H for H in all_subgroups(G) if not H.is_whole_group()]
        for H1 in subs:
            for H2 in subs:
                got = hom_rank(induced_atom(H1), induced_atom(H2))
                assert got == selftest._induced_oracle(G, H1, H2)
                pairs += 1
    assert pairs == 25 + 81 + 16  # all proper-subgroup pairs of S3, D8, E4
    _report(f"criterion 10f: induced-pair hom ranks match the oracle ({pairs} pairs)")


def test_criterion_10g_wedderburn_consistency(property_clock, split_seed):
    """Exact block dimensions against the two exact constraints and the
    spectral oracle."""
    rng = np.random.default_rng(PROPERTY_SEED + 4)
    split_seed(3)
    groups = [cyclic_group(4), elementary_abelian_group(2, 2), dihedral_group(8),
              symmetric_group(3)]
    for G in groups:
        for _ in range(12):
            alpha = random_cocycle(G, G.order, rng)
            algebra = build_twisted(G, alpha)
            profile = wedderburn_dims(algebra)
            reg = alpha_regular(G, alpha)
            assert len(profile.dims) == reg.count
            assert sum(d * d for d in profile.dims) == G.order
            assert profile.dims == spectral_dims(G, alpha, seed=3)
    _report("criterion 10g: block dims satisfy the exact constraints and match the spectrum")
