import json
from importlib import resources
from pathlib import Path

import pytest

from motivelab.cli import main


def dataset_path(name: str) -> str:
    return str(resources.files("motivelab").joinpath("datasets", name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schur_text(capsys):
    code, out, _ = run(capsys, "schur", "--group", "symmetric:4")
    assert code == 0
    assert "C2" in out


def test_schur_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "schur", "--group", "elem_abelian:2,3", "--json")
    code2, out2, _ = run(capsys, "schur", "--group", "elem_abelian:2,3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["invariant_factors"] == [2, 2, 2]


def test_chartable(capsys):
    code, out, _ = run(capsys, "chartable", "--group", "symmetric:3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 1, 2]
    assert payload["class_sizes"] == [1, 2, 3]


def test_motive_decompose(capsys):
    code, out, _ = run(capsys, "motive", "decompose", "--group", "cyclic:1",
                       "--catalog", "projective_space:2", "--action", "trivial",
                       "--json")
    assert code == 0
    atoms = json.loads(out)["atoms"]
    assert len(atoms) == 3
    assert all(a["kind"] == "twisted_unit" for a in atoms)


def test_motive_hom_and_restrict(tmp_path, capsys):
    skel = {"group": {"kind": "symmetric", "n": 3},
            "atoms": [{"kind": "twisted_unit", "class": []},
                      {"kind": "twisted_unit", "class": []}]}
    f = tmp_path / "skel.json"
    f.write_text(json.dumps(skel))
    code, out, _ = run(capsys, "motive", "hom", "--a", str(f), "--b", str(f), "--json")
    assert code == 0
    assert json.loads(out)["rank"] == 4 * 3
    code, out, _ = run(capsys, "motive", "restrict", "--a", str(f), "--json")
    assert code == 0
    assert json.loads(out)["plain_units"] == 2
    code, out, _ = run(capsys, "motive", "localized-eq", "--a", str(f), "--b", str(f))
    assert code == 0


def test_chow(capsys):
    code, out, _ = run(capsys, "chow", "--catalog", "del_pezzo_bl2", "--json")
    assert code == 0
    assert json.loads(out)["lefschetz_exponents"] == [0, 1, 1, 1, 2]


def test_measure_datasets(capsys):
    for name in ("swapped_points_c2.json", "p1_c2.json", "p2_trivial_c2.json"):
        code, out, _ = run(capsys, "measure", "factor-check", dataset_path(name))
        assert code == 0, name
    code, out, _ = run(capsys, "measure", "check", dataset_path("p1_c2.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["hp"] == payload["orbifold"] == [4, 0]


def test_measure_blowups(capsys):
    for name in ("del_pezzo_blowup.json", "blowup_fixed_point.json"):
        code, out, _ = run(capsys, "measure", "blowup-check", dataset_path(name))
        assert code == 0, name


def test_measure_euler(capsys):
    code, out, _ = run(capsys, "measure", "euler",
                       dataset_path("swapped_points_c2.json"), "--json")
    assert code == 0
    assert json.loads(out)["multiplicities"] == ["1", "1"]


def test_measure_nc(capsys):
    code, out, _ = run(capsys, "measure", "nc", "--group", "cyclic:2",
                       "--catalog", "disjoint_points:2",
                       "--action", '{"point_orbits": [[0]]}', "--json")
    assert code == 0
    cls = json.loads(out)["class"]
    assert cls == [{"kind": "induced", "stabilizer": [0], "multiplicity": 1}]


def test_cocycle_roundtrip(tmp_path, capsys):
    from motivelab.cocycles import central_pairing_cocycle
    from motivelab.groups import cyclic_group
    alpha = central_pairing_cocycle(cyclic_group(2))
    f = tmp_path / "pairing.json"
    f.write_text(json.dumps({
        "group": {"kind": "product", "a": {"kind": "cyclic", "n": 2},
                  "b": {"kind": "cyclic", "n": 2}},
        "modulus": alpha.modulus,
        "exponents": alpha.table.tolist()}))
    code, out, _ = run(capsys, "cocycle", "check", str(f))
    assert code == 0
    code, out, _ = run(capsys, "cocycle", "classify", str(f), "--json")
    assert code == 0
    assert json.loads(out)["coordinates"] == [1]
    code, out, _ = run(capsys, "cocycle", "mul", str(f), str(f), "--json")
    assert code == 0
    assert json.loads(out)["coordinates"] == [0]


@pytest.mark.parametrize("modulus", [0, -2, 2**62, 10**20])
def test_cocycle_check_bad_modulus(tmp_path, capsys, modulus):
    # from 2^62 on, int64 sums in the identity check could wrap
    f = tmp_path / "bad_modulus.json"
    f.write_text(json.dumps({"group": {"kind": "cyclic", "n": 2}, "modulus": modulus,
                             "exponents": [[0, 0], [0, 0]]}))
    for argv in (("cocycle", "check", str(f)),
                 ("twisted", "--group", "cyclic:2", "--cocycle", str(f))):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "modulus" in err and "Traceback" not in err


def test_cocycle_check_modulus_just_below_bound(tmp_path, capsys):
    m = 2**62 - 1
    f = tmp_path / "big_modulus.json"
    f.write_text(json.dumps({"group": "cyclic:2", "modulus": m,
                             "exponents": [[0, 0], [0, m - 1]]}))
    code, out, _ = run(capsys, "cocycle", "check", str(f), "--json")
    assert code == 0 and json.loads(out)["ok"]


def test_cocycle_file_group_shorthand(tmp_path, capsys):
    f = tmp_path / "c4.json"
    f.write_text(json.dumps({"group": "cyclic:4", "modulus": 4,
                             "exponents": [[0] * 4] * 4}))
    code, out, _ = run(capsys, "cocycle", "check", str(f), "--json")
    assert code == 0 and json.loads(out)["ok"]
    f.write_text(json.dumps({"group": "cyclic:4:2", "modulus": 4,
                             "exponents": [[0] * 4] * 4}))
    code, _, err = run(capsys, "cocycle", "check", str(f))
    assert code == 1 and "shorthand" in err


def test_measure_check_on_blowup_dataset(capsys):
    code, _, err = run(capsys, "measure", "check", dataset_path("del_pezzo_blowup.json"))
    assert code == 1
    assert "'symbol'" in err and "measure blowup-check" in err
    assert "Traceback" not in err
    code, _, err = run(capsys, "measure", "blowup-check", dataset_path("p1_c2.json"))
    assert code == 1
    assert err.strip().endswith("dataset has no 'X' field")  # no blow-up hint


def test_twisted_command(capsys):
    code, out, _ = run(capsys, "twisted", "--group", "cyclic:4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1, 1, 1, 1]
    assert payload["center_dim"] == 4
    assert "tol" not in payload


def test_twisted_tol_is_a_usage_error(capsys):
    code, _, err = run(capsys, "twisted", "--group", "cyclic:4", "--tol", "1e-8")
    assert code == 1
    assert "--tol" in err and "Traceback" not in err


def test_cocycle_check_missing_modulus(tmp_path, capsys):
    f = tmp_path / "no_modulus.json"
    f.write_text(json.dumps({"group": {"kind": "cyclic", "n": 2},
                             "exponents": [[0, 0], [0, 0]]}))
    code, _, err = run(capsys, "cocycle", "check", str(f))
    assert code == 1
    assert "has no 'modulus' field" in err and "Traceback" not in err


def test_motive_hom_missing_atoms(tmp_path, capsys):
    f = tmp_path / "no_atoms.json"
    f.write_text(json.dumps({"group": {"kind": "cyclic", "n": 2}}))
    code, _, err = run(capsys, "motive", "hom", "--a", str(f), "--b", str(f))
    assert code == 1
    assert "has no 'atoms' field" in err and "Traceback" not in err


def test_exit_codes(tmp_path, capsys):
    # usage error, including shorthands that lack parameters
    for spec in ("nonsense:1", "cyclic", "elem_abelian:2"):
        code, _, err = run(capsys, "schur", "--group", spec)
        assert code == 1 and "shorthand" in err
    # check failure: corrupted cocycle
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 2},
        "modulus": 2,
        "exponents": [[0, 1], [0, 0]]}))
    code, out, _ = run(capsys, "cocycle", "check", str(bad))
    assert code == 2
    # check failure: wrong fixed-locus data
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 2},
        "symbol": {"catalog": "disjoint_points:2",
                   "action": {"point_orbits": [[0]]}},
        "fixed_locus": [2, 2]}))
    code, out, _ = run(capsys, "measure", "factor-check", str(ds))
    assert code == 2


@pytest.mark.parametrize("before, after", [
    (["--json"], ["schur", "--group", "dihedral:8", "--json"]),
    (["--max-order", "120"], ["schur", "--group", "symmetric:5", "--max-order", "120"]),
    (["--seed", "3"], ["chartable", "--group", "symmetric:3", "--seed", "3"]),
])
def test_shared_flags_follow_the_subcommand(capsys, before, after):
    """A shared flag before the subcommand is a usage error, not silently
    overwritten by the subcommand's default; after it, it takes effect."""
    code, out, err = run(capsys, *before, *after[:-len(before)])
    assert code == 1 and out == "" and "usage: motivelab" in err
    code, out, _ = run(capsys, *after)
    assert code == 0 and out


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--fast")
    assert code == 0
    assert out.count("PASS") == 9


def test_selftest_json_reports_seconds_per_row(capsys):
    code, out, _ = run(capsys, "selftest", "--fast", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    seconds = payload["seconds"]
    assert len(seconds) == 9
    assert all(isinstance(s, float) and s >= 0 for s in seconds.values())


def test_selftest_reports_invariant_violation(monkeypatch, capsys):
    from motivelab import selftest
    from motivelab.errors import InvariantViolation

    def broken():
        raise InvariantViolation("degree sum check failed")

    monkeypatch.setattr(selftest, "ROWS", [("1 broken row", broken)])
    code, out, _ = run(capsys, "selftest", "--fast")
    assert code == 2
    assert "FAIL 1 broken row: degree sum check failed" in out


def test_selftest_rows_raise_typed_errors(monkeypatch):
    # the rows check with check_invariant, which python -O keeps
    from motivelab import selftest
    from motivelab.errors import InvariantViolation
    from motivelab.twisted import WedderburnProfile

    monkeypatch.setattr(selftest, "wedderburn_dims",
                        lambda algebra, seed=0: WedderburnProfile((1, 1, 1, 1)))
    with pytest.raises(InvariantViolation, match="blocks"):
        selftest.check_central_type()


def test_measure_collection_symbol(capsys):
    code, out, _ = run(capsys, "measure", "check",
                       dataset_path("p1xp1_swap_c2.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["hp"] == [5, 0]


def test_motive_decompose_collection_file(tmp_path, capsys):
    spec = {"blocks": [{"length": 1, "stabilizer": [0, 1]},
                       {"length": 2, "stabilizer": [0]},
                       {"length": 1, "stabilizer": [0, 1]}]}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "motive", "decompose", "--group", "cyclic:2",
                       "--collection", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["atoms"]) == 3
    assert payload["possibly_isomorphic"] == []


def test_dataset_fixed_locus_dict_form(tmp_path, capsys):
    """Per-class data may be keyed by class representative instead of listed."""
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps({
        "group": {"kind": "cyclic", "n": 2},
        "symbol": {"catalog": "projective_space:1", "action": "trivial"},
        "fixed_locus": {"0": 2, "1": 2},
        "sectors": {"0": [2, 0], "1": [2, 0]}}))
    code, out, _ = run(capsys, "measure", "check", str(ds), "--json")
    assert code == 0
    assert json.loads(out)["ok"]


def test_action_of_the_wrong_shape(tmp_path, capsys):
    act = tmp_path / "act.json"
    act.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, "measure", "nc", "--group", "cyclic:2",
                       "--catalog", "disjoint_points:2", "--action", f"@{act}")
    assert code == 1
    assert "action must be a JSON object" in err and "Traceback" not in err


def test_collection_block_of_the_wrong_shape(tmp_path, capsys):
    coll = tmp_path / "coll.json"
    coll.write_text(json.dumps({"blocks": [5]}))
    code, _, err = run(capsys, "motive", "decompose", "--group", "cyclic:2",
                       "--collection", str(coll))
    assert code == 1
    assert "collection block must be a JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("action,data,message", [
    ("blowup-check", {"group": "cyclic:2", "X": 5, "Y": 5, "c": 1, "Bl": 5, "E": 5},
     "variety expression must be a JSON object or a list of terms"),
    ("euler", {"group": "cyclic:2", "fixed_locus": [{"a": 1}, 2]},
     "per-class values must be an integer"),
])
def test_dataset_values_of_the_wrong_shape(tmp_path, capsys, action, data, message):
    ds = tmp_path / "ds.json"
    ds.write_text(json.dumps(data))
    code, _, err = run(capsys, "measure", action, str(ds))
    assert code == 1
    assert message in err and "Traceback" not in err


def test_wrong_shape_loaders_raise_typed_errors():
    from motivelab.cli import load_expr, per_class_values
    from motivelab.errors import WrongShape
    from motivelab.groups import cyclic_group
    G = cyclic_group(2)
    with pytest.raises(WrongShape):
        load_expr(G, 5)
    with pytest.raises(WrongShape):
        per_class_values(G, [{"a": 1}, 2])
    with pytest.raises(WrongShape):
        per_class_values(G, [2, 0], pairs=True)
    for bad in ([2, "0"], [2.7, 0], [True, 0], 5):
        with pytest.raises(WrongShape):
            per_class_values(G, bad)
    assert per_class_values(G, [2, 0]) == [2, 0]
    assert per_class_values(G, {"0": [2, 0], "1": [2, 0]}, pairs=True) == [(2, 0), (2, 0)]


def test_swap_error_names_the_action_field(capsys):
    code, _, err = run(capsys, "motive", "decompose", "--group", "cyclic:4",
                       "--catalog", "del_pezzo_bl2", "--action", "swap:9")
    assert code == 1
    assert "swap:9" in err and "element 9 is outside the group of order 4" in err


def _integer_field_inputs(tmp_path, bad):
    """(argv, field name) for each integer JSON field, holding the value bad."""
    def write(name, data):
        f = tmp_path / name
        f.write_text(json.dumps(data))
        return str(f)
    blowup = json.loads(Path(dataset_path("blowup_fixed_point.json")).read_text())
    return [
        (("cocycle", "check", write("cocycle.json", {
            "group": "cyclic:2", "modulus": bad, "exponents": [[0, 0], [0, 0]]})), "modulus"),
        (("motive", "decompose", "--group", "cyclic:2", "--collection",
          write("coll.json", {"blocks": [{"length": bad}]})), "length"),
        (("measure", "blowup-check", write("coeff.json", {
            **blowup, "X": [{"coeff": bad, "symbol": blowup["X"]}]})), "coeff"),
        (("measure", "blowup-check", write("c.json", {**blowup, "c": bad})), "'c'"),
        (("measure", "nc", "--group", "cyclic:2", "--catalog", "point", "--action",
          json.dumps({"fixed_locus": [bad, 1]})), "fixed_locus"),
        (("measure", "nc", "--group", "cyclic:2", "--catalog", "point", "--action",
          json.dumps({"sectors": [[1, 0], [0, bad]]})), "sectors"),
        (("motive", "decompose", "--group", "cyclic:2", "--collection",
          write("stab.json", {"blocks": [{"length": 1, "stabilizer": [0, bad]}]})),
         "stabilizer"),
        (("schur", "--group", json.dumps({"kind": "cyclic", "n": bad})), "'n'"),
        (("schur", "--group", json.dumps({"kind": "product", "a": "cyclic:2",
                                          "b": {"kind": "dihedral", "order": bad}})), "'order'"),
        (("schur", "--group", json.dumps({"kind": "perm_gens", "degree": 2,
                                          "gens": [[1, bad]]})), "'gens'"),
    ]


@pytest.mark.parametrize("bad", [[2], {"a": 1}, "2", True, 1.5])
def test_integer_json_fields_reject_other_values(tmp_path, capsys, bad):
    """Every integer field of a JSON input takes only a JSON integer: a list,
    an object, a number string, a bool or a float is WrongShape, exit 1."""
    for argv, name in _integer_field_inputs(tmp_path, bad):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert name in err and "must be an integer" in err and "Traceback" not in err, err


@pytest.mark.parametrize("argv,message", [
    (("motive", "decompose", "--group", "cyclic:2", "--collection",
      {"blocks": [{"length": 1, "stabilizer": 5}]}),
     "collection block 'stabilizer' must be a list of integers"),
    (("schur", "--group", {"kind": "perm_gens", "degree": 2, "gens": 5}),
     "group spec field 'gens' must be a list of integer lists"),
    (("schur", "--group", {"kind": "cayley", "table": [5]}),
     "group spec field 'table' must be a list of integers"),
])
def test_integer_list_fields_reject_other_values(tmp_path, capsys, argv, message):
    """A list-of-integers field holding a number is WrongShape, exit 1."""
    f = tmp_path / "in.json"
    f.write_text(json.dumps(argv[-1]))
    last = str(f) if argv[-2] == "--collection" else json.dumps(argv[-1])
    code, _, err = run(capsys, *argv[:-1], last)
    assert code == 1
    assert message in err and "Traceback" not in err, err
