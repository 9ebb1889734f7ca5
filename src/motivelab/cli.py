"""Command-line front end.

Exit codes: 0 = success (all asserted checks passed), 1 = input/usage error,
2 = a validation or consistency check failed.  JSON output is deterministic
given the inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import selftest as selftest_mod
from .catalog import ActionSpec, instantiate, parse_catalog_address
from .characters import character_table
from .cocycles import (
    TwoCocycle,
    cocycle_validate,
    class_arith,
    schur_multiplier,
    SCHUR_DEFAULT_MAX_ORDER,
)
from .errors import (
    MissingField,
    MotiveLabError,
    NotAnObject,
    NotASubgroup,
    WrongShape,
    json_integer,
    json_integers,
)
from .groups import FiniteGroup, Subgroup, construct_group
from .measures import (
    K0VarExpr,
    ProductSymbol,
    VarietySymbol,
    blowup_check,
    euler_char_rep,
    factorization_check,
    mu_nc,
    orbifold_dims,
    symbol_skeleton,
)
from .motives import (
    MotiveSkeleton,
    decompose_collection,
    induced_atom,
    localized_isomorphic,
    restrict_skeleton,
    skeleton_hom_rank,
    twisted_unit,
)
from .twisted import alpha_regular, build_twisted, center_basis, wedderburn_dims

USAGE_ERROR, CHECK_FAILURE = 1, 2


def parse_group_arg(arg: str) -> FiniteGroup:
    """@file.json, inline JSON, or a spec string for construct_group
    (cyclic:4, symmetric:3, dihedral:8, elem_abelian:2,2)."""
    if arg.startswith("@"):
        return construct_group(json.loads(Path(arg[1:]).read_text()))
    if arg.lstrip().startswith("{"):
        return construct_group(json.loads(arg))
    return construct_group(arg)


def parse_action(G: FiniteGroup, raw) -> ActionSpec:
    if isinstance(raw, str):
        if raw == "trivial":
            return ActionSpec.trivial(G)
        if raw.startswith("swap:"):
            members = tuple(int(x) for x in raw[5:].split(","))
            try:
                Subgroup(G, members)
            except NotASubgroup as exc:
                raise NotASubgroup(f"action field {raw!r}: {exc}") from None
            return ActionSpec.swap_pair(G, members)
        if raw.startswith("@"):
            raw = json.loads(Path(raw[1:]).read_text())
        elif raw.lstrip().startswith("{"):
            raw = json.loads(raw)
        else:
            raise ValueError(f"unknown action {raw!r}")
    raw = _object(raw, "action")
    return ActionSpec(
        G,
        line_class=tuple(raw.get("line_class", ())),
        special_classes=tuple(tuple(c) for c in raw.get("special_classes", ())),
        special_orbit=(tuple(raw["special_orbit"])
                       if raw.get("special_orbit") is not None else None),
        point_orbits=tuple(tuple(o) for o in raw.get("point_orbits", ())),
        fixed_locus=(tuple(json_integers(raw["fixed_locus"], "action field 'fixed_locus'"))
                     if raw.get("fixed_locus") is not None else None),
        sectors=(tuple(json_integers(raw["sectors"], "action field 'sectors'", pairs=True))
                 if raw.get("sectors") is not None else None),
    )


def cocycle_fields(path: str, G: FiniteGroup | None = None) -> tuple:
    """(group, modulus, exponents) of a cocycle file, unchecked."""
    data = json.loads(Path(path).read_text())
    where = f"cocycle file {path}"
    group = G if G is not None else construct_group(_field(data, "group", where))
    modulus = json_integer(_field(data, "modulus", where), f"{where} field 'modulus'")
    return group, modulus, _field(data, "exponents", where)


def load_cocycle(path: str, G: FiniteGroup | None = None) -> TwoCocycle:
    return TwoCocycle.from_exponents(*cocycle_fields(path, G))


def collection_spec_from_json(G: FiniteGroup, data,
                              max_group_order: int = SCHUR_DEFAULT_MAX_ORDER):
    from .motives import Block, CollectionSpec
    M = schur_multiplier(G, max_group_order)
    blocks = []
    for b in _field(data, "blocks", "collection"):
        members = _object(b, "collection block").get("stabilizer")
        H = (Subgroup(G, tuple(json_integers(members, "collection block 'stabilizer'")))
             if members is not None else G.full_subgroup())
        cls = None
        if H.is_whole_group():
            coords = b.get("cocycle_class")
            cls = M.class_from_coords(tuple(coords)) if coords else M.trivial_class()
        length = json_integer(_field(b, "length", "collection block"), "collection block 'length'")
        blocks.append(Block(length, H, cls))
    return CollectionSpec(G, tuple(blocks))


def load_symbol(G: FiniteGroup, data):
    if "product" in _object(data, "symbol"):
        a, b = data["product"]
        return ProductSymbol(load_symbol(G, a), load_symbol(G, b))
    if "collection" in data:
        from .measures import CollectionSymbol
        spec = collection_spec_from_json(G, data["collection"])
        return CollectionSymbol(data.get("name", "collection"), spec)
    entry = parse_catalog_address(_field(data, "catalog", "symbol"))
    action = parse_action(G, data.get("action", "trivial"))
    return VarietySymbol(entry, action)


def load_expr(G: FiniteGroup, data) -> K0VarExpr:
    if isinstance(data, dict):
        return K0VarExpr.of(load_symbol(G, data))
    if not isinstance(data, list):
        raise WrongShape("variety expression must be a JSON object or a list of terms, "
                         f"not {json.dumps(data)[:40]}")
    expr = None
    for term in data:
        symbol = load_symbol(G, _field(term, "symbol", "expression term"))
        part = K0VarExpr.of(symbol, json_integer(term.get("coeff", 1), "expression term 'coeff'"))
        expr = part if expr is None else expr.add(part)
    if expr is None:
        raise ValueError("empty variety expression")
    return expr


def skeleton_from_json(G: FiniteGroup, atoms,
                       max_group_order: int = SCHUR_DEFAULT_MAX_ORDER) -> MotiveSkeleton:
    M = schur_multiplier(G, max_group_order)
    out = []
    for a in atoms:
        kind = _field(a, "kind", "atom")
        if kind == "twisted_unit":
            out.append(twisted_unit(M.class_from_coords(tuple(a.get("class", ())))
                                    if a.get("class") else M.trivial_class()))
        elif kind == "induced":
            members = _field(a, "stabilizer", "induced atom")
            out.append(induced_atom(Subgroup(G, tuple(members)), M))
        else:
            raise ValueError(f"unknown atom kind {kind!r}")
    return MotiveSkeleton(G, tuple(out))


def per_class_values(G: FiniteGroup, raw, pairs: bool = False) -> list:
    """Per-conjugacy-class data: either a list in canonical class order or a
    dict keyed by class representative."""
    classes = G.conjugacy_classes()
    if isinstance(raw, dict):
        out = []
        for c in classes:
            key = str(c.representative)
            if key not in raw:
                raise ValueError(f"missing value for class representative {key}")
            out.append(raw[key])
        raw = out
    return json_integers(raw, "per-class values", pairs)


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _load_skeleton_arg(args, which: str, max_order: int) -> MotiveSkeleton:
    raw = getattr(args, which)
    if raw is None:
        raise ValueError(f"missing --{which}: skeleton file or inline JSON")
    data = json.loads(Path(raw).read_text()) if not raw.lstrip().startswith(("[", "{")) \
        else json.loads(raw)
    if isinstance(data, dict):
        G = construct_group(_field(data, "group", f"--{which} skeleton"))
        atoms = _field(data, "atoms", f"--{which} skeleton")
    else:
        if not args.group:
            raise ValueError("a bare atom list needs --group")
        G = parse_group_arg(args.group)
        atoms = data
    return skeleton_from_json(G, atoms, max_order)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_schur(args) -> int:
    G = parse_group_arg(args.group)
    M = schur_multiplier(G, args.max_order)
    payload = {"group": G.label, "invariant_factors": list(M.invariant_factors),
               "order": M.order, "description": M.describe()}
    _emit(payload, args.json, f"H2({G.label}, C*) = {M.describe()}")
    return 0


def cmd_chartable(args) -> int:
    G = parse_group_arg(args.group)
    table = character_table(G, seed=args.seed)
    classes = G.conjugacy_classes()
    payload = {
        "group": G.label,
        "exponent": table.exponent,
        "degrees": list(table.degrees),
        "class_sizes": [c.size for c in classes],
        "class_representatives": [c.representative for c in classes],
        "values": [[_cyclo_json(v) for v in row] for row in table.irreducibles],
    }
    lines = [f"character table of {G.label} (exponent {table.exponent})",
             "classes: " + "  ".join(f"|{c.representative}|={c.size}" for c in classes)]
    for d, row in zip(table.degrees, table.irreducibles):
        lines.append(f"deg {d}: " + "  ".join(str(v) for v in row))
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cyclo_json(v):
    return {"conductor": v.conductor,
            "coeffs": [[c.numerator, c.denominator] for c in v.coeffs]}


def cmd_cocycle(args) -> int:
    G = parse_group_arg(args.group) if args.group else None
    if args.action == "check":
        report = cocycle_validate(*cocycle_fields(args.files[0], G))
        payload = {"ok": report.ok, "message": report.message,
                   "triple": report.triple}
        _emit(payload, args.json, "ok" if report.ok else f"FAIL: {report.message}")
        return 0 if report.ok else CHECK_FAILURE
    if args.action == "classify":
        alpha = load_cocycle(args.files[0], G)
        M = schur_multiplier(alpha.group, args.max_order)
        cls = M.class_of(alpha)
        payload = {"invariant_factors": list(M.invariant_factors),
                   "coordinates": list(cls.coords)}
        _emit(payload, args.json,
              f"class {list(cls.coords)} in {M.describe()}")
        return 0
    if args.action == "mul":
        a = load_cocycle(args.files[0], G)
        b = load_cocycle(args.files[1], a.group)
        M = schur_multiplier(a.group, args.max_order)
        cls = class_arith("mul", M.class_of(a), M.class_of(b))
        payload = {"coordinates": list(cls.coords)}
        _emit(payload, args.json, f"product class {list(cls.coords)}")
        return 0
    raise ValueError(f"unknown cocycle action {args.action!r}")


def cmd_twisted(args) -> int:
    G = parse_group_arg(args.group)
    if args.cocycle:
        alpha = load_cocycle(args.cocycle, G)
    elif args.cls is not None:
        M = schur_multiplier(G, args.max_order)
        coords = tuple(int(x) for x in args.cls.split(",")) if args.cls else ()
        alpha = M.class_from_coords(coords).representative if coords \
            else M.trivial_class().representative
    else:
        alpha = TwoCocycle.trivial(G, G.order)
    algebra = build_twisted(G, alpha)
    reg = alpha_regular(G, alpha)
    center = center_basis(algebra)
    profile = wedderburn_dims(algebra, seed=args.seed)
    payload = {"group": G.label, "regular_classes": reg.count,
               "center_dim": len(center), "dims": list(profile.dims),
               "seed": args.seed}
    _emit(payload, args.json,
          f"{G.label}: {reg.count} regular classes, center dim {len(center)}, "
          f"block dims {list(profile.dims)}")
    return 0


def cmd_motive(args) -> int:
    max_order = args.max_order
    if args.action == "decompose":
        if not args.group:
            raise ValueError("decompose needs --group")
        if not (args.collection or args.catalog):
            raise ValueError("decompose needs --catalog or --collection")
        G = parse_group_arg(args.group)
        if args.collection:
            data = json.loads(Path(args.collection).read_text())
            spec = collection_spec_from_json(G, data, max_order)
        else:
            entry = parse_catalog_address(args.catalog)
            action = parse_action(G, args.motive_action)
            spec = instantiate(entry, action, max_order)
        skel = decompose_collection(spec, max_order)
        from .motives import possibly_isomorphic_atoms
        flagged = possibly_isomorphic_atoms(skel)
        payload = {"group": G.label, "atoms": skel.to_json(),
                   "possibly_isomorphic": [list(p) for p in flagged]}
        _emit(payload, args.json,
              "\n".join(json.dumps(a, sort_keys=True) for a in skel.to_json()))
        return 0
    if args.action == "hom":
        A = _load_skeleton_arg(args, "a", max_order)
        B = _load_skeleton_arg(args, "b", max_order)
        r = skeleton_hom_rank(A, B)
        _emit({"rank": r}, args.json, f"hom rank {r}")
        return 0
    if args.action == "restrict":
        A = _load_skeleton_arg(args, "a", max_order)
        r = restrict_skeleton(A)
        _emit({"plain_units": r}, args.json, f"{r} plain unit atoms after restriction")
        return 0
    if args.action == "localized-eq":
        A = _load_skeleton_arg(args, "a", max_order)
        B = _load_skeleton_arg(args, "b", max_order)
        eq = localized_isomorphic(A, B)
        _emit({"isomorphic": eq}, args.json, "isomorphic" if eq else "not isomorphic")
        return 0
    raise ValueError(f"unknown motive action {args.action!r}")


def cmd_chow(args) -> int:
    from .motives import check_via, chow_skeleton
    entry = parse_catalog_address(args.catalog)
    via = check_via(entry)
    if not via.ok:
        _emit({"ok": False, "problems": list(via.problems)}, args.json,
              "violation: " + "; ".join(via.problems))
        return CHECK_FAILURE
    skel = chow_skeleton(entry)
    payload = {"ok": True, "lefschetz_exponents": list(skel.exponents),
               "collection_length": entry.collection_length}
    _emit(payload, args.json,
          f"{entry.label()}: twists {list(skel.exponents)}; length check ok")
    return 0


def cmd_measure(args) -> int:
    data = json.loads(Path(args.dataset).read_text()) if args.dataset else None
    max_order = args.max_order
    if args.action == "nc":
        if not (args.group and args.catalog):
            raise ValueError("measure nc needs --group and --catalog")
        G = parse_group_arg(args.group)
        entry = parse_catalog_address(args.catalog)
        action = parse_action(G, args.motive_action)
        cls = mu_nc(VarietySymbol(entry, action), max_order)
        _emit({"group": G.label, "class": cls.to_json()}, args.json,
              json.dumps(cls.to_json(), sort_keys=True))
        return 0
    if data is None:
        raise ValueError("this measure action needs a dataset file")

    hint = "; this is a blow-up dataset, use 'measure blowup-check'" \
        if isinstance(data, dict) and {"X", "Y", "Bl", "E"} <= data.keys() else ""

    def field(key):
        return _field(data, key, f"measure {args.action}: dataset", hint)

    G = construct_group(field("group"))
    if args.action == "euler":
        chi = euler_char_rep(G, per_class_values(G, field("fixed_locus")))
        payload = {"multiplicities": [str(Fraction(c)) for c in chi.coeffs]}
        _emit(payload, args.json, f"euler character multiplicities {payload['multiplicities']}")
        return 0
    if args.action in ("factor-check", "check"):
        symbol = load_symbol(G, field("symbol"))
        fc = factorization_check(symbol, per_class_values(G, field("fixed_locus")),
                                 max_order)
        ok = fc.ok
        extra = {}
        if args.action == "check" and data.get("sectors") is not None:
            from .measures import evaluate_invariant
            hp = evaluate_invariant(symbol_skeleton(symbol, max_order), "HP")
            orb = orbifold_dims(G, per_class_values(G, data["sectors"], pairs=True))
            extra = {"hp": list(hp), "orbifold": list(orb)}
            ok = ok and hp == orb
        payload = {"ok": ok,
                   "euler_side": [str(c) for c in fc.euler_side],
                   "skeleton_side": [str(c) for c in fc.skeleton_side], **extra}
        _emit(payload, args.json, "ok" if ok else "violation: " + json.dumps(payload))
        return 0 if ok else CHECK_FAILURE
    if args.action == "blowup-check":
        bc = blowup_check(load_expr(G, field("X")), load_expr(G, field("Y")),
                          json_integer(field("c"), "blow-up dataset field 'c'"),
                          load_expr(G, field("Bl")),
                          load_expr(G, field("E")), max_order)
        payload = {"ok": bc.ok, "messages": list(bc.messages)}
        _emit(payload, args.json, "ok" if bc.ok else "violation: " + "; ".join(bc.messages))
        return 0 if bc.ok else CHECK_FAILURE
    raise ValueError(f"unknown measure action {args.action!r}")


def _object(data, where: str) -> dict:
    """data if the JSON input is an object, or NotAnObject naming the input."""
    if not isinstance(data, dict):
        raise NotAnObject(f"{where} must be a JSON object, not {json.dumps(data)[:40]}")
    return data


def _field(data, key: str, where: str, hint: str = ""):
    """data[key] from a JSON object, or MissingField naming the field and the input."""
    if key in _object(data, where):
        return data[key]
    raise MissingField(f"{where} has no {key!r} field{hint}")


def cmd_selftest(args) -> int:
    failures, seconds = selftest_mod.run(fast=args.fast, verbose=not args.json)
    if args.json:
        print(json.dumps({"failures": failures, "seconds": seconds}, sort_keys=True))
    return 0 if not failures else CHECK_FAILURE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--seed", type=int, default=0,
                        help="splitting order of the modular eigenspace searches")
    common.add_argument("--max-order", type=int, default=SCHUR_DEFAULT_MAX_ORDER,
                        help="group-order guard for multiplier computations")
    # the shared flags follow the subcommand; before it they are a usage error
    parser = argparse.ArgumentParser(
        prog="motivelab",
        description="finite-group cohomology, twisted algebras, and motive skeletons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", parents=[common],
                       help="Schur multiplier invariant factors")
    p.add_argument("--group", required=True)

    p = sub.add_parser("chartable", parents=[common], help="character table")
    p.add_argument("--group", required=True)

    p = sub.add_parser("cocycle", parents=[common],
                       help="cocycle classify/mul/check")
    p.add_argument("action", choices=["classify", "mul", "check"])
    p.add_argument("files", nargs="+")
    p.add_argument("--group")

    p = sub.add_parser("twisted", parents=[common],
                       help="twisted group algebra report")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle")
    p.add_argument("--class", dest="cls")

    p = sub.add_parser("motive", parents=[common], help="skeleton operations")
    p.add_argument("action", choices=["decompose", "hom", "restrict", "localized-eq"])
    p.add_argument("--group")
    p.add_argument("--catalog")
    p.add_argument("--action", dest="motive_action", default="trivial")
    p.add_argument("--collection", help="CollectionSpec JSON file")
    p.add_argument("--a")
    p.add_argument("--b")

    p = sub.add_parser("chow", parents=[common],
                       help="Lefschetz twists and length checks")
    p.add_argument("--catalog", required=True)

    p = sub.add_parser("measure", parents=[common], help="measure-layer operations")
    p.add_argument("action",
                   choices=["nc", "euler", "factor-check", "blowup-check", "check"])
    p.add_argument("dataset", nargs="?")
    p.add_argument("--group")
    p.add_argument("--catalog")
    p.add_argument("--action", dest="motive_action", default="trivial")

    p = sub.add_parser("selftest", parents=[common],
                       help="run the acceptance battery")
    p.add_argument("--fast", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    handlers = {
        "schur": cmd_schur,
        "chartable": cmd_chartable,
        "cocycle": cmd_cocycle,
        "twisted": cmd_twisted,
        "motive": cmd_motive,
        "chow": cmd_chow,
        "measure": cmd_measure,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (MotiveLabError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
