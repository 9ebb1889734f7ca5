"""Golden CLI outputs: the stdout and exit code of a fixed set of calls,
text and --json, each pinned by a SHA-256 hash.  A change that keeps every
hash keeps the command line byte for byte.

The input files are written by the test, so stdout never holds a path.
The "seed" key that `twisted --json` once carried is dropped before
hashing.  To print the hashes of the current code:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from motivelab.cli import main
from motivelab.cocycles import central_pairing_cocycle
from motivelab.groups import cyclic_group


def _dataset(name: str) -> str:
    return str(resources.files("motivelab").joinpath("datasets", name))


def _inputs(d: Path) -> dict:
    """The input files of the calls, written under d."""
    def write(name, data):
        f = d / name
        f.write_text(json.dumps(data))
        return str(f)
    C2xC2 = {"kind": "product", "a": "cyclic:2", "b": "cyclic:2"}
    pairing = central_pairing_cocycle(cyclic_group(2))
    return {
        "pairing": write("pairing.json", {"group": C2xC2, "modulus": pairing.modulus,
                                          "exponents": pairing.table.tolist()}),
        "trivial": write("trivial.json", {"group": C2xC2, "modulus": 2,
                                          "exponents": [[0] * 4] * 4}),
        "broken": write("broken.json", {"group": "cyclic:2", "modulus": 2,
                                        "exponents": [[0, 1], [0, 0]]}),
        "units": write("units.json", {"group": "symmetric:3", "atoms": [
            {"kind": "twisted_unit", "class": []}, {"kind": "twisted_unit"}]}),
        "mixed": write("mixed.json", {"group": "dihedral:8", "atoms": [
            {"kind": "twisted_unit", "class": [1]},
            {"kind": "twisted_unit", "class": []},
            {"kind": "induced", "stabilizer": [0, 4]}]}),
        "blocks": write("blocks.json", {"blocks": [
            {"length": 1, "cocycle_class": [1]},
            {"length": 1, "cocycle_class": []},
            {"length": 1},
            {"length": 2, "stabilizer": [0, 1]}]}),
    }


CALLS = {
    "schur S4": ("schur", "--group", "symmetric:4"),
    "schur D8 json": ("schur", "--group", "dihedral:8", "--json"),
    "schur E8 json": ("schur", "--group", "elem_abelian:2,3", "--json"),
    "schur S5 json": ("schur", "--group", "symmetric:5", "--max-order", "120", "--json"),
    "chartable S3": ("chartable", "--group", "symmetric:3"),
    "chartable S4 json": ("chartable", "--group", "symmetric:4", "--json"),
    "chartable D12 json": ("chartable", "--group", "dihedral:12", "--json"),
    "chartable E8 json": ("chartable", "--group", "elem_abelian:2,3", "--json"),
    "cocycle check": ("cocycle", "check", "{pairing}", "--json"),
    "cocycle check broken": ("cocycle", "check", "{broken}"),
    "cocycle classify": ("cocycle", "classify", "{pairing}"),
    "cocycle classify json": ("cocycle", "classify", "{pairing}", "--json"),
    "cocycle mul json": ("cocycle", "mul", "{pairing}", "{pairing}", "--json"),
    "cocycle mul trivial": ("cocycle", "mul", "{pairing}", "{trivial}"),
    "twisted C4 json": ("twisted", "--group", "cyclic:4", "--json"),
    "twisted S4 class json": ("twisted", "--group", "symmetric:4", "--class", "1", "--json"),
    "twisted D8 class": ("twisted", "--group", "dihedral:8", "--class", "1"),
    "twisted E4 empty class json": ("twisted", "--group", "elem_abelian:2,2", "--class", "",
                                    "--json"),
    "twisted E4 cocycle json": ("twisted", "--group", "elem_abelian:2,2", "--cocycle",
                                "{pairing}", "--json"),
    "motive decompose catalog": ("motive", "decompose", "--group", "cyclic:2", "--catalog",
                                 "del_pezzo_bl2", "--action", '{"special_orbit": [0]}',
                                 "--json"),
    "motive decompose classes": ("motive", "decompose", "--group", "elem_abelian:2,2",
                                 "--catalog", "quadric_even:2", "--action",
                                 '{"line_class": [1], "special_classes": [[1], []]}'),
    "motive decompose collection": ("motive", "decompose", "--group", "elem_abelian:2,2",
                                    "--collection", "{blocks}", "--json"),
    "motive hom units": ("motive", "hom", "--a", "{units}", "--b", "{units}", "--json"),
    "motive hom mixed": ("motive", "hom", "--a", "{mixed}", "--b", "{mixed}"),
    "motive restrict": ("motive", "restrict", "--a", "{mixed}", "--json"),
    "motive localized-eq": ("motive", "localized-eq", "--a", "{units}", "--b", "{units}"),
    "chow del pezzo json": ("chow", "--catalog", "del_pezzo_bl2", "--json"),
    "chow grassmannian": ("chow", "--catalog", "grassmannian:2,4"),
    "measure nc json": ("measure", "nc", "--group", "cyclic:2", "--catalog",
                        "disjoint_points:2", "--action", '{"point_orbits": [[0]]}', "--json"),
    "measure euler json": ("measure", "euler", "@swapped_points_c2.json", "--json"),
    "measure factor-check": ("measure", "factor-check", "@p2_trivial_c2.json"),
    "measure check json": ("measure", "check", "@p1_c2.json", "--json"),
    "measure check collection": ("measure", "check", "@p1xp1_swap_c2.json", "--json"),
    "measure blowup-check json": ("measure", "blowup-check", "@del_pezzo_blowup.json",
                                  "--json"),
    "measure blowup-check": ("measure", "blowup-check", "@blowup_fixed_point.json"),
}

GOLDEN = {
    'schur S4': '50ad9d3f640854d7',
    'schur D8 json': '54486dae19c86091',
    'schur E8 json': 'fb1f9c056f5a47d6',
    'schur S5 json': 'd7e1ea9e5068d5c6',
    'chartable S3': 'f65ad90a74907c45',
    'chartable S4 json': '9b7dc712a5a3d30d',
    'chartable D12 json': '39a058960ba4eb03',
    'chartable E8 json': '1ccf0b0cad646387',
    'cocycle check': 'd2255c0713f5ff1f',
    'cocycle check broken': '68de68f32fd33988',
    'cocycle classify': '75ba56e9d8eef58b',
    'cocycle classify json': 'eaa9968b0e8a4d6e',
    'cocycle mul json': '6c6e72e5a1e4b779',
    'cocycle mul trivial': '5c804c4f6371f93e',
    'twisted C4 json': '52b65f0dc4c8156e',
    'twisted S4 class json': '7679fef57776b467',
    'twisted D8 class': '56f7900cff7502b5',
    'twisted E4 empty class json': 'f1c33275821e062a',
    'twisted E4 cocycle json': '90e87d8d9f1b8c01',
    'motive decompose catalog': '43e1b5eafc2a69aa',
    'motive decompose classes': '5be2011f6f0bb9a8',
    'motive decompose collection': 'e55800435fb00b1a',
    'motive hom units': '3e0bf7f4e63e3ea3',
    'motive hom mixed': '9ae3ee2d52ef7bae',
    'motive restrict': 'f071c8bb6748e7d6',
    'motive localized-eq': 'ff41244bcca128c6',
    'chow del pezzo json': '8e42e1d798b70331',
    'chow grassmannian': '473bf51f7c99b0b1',
    'measure nc json': 'b84254a2037dc215',
    'measure euler json': 'ad21be319655f3ca',
    'measure factor-check': '9dbd5131695af2d8',
    'measure check json': '88a8a947f898350c',
    'measure check collection': 'c76688e2cfb9cb72',
    'measure blowup-check json': '1d412b04c35b91f0',
    'measure blowup-check': '9dbd5131695af2d8',
}


def _argv(call: tuple, files: dict) -> list:
    """call with each @name a shipped dataset and each {name} an input file."""
    return [_dataset(a[1:]) if a.startswith("@") else files.get(a.strip("{}"), a)
            if a.startswith("{") else a for a in call]


def _digest(call: tuple, files: dict) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(call, files))
    text = out.getvalue()
    if call[0] == "twisted" and "--json" in call:
        payload = json.loads(text)
        payload.pop("seed", None)
        text = json.dumps(payload, sort_keys=True) + "\n"
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(CALLS))
def test_cli_output_is_golden(files, name):
    assert _digest(CALLS[name], files) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        files = _inputs(Path(d))
        for name, call in CALLS.items():
            print(f"    {name!r}: {_digest(call, files)!r},")
