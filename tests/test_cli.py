"""
CLI tests: output shapes, formats, exit codes, file vectors, and the
byte-for-byte determinism contract.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lensq
from lensq.catalog import FIXTURE_FILE, alternating_vector
from lensq.cone import is_fundamental
from lensq.qsystem import q_matrix
from lensq.triangulation import build_triangulation

ROOT = Path(__file__).resolve().parents[1]

TWO_ONE_ROWS = [
    [-2, 2, 0, 2, 0, -2],
    [2, 0, -2, -2, 2, 0],
    [0, -1, 1, 0, -1, 1],
    [0, -1, 1, 0, -1, 1],
]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lensq.cli", *args],
        capture_output=True, text=True)


def test_matrix_table():
    result = run_cli("matrix", "--p", "2", "--q", "1")
    assert result.returncode == 0
    assert "-2  2  0  2  0 -2" in result.stdout
    assert result.stdout.startswith("q matching matrix")


def test_matrix_json_envelope():
    result = run_cli("matrix", "--p", "2", "--q", "1", "--format", "json")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["command"] == "matrix"
    assert data["params"] == {"p": 2, "q": 1}
    assert data["payload"]["rows"] == TWO_ONE_ROWS
    assert data["payload"]["row_labels"] == ["e1", "e2", "Eh", "Ev"]
    assert "tool_version" in data


def test_haken_matrix_dimensions():
    result = run_cli("matrix", "--p", "5", "--q", "2", "--system", "haken",
                     "--format", "json")
    payload = json.loads(result.stdout)["payload"]
    assert len(payload["rows"]) == 30
    assert len(payload["rows"][0]) == 35


def test_haken_matrix_json_is_byte_stable():
    result = run_cli("matrix", "--p", "5", "--q", "2", "--system", "haken",
                     "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "111275b1479375820420d4b374b294f7abfe59efa7336688c837b4828b15212a")


@pytest.mark.parametrize("p,q,digest", [
    ("5", "2",
     "c4f818ea19ab6f4d71f0861c4825c3101ce4aeaa3ebc3c8a7be86acbf8a38ea9"),
    ("2", "1",
     "526029c53f7c68ad769bbe0304a4a91172fe19b34f752d62d4d085773dffe40f"),
    ("7", "1",
     "b1813a7e069a4da57dc9ecca184ff85cde93164c2e0d77240290f597987a3fe3"),
])
def test_q_matrix_json_is_byte_stable(p, q, digest):
    result = run_cli("matrix", "--p", p, "--q", q, "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_raw_hilbert_json_is_byte_stable():
    result = run_cli("enum", "--p", "5", "--q", "2", "--raw-hilbert",
                     "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "cde4320cfe51e28ec20d052e0545f570483dc7b958fc778f994add8f26cd93a2")


# sha256 of ``enum --p P --q Q --format json --raw-hilbert`` stdout,
# pinned when the completion ran on the orbits of the block rotations
# alone, before it took the block reflection too.
RAW_DIGESTS = {
    (4, 3):
        "81ed61acaa7c85471b2024ad8e29279cedfa104d75a79a067ae4be621d0c75ec",
    (5, 1):
        "c632ef7872d442e05ca002321275621710a912f0d7d368cf9c769361d9b347c3",
    (5, 3):
        "3bcd744536308faeaa3e03a51d1f45cbc86a53cc6a45e889de11be178d6487b9",
    (5, 4):
        "6d6a8d5b07e68c68f32f49e7447b15759a06d4f7a57a810f4a1799185903831b",
}


@pytest.mark.parametrize("p,q", sorted(RAW_DIGESTS))
def test_raw_hilbert_json_is_byte_stable_on_dihedral_orbits(p, q):
    result = run_cli("enum", "--p", str(p), "--q", str(q), "--raw-hilbert",
                     "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(
        result.stdout.encode()).hexdigest() == RAW_DIGESTS[p, q]


# sha256 of ``enum --p P --q Q --format json`` stdout, pinned when the
# square fundamentals came from the necklace walk over the 3^p patterns,
# and for q > p/2, where the reflection's renaming of the edge weights
# shows, when every fundamental was classified on its own.
ENUM_DIGESTS = {
    (7, 5):
        "a8655231b3e2e6ed2fd1c0262732d2d9d86fd83e93c1713acd75fa09a73d9354",
    (8, 5):
        "35619a31dc5fd3726bbd117e9701be6ff159e003aa243cd60d03fc1189d5c4d2",
    (9, 2):
        "8673c0d7c1bb3f7a552eb864d8df6dc2cc7c805f290b4cbd69155da605055dcd",
    (9, 4):
        "3578b951ff50c385d4cdd61540e04d77084510377b8ead152a311d389823b7d8",
    (10, 3):
        "89d5695aaf054fd140ff039b29d3d853f8a3b24475e94b52b9dd11959ac32737",
    (11, 2):
        "2b9e75f95e9ce7eb9d6f906c6b9443b52bcf4b22ecaa6d162c749f96b06eb664",
    (11, 3):
        "7fa10f146e3fda96c06793d79cb1d07a98d25ff59170e5a7d7a256e004a980fa",
    (11, 4):
        "7b0390b90a15073ac1a42612971a35da5eead7000ce889c88916b27beaae8219",
    (11, 5):
        "3185227207bd744b7b55cc7b8edc1cfc03d51b7838e2dec5fac55744ec35346c",
    (11, 7):
        "a75ce5d5eaeda7736fb354cad69fd09ecf3da2dd26f97704bc44cb4831c6b310",
    (12, 5):
        "a5baded732002c5e7391b428d2d442576e173e2557c7839d8a00be19962ba64c",
    (12, 7):
        "a714048f26047f7bb2887a6bf93c75f1630ea4bcfc7a3512d5185670a72c15e2",
    (13, 2):
        "1a3dd698d396c8173f7bec3129d8188e84b6eb0cc51760ba1d20084568387f1f",
}


def test_enum_json_is_byte_stable_up_to_p_13():
    for (p, q), digest in ENUM_DIGESTS.items():
        result = run_cli("enum", "--p", str(p), "--q", str(q),
                         "--format", "json")
        assert result.returncode == 0, (p, q)
        assert hashlib.sha256(
            result.stdout.encode()).hexdigest() == digest, (p, q)


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's input builders, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Commands whose stdout sha256 ``perfbench/reference.json`` records under
# their label, each run with the argv ``perfbench/workloads.py`` builds
# for it: the benchmark's whole commands and the classify-large inputs
# (the (418,153) fixture times 31, 32 and 33, surfaces of many
# components, and the alternating vector at p = 1000).
REFERENCE_LABELS = (
    "enum-7-2", "enum-8-3", "enum-5-2", "enum-4-1-raw", "verify-fixtures",
    "classify-418-153-fixture0", "classify-8-3-fixture0",
    "classify-418-153-x31", "classify-418-153-x32", "classify-418-153-x33",
    "classify-alt-1000-3",
)


def _alternating_100000(workloads, tmp_path):
    # 600 KB is past the per-argument limit, so the vector is read from
    # a record file.
    path = tmp_path / "alternating.txt"
    path.write_text("100000 3 " + ",".join(
        map(str, alternating_vector(100000, 3))) + "\n")
    return ["classify", "--p", "100000", "--q", "3", "--format", "json",
            "--vector", f"@{path}"]


# Commands pinned here, by name: (argv, or a function of the workloads
# module and a scratch directory that builds it, stdout sha256).
PINNED = {
    # The two large classify paths, as the per-slot Python passes
    # printed them: the (418,153) fixture times 1000, and the
    # alternating vector at p = 100000.
    "classify-418-153-x1000": (
        lambda workloads, _: workloads.scaled_fixture(1000)[1],
        "158917bf852f527bd080a67f74bcf2da3221c73bb2bddd02c5db81c677bf3265"),
    "classify-alt-100000-3": (
        _alternating_100000,
        "b0bb2b8bf7eff8ead15818fc8c81400e79e8ec66ed4e44c7c685b04453648a2a"),
    # The quad and the full matching matrix, as printed before
    # haken_matrix read one corner-slot array.
    "matrix-8-3-haken-csv": (
        ["matrix", "--p", "8", "--q", "3", "--system", "haken",
         "--format", "csv"],
        "a4c9b15661e23298e03da9a1e168e7f02f22362c69c93b6812a446b99ccc7b00"),
    "matrix-8-3-json": (
        ["matrix", "--p", "8", "--q", "3", "--format", "json"],
        "d20c8c7470f9486920770b0b411afc847d62764755d35da3da2aadafd077cd55"),
    "matrix-7-2-haken-table": (
        ["matrix", "--p", "7", "--q", "2", "--system", "haken"],
        "7a8c6f65f5ad16e295388ee73748da67ec2da044cbefe48f83467139a2a9753e"),
    # The merged quad columns (q = 1, q = p - 1), as the tuple-of-pairs
    # columns printed them, and the doubled q = 1 column through
    # admission, decompose and the box search.
    "matrix-3-1-csv": (
        ["matrix", "--p", "3", "--q", "1", "--format", "csv"],
        "473ee7fca91ec99f3797d7576851a61b3b971d0e61673082e55ba996905ad8e8"),
    "matrix-7-6-table": (
        ["matrix", "--p", "7", "--q", "6"],
        "9b8dbfc03d2ba680087f0d4214dad09402506f48489d0d1d3c894691ef456fe1"),
    "classify-4-1-fundamental": (
        ["classify", "--p", "4", "--q", "1", "--format", "json", "--vector",
         "1,0,0,1,0,0,1,0,0,1,0,0", "--fundamental"],
        "9f249d0dbb8d44e54c3929f99abb289487befb857fd14c71447d681b29c504f1"),
    "verify-9-2": (
        ["verify", "--p", "9", "--q", "2"],
        "2ce3cdac4a943df812a2cbecd04411f88b80f2c52265470f19802d3b54331a23"),
    "verify-10-3": (
        ["verify", "--p", "10", "--q", "3"],
        "f6ba4d631c32876ec370f43dfb726756719bbac8bbb0543c4ba40e73bbbc3317"),
    # Two searches through the core exchange (q^2 = 1 at (12,5), -1 at
    # (13,5)), as printed when the faces were solved per dihedral orbit
    # and completed without their stabilizers.
    "enum-12-5-json": (
        ["enum", "--p", "12", "--q", "5", "--format", "json"],
        "a5baded732002c5e7391b428d2d442576e173e2557c7839d8a00be19962ba64c"),
    "enum-13-5-json": (
        ["enum", "--p", "13", "--q", "5", "--format", "json"],
        "39d8cf876aafc6668431ad0693d172dc7ac0d8c186608f767d8ac52ae245089c"),
}


@pytest.mark.parametrize("name", REFERENCE_LABELS + tuple(PINNED))
def test_stdout_digest(name, workloads, tmp_path, monkeypatch):
    # The workloads name the fixture file by its path from the root.
    monkeypatch.chdir(ROOT)
    if name in PINNED:
        argv, digest = PINNED[name]
        if callable(argv):
            argv = argv(workloads, tmp_path)
    else:
        argv = workloads.all_commands()[name]
        digest = json.loads((ROOT / "perfbench" / "reference.json")
                            .read_text())["stdout_sha256"][name]
    result = run_cli(*argv)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_matrix_csv_round_trips():
    result = run_cli("matrix", "--p", "3", "--q", "1", "--format", "csv")
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 1 + 5  # header + p+2 rows
    assert lines[1].startswith("e1,")


def test_invalid_params_exit_code():
    result = run_cli("matrix", "--p", "4", "--q", "2")
    assert result.returncode == 1
    assert "InvalidParams" in result.stderr
    assert result.stderr.count("\n") == 1  # single-line reason


def test_enum_two_one():
    result = run_cli("enum", "--p", "2", "--q", "1", "--format", "json")
    payload = json.loads(result.stdout)["payload"]
    assert len(payload["fundamental"]) == 3
    names = sorted(rec["components"][0]["name"]
                   for rec in payload["fundamental"])
    assert names == ["projective plane", "projective plane", "torus"]


def test_enum_six_one_count():
    result = run_cli("enum", "--p", "6", "--q", "1", "--format", "json")
    payload = json.loads(result.stdout)["payload"]
    assert len(payload["fundamental"]) == 9


def test_enum_sixteen_seven_finishes_under_the_default_budget():
    # Its widest face completes on its stabilizer; completed without
    # one, it grew past the default frontier cap.
    result = run_cli("enum", "--p", "16", "--q", "7", "--format", "json")
    assert result.returncode == 0, result.stderr
    found = json.loads(result.stdout)["payload"]["fundamental"]
    assert len(found) == 33
    matrix = q_matrix(build_triangulation(16, 7))
    assert all(is_fundamental(matrix, record["vector"]) for record in found)


def test_enum_raw_hilbert():
    result = run_cli("enum", "--p", "3", "--q", "1", "--raw-hilbert",
                     "--format", "json")
    payload = json.loads(result.stdout)["payload"]
    assert len(payload["hilbert_basis"]) == 17
    raw = {tuple(v) for v in payload["hilbert_basis"]}
    fundamental = {tuple(rec["vector"]) for rec in payload["fundamental"]}
    assert fundamental < raw
    assert (1, 1, 1, 0, 0, 0, 0, 0, 0) in raw


def test_enum_budget_exit_code():
    result = run_cli("enum", "--p", "6", "--q", "1",
                     "--max-seconds", "0.001")
    assert result.returncode == 3
    assert "budget" in result.stderr


def test_enum_budget_message_names_the_users_limit():
    # The (16,3) search runs past the default 60 s budget, far past the
    # limit; the (14,3) search, once seconds long, now takes about half
    # a second.
    result = run_cli("enum", "--p", "16", "--q", "3", "--max-seconds", "0.2")
    assert result.returncode == 3
    assert "0.2 seconds" in result.stderr
    assert result.stderr.count("\n") == 1


def test_enum_budget_holds_at_large_p():
    # The double description reads the deadline at every row and every
    # chunk of pairs, so a search far too large to finish stops soon
    # after its limit.
    start = time.monotonic()
    result = run_cli("enum", "--p", "2000", "--q", "3", "--max-seconds", "1")
    assert result.returncode == 3
    assert "search exceeded 1.0 seconds" in result.stderr
    assert result.stderr.count("\n") == 1
    assert time.monotonic() - start < 10


def test_enum_budget_holds_through_the_set_up_at_p_50000():
    # The triangulation, the quad columns and the block rotation guard
    # are built by array passes, so the first budget read comes soon.
    start = time.monotonic()
    result = run_cli("enum", "--p", "50000", "--q", "3", "--max-seconds", "1")
    assert result.returncode == 3
    assert result.stderr == (
        "error: budget exceeded: search exceeded 1.0 seconds\n")
    assert time.monotonic() - start < 2.5


def test_enum_budget_is_read_before_the_completion_set_up():
    # At p=800 the set-up of the search, the sparse rows of the double
    # description, must not hold the deadline back.
    start = time.monotonic()
    result = run_cli("enum", "--p", "800", "--q", "3", "--max-seconds", "1")
    assert result.returncode == 3
    assert "search exceeded 1.0 seconds" in result.stderr
    assert time.monotonic() - start < 1.6


@pytest.mark.parametrize("limit,message", [
    (("--max-frontier", "1000"), "normal disks grew past 1000 states"),
    (("--max-seconds", "0.05"), "search exceeded 0.05 seconds"),
])
def test_classify_obeys_the_budget(limit, message):
    # The first (8,3) fixture times 10^4 has 80,000 normal disks, past
    # the frontier cap; times 10^5 it classifies in over a second, far
    # past the deadline.
    scale = 10 ** 5 if limit[0] == "--max-seconds" else 10 ** 4
    h = (0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0,
         0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0)
    result = run_cli("classify", "--p", "8", "--q", "3", "--vector",
                     ",".join(str(scale * x) for x in h), *limit)
    assert result.returncode == 3
    assert message in result.stderr
    assert result.stderr.count("\n") == 1


def test_enum_determinism_and_threads():
    runs = [run_cli("enum", "--p", "5", "--q", "2", "--format", "json",
                    "--threads", t).stdout for t in ("1", "1", "3")]
    assert runs[0] == runs[1] == runs[2]


def test_classify_formats_each_distinct_coefficient_once(monkeypatch,
                                                        capsys):
    # At p = 1000 the a-coefficients of the alternating vector take one
    # value and the b-coefficients two; the 2p entries share them.
    from fractions import Fraction
    from lensq import cli

    made = []
    text = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__",
                        lambda x: made.append(x) or text(x))
    vector = ",".join(map(str, alternating_vector(1000, 3)))
    assert cli.main(["classify", "--p", "1000", "--q", "3", "--vector",
                     vector, "--format", "json"]) == 0
    coefficients = json.loads(capsys.readouterr().out)["payload"][
        "coefficients"]
    assert len(coefficients["a"]) == len(coefficients["b"]) == 1000
    assert len(made) == len(set(coefficients["a"])) + len(
        set(coefficients["b"])) == 3


def test_classify_inline_vector():
    result = run_cli("classify", "--p", "7", "--q", "1", "--vector",
                     ",".join(["1", "0", "0"] * 7), "--format", "json")
    payload = json.loads(result.stdout)["payload"]
    assert payload["euler"] == 0
    assert payload["orientable"] is True
    assert payload["components"][0]["name"] == "torus"
    assert payload["coefficients"]["a"] == ["1"] * 7
    assert payload["coefficients"]["b"] == ["-1/2"] * 7
    assert payload["integrality"] == {"B": "Z+1/2"}


def test_classify_from_fixture_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text(
        "# records\n"
        "8 3 0,0,0,0,1,0,0,0,0,0,0,0,0,0,1,0,1,0,0,0,1,0,0,0 klein\n"
        "2 1 1,0,0,1,0,0 torus\n")
    result = run_cli("classify", "--p", "8", "--q", "3",
                     "--vector", f"@{path}", "--format", "json",
                     "--fundamental")
    payload = json.loads(result.stdout)["payload"]
    assert payload["euler"] == 0
    assert payload["orientable"] is False
    assert payload["components"][0]["name"] == "Klein bottle"
    assert payload["is_fundamental"] is True


def test_classify_file_needs_index_when_ambiguous(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 1 1,0,0,1,0,0 a\n2 1 0,1,0,0,0,1 b\n")
    result = run_cli("classify", "--p", "2", "--q", "1",
                     "--vector", f"@{path}")
    assert result.returncode == 1
    assert "--index" in result.stderr
    result = run_cli("classify", "--p", "2", "--q", "1",
                     "--vector", f"@{path}", "--index", "1",
                     "--format", "json")
    assert json.loads(result.stdout)["payload"]["euler"] == 1


def test_classify_file_index_out_of_range(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("2 1 1,0,0,1,0,0 a\n2 1 0,1,0,0,0,1 b\n")
    for index in ("2", "9", "-1"):
        result = run_cli("classify", "--p", "2", "--q", "1",
                         "--vector", f"@{path}", "--index", index)
        assert result.returncode == 1, index
        assert f"--index {index} out of range" in result.stderr
        assert str(path) in result.stderr
        assert result.stderr.count("\n") == 1


def test_classify_file_malformed_record(tmp_path):
    for bad in ("2 1 1,0,x,1,0,0 a", "2 1", "2 one 1,0,0,1,0,0 a"):
        path = tmp_path / "vectors.txt"
        path.write_text(f"# records\n{bad}\n")
        result = run_cli("classify", "--p", "2", "--q", "1",
                         "--vector", f"@{path}")
        assert result.returncode == 1, bad
        assert f"{path}:2: malformed record" in result.stderr
        assert result.stderr.count("\n") == 1


def test_classify_file_not_utf8(tmp_path):
    path = tmp_path / "vectors.bin"
    path.write_bytes(b"8 3 0,0,1\n\xff\xfe\x00\x80 binary\n")
    result = run_cli("classify", "--p", "8", "--q", "3",
                     "--vector", f"@{path}")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert str(path) in result.stderr
    assert "UTF-8" in result.stderr
    assert result.stderr.count("\n") == 1


def test_classify_fundamental_past_the_recursion_limit():
    vector = ",".join(map(str, [0, 0, 1, 0, 1, 0] * 500))
    result = run_cli("classify", "--p", "1000", "--q", "3",
                     "--vector", vector, "--fundamental")
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("fundamental: False\n")


def test_classify_settles_the_giant_fixture_as_a_vertex():
    # The box below the (418,153) fixture is far too large to search;
    # the vector is a vertex with coprime entries, hence fundamental.
    fixtures = Path(lensq.__file__).parent / "data" / FIXTURE_FILE
    result = run_cli("classify", "--p", "418", "--q", "153", "--vector",
                     f"@{fixtures}", "--index", "0", "--fundamental",
                     "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["payload"]["is_fundamental"] is True


def test_classify_zero_vector_is_invalid():
    result = run_cli("classify", "--p", "2", "--q", "1",
                     "--vector", "0,0,0,0,0,0")
    assert result.returncode == 1
    assert "EmptyVector" in result.stderr


def test_classify_non_solution_is_invalid():
    result = run_cli("classify", "--p", "2", "--q", "1",
                     "--vector", "1,0,0,0,0,0")
    assert result.returncode == 1
    assert "NotASolution" in result.stderr


@pytest.mark.parametrize("bump,error", [
    (-2, "NegativeEntry: vector has a negative entry: position 5 is -2"),
    (1, "NotASolution: A . v != 0: row e"),
], ids=["negative", "non-solution"])
def test_classify_names_one_entry_of_a_bad_vector_at_p_100000(
        tmp_path, bump, error):
    # The message names one position or one row: formatting the whole
    # vector made one line of about 900 KB.
    p = 10 ** 5
    vector = list(lensq.alternating_vector(p, 3))
    vector[5] += bump
    record = tmp_path / "vector.txt"
    record.write_text(f"{p} 3 " + ",".join(map(str, vector)) + "\n")
    result = run_cli("classify", "--p", str(p), "--q", "3",
                     "--vector", f"@{record}")
    assert result.returncode == 1
    assert error in result.stderr and len(result.stderr) < 200


def test_classify_rejects_a_wrong_length_vector_before_building(
        monkeypatch, capsys):
    from lensq import cli

    def refuse(*args):
        raise AssertionError("the triangulation was built")

    monkeypatch.setattr(cli, "build_triangulation", refuse)
    assert cli.main(["classify", "--p", "200000", "--q", "3",
                     "--vector", "1,0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DimensionMismatch: ")
    assert err.count("\n") == 1
    # Bad parameters are reported as such, whatever the vector.
    assert cli.main(["classify", "--p", "1", "--q", "1",
                     "--vector", "1,0,0"]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidParams: ")


def test_classify_huge_coordinates_exit_on_the_budget():
    big = "100000000000000000000000"
    result = run_cli("classify", "--p", "2", "--q", "1",
                     "--vector", f"{big},0,0,{big},0,0",
                     "--max-frontier", "1" + "0" * 36)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: budget exceeded: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["enum", "matrix", "verify"])
def test_p_past_int64_exits_on_the_budget(command):
    result = run_cli(command, "--p", "1" + "0" * 21, "--q", "1")
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == ("error: budget exceeded: p = 1" + "0" * 21
                             + " cannot be indexed in int64\n")


def test_memory_error_is_reported_as_budget_exceeded(monkeypatch, capsys):
    from lensq import cli

    def exhaust(args):
        raise MemoryError("Unable to allocate 55.9 GiB")

    monkeypatch.setattr(cli, "cmd_enum", exhaust)
    assert cli.main(["enum", "--p", "5", "--q", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: budget exceeded: Unable to allocate 55.9 GiB\n")


def test_verify_pass_and_json():
    result = run_cli("verify", "--p", "3", "--q", "1")
    assert result.returncode == 0
    assert "verification passed" in result.stdout
    result = run_cli("verify", "--p", "7", "--q", "2", "--format", "json",
                     "--max-seconds", "120")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["payload"]["passed"] is True


def test_verify_fixtures():
    result = run_cli("verify", "--fixtures", "--max-seconds", "120")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    assert "(418,153) giant: haken-criterion" in result.stdout


def test_missing_verify_target():
    result = run_cli("verify")
    assert result.returncode == 1


@pytest.mark.parametrize("args", [
    ("classify", "--p", "2", "--q", "1", "--vector", "1,0,0,1,0,0",
     "--index", "0"),
    ("verify", "--fixtures", "--p", "3", "--q", "1"),
    ("verify", "--fixtures", "--q", "1"),
])
def test_options_that_would_be_ignored_are_rejected(args):
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ["enum", "--p", "3", "--q", "1", "--raw-hilbert"],
    ["verify", "--fixtures"],
    ["classify", "--p", "2", "--q", "1", "--vector", "1,0,0,1,0,0",
     "--fundamental"],
])
def test_one_budget_clock_per_command(argv, monkeypatch, capsys):
    from lensq import cli, cone
    made = []
    make = cone.Budget.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        make(self, *args, **kwargs)

    monkeypatch.setattr(cone.Budget, "__init__", counting)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(made) == 1


def test_max_frontier_caps_one_search_not_the_command():
    # The eight minimality checks each hold at most three box-search
    # solutions, though together they visit far more than 100 nodes.
    result = run_cli("verify", "--fixtures", "--max-frontier", "100")
    assert result.returncode == 0, result.stderr
    assert "verification passed" in result.stdout


@pytest.mark.parametrize("args", [
    ("classify", "--p", "2", "--q", "1", "--vector", "-1,0,0,-1,0,0"),
    ("enum", "--p", "2", "--q", "1", "--max-seconds", "-1"),
    ("enum", "--p", "2", "--q", "1", "--max-frontier", "-5"),
])
def test_usage_errors_exit_one_with_one_line(args):
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize("args", [("--help",), ("--version",),
                                  ("enum", "--help")])
def test_help_and_version_exit_zero(args):
    result = run_cli(*args)
    assert result.returncode == 0
    assert result.stdout
