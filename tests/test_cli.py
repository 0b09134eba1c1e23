import hashlib
import json
import os
import subprocess
import sys

import pytest

import amenability
from amenability import (
    GF2,
    RATIONALS,
    DirectionSampler,
    dump_subspace,
    gf,
    subspace_from_rows,
    subspace_to_json,
)
from amenability.cli import main


@pytest.fixture()
def segment_file(tmp_path):
    sp = subspace_from_rows([(1, 0, 0), (0, 1, 1)], [1, 2, 3], GF2)
    path = tmp_path / "seg.json"
    path.write_text(dump_subspace(sp))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# steiner


def test_steiner_outputs_exact_l1(segment_file, capsys):
    code, out = run_cli(capsys, "steiner", "--input", segment_file, "--samples", "512", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["l1"] == "2/1"
    assert doc["samples"] == 512
    assert doc["seed"] == 7
    assert len(doc["vector"]) == 3


def test_steiner_sample_counts_above_the_cap_are_a_capacity_error(segment_file, capsys):
    # --samples 10**30 once ran until killed
    cap = amenability.steiner._SAMPLE_CAP
    code, out = run_cli(capsys, "steiner", "--input", segment_file, "--samples", str(cap))
    assert code == 0 and json.loads(out)["samples"] == cap
    for N in (cap + 1, 10**30):
        code, out = run_cli(capsys, "steiner", "--input", segment_file, "--samples", str(N))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "CapacityError",
            "message": f"sample count {N} exceeds the cap of {cap}",
        }
        code, out = run_cli(
            capsys, "folner", "--group", "Z", "--family", "z-interval-span",
            "--n", "4", "--field", "0", "--samples", str(N),
        )
        assert code == 1 and json.loads(out)["error"]["type"] == "CapacityError"


def test_steiner_angles_sum_to_one(segment_file, capsys):
    code, out = run_cli(capsys, "steiner", "--input", segment_file, "--samples", "256", "--angles")
    assert code == 0
    doc = json.loads(out)
    total = sum(int(a["weight"].split("/")[0]) / int(a["weight"].split("/")[1]) for a in doc["angles"])
    assert abs(total - 1) < 1e-12


@pytest.mark.parametrize(
    "rows, field, argv, digest",
    [
        (
            [[1, 0, 0, 1, 1, 2], [0, 1, 0, 1, -1, 3], [0, 0, 1, 2, 1, -1]],
            RATIONALS,
            ["--samples", "4096", "--seed", "7"],
            "a4e8f92fa932b6513a77c26cb526051091f6e5dfb2d1f4ae9287e228f2b59720",
        ),
        (
            [[1, 0, 1, 2, 0, 0, 1], [0, 1, 1, 1, 0, 0, 2]],
            gf(3),
            ["--samples", "1000", "--seed", "11"],
            "953c1d598ba9856c53f99b7ee2ea5901337531dcacaa1e467e9e4344a9eb0792",
        ),
    ],
    ids=["q-3x6", "gf3-2x7-loops"],
)
def test_steiner_angles_documents_are_byte_identical(rows, field, argv, digest, tmp_path, capsys):
    # digests of documents whose angles were sampled apart from the estimate;
    # reading the angles off the estimate's hits must not change a byte
    path = tmp_path / "sub.json"
    path.write_text(dump_subspace(subspace_from_rows(rows, list(range(len(rows[0]))), field)))
    code, out = run_cli(capsys, "steiner", "--input", str(path), *argv, "--angles")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_steiner_angles_draw_each_direction_once(segment_file, capsys, monkeypatch):
    drawn = []
    chunk = DirectionSampler.chunk
    monkeypatch.setattr(DirectionSampler, "chunk", lambda self, c: drawn.append(c) or chunk(self, c))
    code, _ = run_cli(capsys, "steiner", "--input", segment_file, "--samples", "1100", "--angles")
    assert code == 0
    assert drawn == [0, 1, 2]


def test_steiner_missing_file_errors(capsys):
    code, out = run_cli(capsys, "steiner", "--input", "/nonexistent.json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "FileNotFound"


def test_degenerate_subspace_gives_structured_error(tmp_path, capsys):
    sp = subspace_from_rows([(0, 0)], [1, 2], GF2)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(subspace_to_json(sp)))
    code, out = run_cli(capsys, "steiner", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateInputError"


# ---------------------------------------------------------------------------
# matroid


def test_matroid_enumeration(segment_file, capsys):
    code, out = run_cli(capsys, "matroid", "--input", segment_file, "--bases")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["bases"] == [[1, 2], [1, 3]]
    assert doc["initial_basis"] == [1, 2]


@pytest.mark.parametrize("labels", [[1, "a"], [[1, 2], 3]])
def test_matroid_labels_of_mixed_types_give_structured_error(tmp_path, labels, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"field": {"char": 2}, "labels": labels, "rows": [[1, 0]]}))
    code, out = run_cli(capsys, "matroid", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ShapeError", "message": "labels must be mutually comparable",
    }


def test_matroid_float_entries_give_structured_error(tmp_path, capsys):
    # 1.5 was once truncated to 1 over GF(2)
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"field": {"char": 2}, "labels": [0, 1], "rows": [[1.5, 1]]}))
    code, out = run_cli(capsys, "matroid", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ShapeError", "message": "cannot interpret 1.5 over GF(2)",
    }


def test_matroid_fractional_characteristic_gives_structured_error(tmp_path, capsys):
    # 2.5 was once truncated to GF(2)
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"field": {"char": 2.5}, "labels": [0, 1], "rows": [[1, 1]]}))
    code, out = run_cli(capsys, "matroid", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "InvalidFieldError",
        "message": "characteristic must be 0 or a prime below 2**31, got 2.5",
    }


# ---------------------------------------------------------------------------
# folner


def test_folner_lamp_span(capsys):
    code, out = run_cli(
        capsys, "folner", "--group", "lamplighter", "--family", "lamp-span",
        "--n", "4", "--field", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["union_ratio"] == "1/2"
    assert doc["report"]["per_generator"]["b"] == "0/1"
    assert doc["report"]["size"] == 4


def test_folner_box_with_default_gens(capsys):
    code, out = run_cli(
        capsys, "folner", "--group", "lamplighter", "--family", "lamp-box", "--n", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["union_ratio"] == "2/3"
    assert doc["report"]["union_size"] == 5 * 8


def test_folner_function_witness(capsys):
    code, out = run_cli(
        capsys, "folner", "--group", "Z", "--family", "z-interval-span",
        "--n", "6", "--field", "0", "--samples", "128", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"]["+1"] == "1/3"
    assert doc["sampled_ratios"]["+1"] == "1/3"


def test_folner_capacity_error_is_structured(capsys):
    code, out = run_cli(
        capsys, "folner", "--group", "lamplighter", "--family", "lamp-box", "--n", "25",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CapacityError"


@pytest.mark.parametrize("family, field", [("lamp-box", []), ("lamp-span", ["--field", "2"])])
def test_folner_on_a_huge_lamp_family_is_the_capacity_error(family, field, capsys):
    # 10^30 once escaped as a raw OverflowError with a traceback
    n = str(10**30)
    code, out = run_cli(capsys, "folner", "--group", "lamplighter", "--family", family, "--n", n, *field)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "CapacityError",
        "message": "lamp families are capped at 1048576 points",
    }


@pytest.mark.parametrize("family, field, cap", [("z-interval", [], 1048576), ("z-interval-span", ["--field", "2"], 4096)])
def test_folner_on_a_huge_z_family_is_the_capacity_error(family, field, cap, capsys):
    # 10^30 once escaped as a raw OverflowError or ValueError with a traceback
    code, out = run_cli(capsys, "folner", "--group", "Z", "--family", family, "--n", str(10**30), *field)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "CapacityError", "message": f"{family} is capped at n = {cap}"}


@pytest.mark.parametrize(
    "points, images, error",
    [
        # nested lists are read as tuples, so the action loads and the family's points are refused
        ([[1, [2]], [3]], [[3], [1, [2]]], {"type": "DomainError", "message": "1 is not a point of the nested action"}),
        ([1, "a"], ["a", 1], {"type": "ShapeError", "message": "points must be mutually comparable"}),
    ],
)
def test_folner_on_finite_action_points_gives_structured_error(tmp_path, points, images, error, capsys):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"name": "nested", "points": points, "generators": {"r": images}}))
    code, out = run_cli(capsys, "folner", "--group", f"perm:{path}", "--family", "z-interval", "--n", "2")
    assert code == 1
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "a permutation action document must be a JSON object"),
        ({"points": [0, 1], "generators": [[1, 0]]}, "generators must map names to permutations"),
    ],
)
def test_folner_on_a_malformed_permutation_document_gives_structured_error(tmp_path, doc, message, capsys):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "folner", "--group", f"perm:{path}", "--family", "z-interval", "--n", "3")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ShapeError", "message": message}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"points": 5, "generators": {}}, "points must be a list, not 5"),
        ({"points": [0, 1], "generators": {"r": 5}}, "generator 'r' must map to a list of images, not 5"),
    ],
    ids=["points-not-a-list", "images-not-a-list"],
)
def test_folner_on_a_permutation_document_without_lists_gives_structured_error(tmp_path, doc, message, capsys):
    # these once escaped as a raw TypeError ('int' object is not iterable)
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "folner", "--group", f"perm:{path}", "--family", "z-interval", "--n", "3")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "ShapeError", "message": message}


@pytest.mark.parametrize("spec", ["Z^x", "free:x", "free:"])
def test_folner_on_a_malformed_group_spec_gives_structured_error(spec, capsys):
    code, out = run_cli(capsys, "folner", "--group", spec, "--family", "z-interval", "--n", "3")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "DomainError", "message": f"unknown group spec {spec!r}"}


# ---------------------------------------------------------------------------
# profile


def test_profile_family_csv(capsys):
    code, out = run_cli(
        capsys, "profile", "--group", "lamplighter", "--mode", "family",
        "--family", "lamp-span", "--field", "2", "--nmax", "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,ratio_num,ratio_den,witness"
    assert lines[1] == "1,2,1,lamp-span:1"
    assert lines[8] == "8,1,4,lamp-span:8"  # 2/8 reduced


def test_profile_exact_json(capsys):
    code, out = run_cli(
        capsys, "profile", "--group", "Z", "--mode", "exact",
        "--window-radius", "4", "--vmax", "6", "--format", "json", "--phi", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["ratio"] == "2/1"
    assert doc["rows"][5]["ratio"] == "1/3"
    assert doc["phi"]["1"] == 2  # ratio 2/2 = 1 at v = 2
    assert doc["phi"]["3"] == 6


@pytest.mark.parametrize("name", ["Z", "Z^2"])
def test_profile_exact_on_a_finite_action_has_no_base_point(tmp_path, name, capsys):
    # the name once chose the base point 0 or (0, 0), which is no point here
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"name": name, "points": ["a", "b"], "generators": {"r": ["b", "a"]}}))
    code, out = run_cli(capsys, "profile", "--group", f"perm:{path}", "--mode", "exact")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "DomainError", "message": f"no default base point for the {name} action",
    }


def test_profile_csv_is_deterministic(capsys):
    args = ["profile", "--group", "Z", "--family", "z-interval", "--nmax", "10"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_profile_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _ = run_cli(
        capsys, "profile", "--group", "Z", "--family", "z-interval",
        "--nmax", "4", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("v,ratio_num")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["profile", "--group", "lamplighter", "--gens", "+1,-1,b", "--mode", "family",
             "--family", "lamp-span", "--nmax", "8", "--field", "3", "--format", "json"],
            "54ca7137acce676e6450c813be60a85a665b21bbf94a47feb8906fc6746a00d9",
        ),
        (
            ["folner", "--group", "lamplighter", "--family", "lamp-span", "--n", "6",
             "--field", "0"],
            "1c661d3fcd54062893643dfbc62df6125cf14a439b729b88cba8e95ae274afa4",
        ),
    ],
    ids=["profile-lamp-span-gf3", "folner-lamp-span-q"],
)
def test_lamp_span_documents_are_byte_identical(argv, digest, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["folner", "--group", "lamplighter", "--family", "lamp-box", "--n", "6"],
            "1424834118b0dbf17abde853531f9a60a92b297b96601a8b08afb5769f14a7a9",
        ),
        (
            ["profile", "--group", "lamplighter", "--mode", "family", "--family", "lamp-box",
             "--nmax", "8", "--format", "json"],
            "740dd2f1ce55d84d0a77b92e7244fd1524dd186c39d3df5df3cb75067a3dd6f3",
        ),
    ],
    ids=["folner-lamp-box", "profile-lamp-box-json"],
)
def test_lamp_box_documents_are_byte_identical(argv, digest, capsys):
    # the set side of the lamplighter exhibit: the box is built in sorted
    # order, and the documents must not change a byte
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# verify and the entry point


def test_verify_subset_of_criteria(capsys):
    code, out = run_cli(capsys, "verify", "--only", "1,6,9")
    assert code == 0
    assert out.count("PASS") == 3
    assert "lamplighter set family" in out
    assert "3/3 criteria passed" in out


@pytest.mark.parametrize("only", ["11", "2,11"])
def test_verify_rejects_unknown_criteria(only, capsys):
    code, out = run_cli(capsys, "verify", "--only", only)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert "numbered 11;" in error["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["profile", "--mode", "bogus"])
    assert info.value.code == 2


def test_import_loads_no_sympy():
    src = os.path.dirname(os.path.dirname(amenability.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, amenability; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "amenability.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "steiner" in proc.stdout and "verify" in proc.stdout
