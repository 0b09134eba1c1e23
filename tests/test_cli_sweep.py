"""Seeded single-node mutations of CLI input documents.

Each mutation replaces one node of a valid subspace or permutation
document with a value from a fixed pool.  Every run of ``cli.main`` on
the result must either succeed (exit 0) or print an ``{"error": ...}``
document and exit 1: no raw exception may cross the command line.
"""

import copy
import json
import random

import pytest

from amenability.cli import main

SUBSPACE = {
    "field": {"char": 0},
    "labels": [1, 2, 3, 4],
    "rows": [["1/1", "0/1", "2/1", "1/1"], ["0/1", "1/1", "1/1", "-1/2"]],
}
PERMUTATION = {
    "name": "sweep",
    "points": [1, 2, 3, 4],
    "generators": {"r": [2, 3, 4, 1], "s": [2, 1, 3, 4]},
}
VALUES = [5, 2.5, "x", None, [], {}, [[1]], True, -1, "1/0", 10**30, float("nan"), [[1, [2]], [[]]]]
MUTATIONS = 300


def paths(node, prefix=()):
    """The path of every node of a JSON tree, the root's first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from paths(child, prefix + (key,))


def mutated(doc, rng):
    """``doc`` with one node, chosen by ``rng``, replaced by a value of the pool."""
    path = rng.choice(list(paths(doc)))
    value = copy.deepcopy(rng.choice(VALUES))
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def commands(path):
    return {
        "subspace": [
            ["steiner", "--input", path, "--samples", "64", "--angles"],
            ["matroid", "--input", path, "--bases"],
        ],
        "permutation": [
            ["folner", "--group", f"perm:{path}", "--family", "z-interval", "--n", "3"],
            ["profile", "--group", f"perm:{path}", "--mode", "family", "--nmax", "3"],
        ],
    }


@pytest.mark.parametrize("kind, doc", [("subspace", SUBSPACE), ("permutation", PERMUTATION)])
def test_the_unmutated_documents_run(kind, doc, tmp_path, capsys):
    # the sweep starts from documents every command accepts
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in commands(str(path))[kind]:
        assert main(argv) == 0, capsys.readouterr().out
        capsys.readouterr()


@pytest.mark.parametrize("kind, doc, seed", [("subspace", SUBSPACE, 61), ("permutation", PERMUTATION, 62)])
def test_mutated_documents_succeed_or_give_an_error_document(kind, doc, seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "doc.json"
    argvs = commands(str(path))[kind]
    for _ in range(MUTATIONS):
        text = json.dumps(mutated(doc, rng))
        path.write_text(text)
        for argv in argvs:
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} on {text} raised {exc!r}")
            out = capsys.readouterr().out
            if code != 0:
                assert code == 1, f"{argv[0]} on {text} exited {code}"
                error = json.loads(out)["error"]
                assert set(error) == {"type", "message"}, f"{argv[0]} on {text}: {out}"
