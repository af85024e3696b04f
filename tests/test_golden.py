"""Golden pin: one sha256 over the exit code and stdout of every command,
and the bytes of every file written, for a fixed seeded CLI corpus.

Any change to a tree, a tie-break, a cost, a float format or a file
layout moves the digest.  A change that means to keep every output byte
for byte must leave it as it is.
"""

import hashlib
from pathlib import Path

from lazybst.cli import main

GOLDEN = "580b031506e877ae6b90b57bc0b06d3a6f02e0003d438ff7378f7be69280d825"

WORKLOADS = (("sequential", 20, 300), ("bitrev", 32, 320), ("rounds", 30, 400),
             ("markov", 40, 600), ("uniform", 24, 400))


def corpus():
    argvs = []
    for kind, n, m in WORKLOADS:
        seq, freq, lazy, root, w = (f"{kind}.{ext}" for ext in ("seq", "freq", "lazy",
                                                                "root", "w"))
        argvs.append(["gen", "--kind", kind, "--n", str(n), "--m", str(m), "--seed", "7",
                      "--out", seq])
        argvs += [
            ["freq", "--seq", seq, "--out", freq],
            ["freq", "--seq", seq],
            ["opt", "--method", "lazy", "--freq", freq, "--out", lazy],
            ["opt", "--method", "root", "--seq", seq, "--out", root],
            ["eval", "--method", "lazy", "--tree", lazy, "--seq", seq],
            ["eval", "--method", "root", "--tree", root, "--seq", seq],
            ["weights", "--tree", lazy, "--out", w],
            ["weights", "--tree", root],
            ["bound", "--weights", w, "--seq", seq],
            ["build", "--kind", "balanced", "--n", str(n), "--out", f"{kind}.bal"],
            ["build", "--kind", "mehlhorn", "--weights", w, "--out", f"{kind}.meh"],
            ["build", "--kind", "treap", "--weights", w, "--seed", "5"],
            ["multitree", "--seq", seq, "--d", "4", "--dump", f"{kind}.mt"],
            ["compare", "--seq", seq, "--seed", "1"],
            ["compare", "--seq", seq, "--seed", "2", "--d", "3"],
        ]
    return argvs


def test_cli_corpus_matches_its_golden_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in corpus():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        h.update(f"{' '.join(argv)}\n{code}\n{len(out)}\n{out}".encode())
    for path in sorted(Path(tmp_path).iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\n{len(data)}\n".encode() + data)
    assert h.hexdigest() == GOLDEN
