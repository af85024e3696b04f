"""End-to-end subcommand tests driven through main(argv)."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lazybst
from lazybst import SearchSequence, build_balanced
from lazybst.cli import main
from lazybst.fileio import (read_freq, read_tree, read_weights, write_sequence,
                            write_tree, write_weights)
from support import HUGE_FREQ, WRAPPING_FREQ


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def seq_file(tmp_path, name, n, items):
    p = tmp_path / name
    p.write_text(write_sequence(SearchSequence(n, items)))
    return str(p)


def grab(out, key):
    for line in out.splitlines():
        k, _, v = line.partition("\t")
        if k == key:
            return v
    raise AssertionError(f"{key!r} not in output:\n{out}")


def test_gen_sequential_writes_exact_file(tmp_path, capsys):
    out = tmp_path / "x.seq"
    code, stdout, _ = run(capsys, "gen", "--kind", "sequential",
                          "--n", "3", "--m", "7", "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == "3 7\n1 2 3 1 2 3 1\n"


def test_gen_missing_n_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--kind", "sequential", "--m", "7")
    assert code == 1
    assert "--n" in err


def test_gen_bitrev_rejects_non_power_of_two(capsys):
    code, _, err = run(capsys, "gen", "--kind", "bitrev", "--n", "6")
    assert code == 1
    assert "power of two" in err


def test_gen_random_kinds_require_seed(capsys):
    for kind in ("rounds", "markov", "uniform"):
        code, _, err = run(capsys, "gen", "--kind", kind, "--n", "4", "--m", "8")
        assert code == 1 and "--seed" in err


def test_gen_bad_parameters_are_usage_errors(capsys):
    cases = [(["--kind", kind, "--seed", "-1"], "seed")
             for kind in ("rounds", "markov", "uniform")]
    cases += [(["--kind", "markov", "--seed", "1", "--concentration", c], "concentration")
              for c in ("-1", "nan", "inf")]
    cases += [(["--kind", kind, "--n", str(2**63), "--seed", "1"], "n must be")
              for kind in ("sequential", "uniform")]
    for argv, flag in cases:
        argv = ["gen", "--n", "5", "--m", "5", *argv]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: ") and flag in err, argv


def test_gen_sizes_end_in_a_file_or_one_error_line(tmp_path, capsys):
    out = tmp_path / "x.seq"
    # m-sized work is checked against the budget; n-sized work is gone
    # from the cyclic kinds and checked for rounds.
    cases = [("--kind uniform --n 5 --m 1000000000000 --seed 1", None),
             ("--kind sequential --n 5 --m 1000000000000", None),
             ("--kind bitrev --n 4 --m 1000000000000", None),
             ("--kind rounds --n 1000000000000 --m 5 --seed 1", None),
             ("--kind sequential --n 1000000000000 --m 5",
              "1000000000000 5\n1 2 3 4 5\n"),
             (f"--kind bitrev --n {2**40} --m 5",
              f"{2**40} 5\n1 {2**39 + 1} {2**38 + 1} {2**39 + 2**38 + 1} {2**37 + 1}\n")]
    for argv, text in cases:
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "gen", *argv.split(), "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, argv
        assert stdout == "", argv
        if text is None:
            assert code == 1 and err.count("\n") == 1 and err.startswith("error: "), argv
            assert "bytes, over the" in err, argv
        else:
            assert code == 0 and err == "" and out.read_text() == text, argv


def test_stats_sequential(tmp_path, capsys):
    path = seq_file(tmp_path, "x.seq", 4, [1, 2, 3, 4] * 2)
    code, out, _ = run(capsys, "stats", "--seq", path)
    assert code == 0
    assert grab(out, "n") == "4" and grab(out, "m") == "8"
    assert grab(out, "H") == "2.000000"
    assert grab(out, "H_c") == "0.000000"


def test_single_key_entropy_prints_positive_zero(tmp_path, capsys):
    path = tmp_path / "x.seq"
    path.write_text("4 3\n2 2 2\n")
    code, out, _ = run(capsys, "stats", "--seq", str(path))
    assert code == 0 and grab(out, "H") == "0.000000"
    code, out, _ = run(capsys, "compare", "--seq", str(path), "--seed", "1")
    assert code == 0 and "H=0.000000" in out and "-0.000000" not in out


def test_files_are_utf8_under_any_locale(tmp_path):
    """Under the C locale the default text encoding is ASCII; input files
    are still read, and --out files written, as UTF-8."""
    path = tmp_path / "x.seq"
    path.write_text("1 1\n\u0661\n", encoding="utf-8")   # Arabic-Indic digit one
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(lazybst.__file__).parents[1]))
    code = "import sys; from lazybst.cli import main; sys.exit(main(sys.argv[1:]))"

    def cli(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = cli("stats", "--seq", str(path))
    assert done.returncode == 0, done.stderr
    assert grab(done.stdout, "m") == "1" and grab(done.stdout, "H") == "0.000000"
    freq = tmp_path / "x.freq"
    assert cli("freq", "--seq", str(path), "--out", str(freq)).returncode == 0
    assert freq.read_bytes() == b"1 1 1 1\n1\n"
    path.write_bytes(b"1 1\n\xff\n")
    done = cli("stats", "--seq", str(path))
    assert done.returncode == 2 and "not text" in done.stderr


def test_stats_empty_sequence_is_malformed(tmp_path, capsys):
    path = seq_file(tmp_path, "x.seq", 3, [])
    code, _, err = run(capsys, "stats", "--seq", path)
    assert code == 2 and "empty" in err


def test_stats_missing_file_is_malformed(tmp_path, capsys):
    code, _, _ = run(capsys, "stats", "--seq", str(tmp_path / "nope.seq"))
    assert code == 2


def test_non_utf8_input_is_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 3\n1 \xff 2\n")
    for argv in (("stats", "--seq", str(bad)),
                 ("opt", "--method", "lazy", "--freq", str(bad))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ")


def test_sequence_item_beyond_64_bits_is_malformed(tmp_path, capsys):
    path = tmp_path / "x.seq"
    path.write_text("3 2\n1 99999999999999999999\n")
    code, _, err = run(capsys, "stats", "--seq", str(path))
    assert code == 2 and err.startswith("error: ")


def test_opt_lazy_alternating_freq(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 3, [1, 3] * 5 + [1])  # pair(1,3)=pair(3,1)=5
    freq = tmp_path / "x.freq"
    assert run(capsys, "freq", "--seq", seq, "--out", str(freq))[0] == 0
    out_tree = tmp_path / "t.tree"
    code, out, _ = run(capsys, "opt", "--method", "lazy",
                       "--freq", str(freq), "--out", str(out_tree))
    assert code == 0
    assert out == "cost\t10\n"
    t = read_tree(out_tree.read_text())
    assert t.n == 3


def test_opt_single_key_sequence(tmp_path, capsys):
    seq = seq_file(tmp_path, "one.seq", 1, [1, 1, 1])
    out_tree = tmp_path / "one.tree"
    code, out, _ = run(capsys, "opt", "--method", "root",
                       "--seq", seq, "--out", str(out_tree))
    assert code == 0 and out == "cost\t0\n"
    assert read_tree(out_tree.read_text()).root == 1


def test_opt_negative_count_is_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.freq"
    bad.write_text("2 3 1 2\n2 1\n1 2 -2\n")
    code, _, _ = run(capsys, "opt", "--method", "lazy", "--freq", str(bad))
    assert code == 2


def test_opt_needs_exactly_one_source(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 2, [1, 2])
    assert run(capsys, "opt", "--method", "lazy")[0] == 1
    assert run(capsys, "opt", "--method", "lazy", "--seq", seq,
               "--freq", seq)[0] == 1


def test_opt_sequence_key_out_of_range_is_semantic(tmp_path, capsys):
    p = tmp_path / "oob.seq"
    p.write_text("3 2\n1 4\n")
    code, _, err = run(capsys, "opt", "--method", "lazy", "--seq", str(p))
    assert code == 3
    assert "key 4 out of range 1..3" in err


def test_opt_freq_counts_disagreeing_with_pairs_is_semantic(tmp_path, capsys):
    # Search and pair counts each sum right, yet key 1 is searched three
    # times with one transition touching it; this once gave "cost 0".
    p = tmp_path / "bad.freq"
    p.write_text("3 3 1 3\n3 0 0\n1 2 1\n2 3 1\n")
    code, out, _ = run(capsys, "opt", "--method", "root", "--freq", str(p))
    assert code == 3 and out == ""


def test_opt_freq_costs_beyond_64_bits_are_semantic(tmp_path, capsys):
    # Both once printed a negative cost with exit 0.
    for name, text in (("wrap.freq", WRAPPING_FREQ), ("huge.freq", HUGE_FREQ)):
        p = tmp_path / name
        p.write_text(text)
        for method in ("lazy", "root"):
            code, out, err = run(capsys, "opt", "--method", method, "--freq", str(p))
            assert code == 3 and out == "" and err.startswith("error: ")


def test_universe_over_memory_budget_is_usage_error(tmp_path, capsys):
    seq = tmp_path / "x.seq"
    assert run(capsys, "gen", "--kind", "uniform", "--n", "100000", "--m", "2",
               "--seed", "1", "--out", str(seq))[0] == 0
    freq = tmp_path / "x.freq"
    freq.write_text("100000 2 1 2\n1 1" + " 0" * 99998 + "\n1 2 1\n")
    for argv in (["stats", "--seq", str(seq)],
                 ["opt", "--method", "lazy", "--seq", str(seq)],
                 ["opt", "--method", "root", "--seq", str(seq)],
                 ["opt", "--method", "lazy", "--freq", str(freq)],
                 ["multitree", "--seq", str(seq), "--d", "1"],
                 ["gen", "--kind", "markov", "--n", "100000", "--m", "2", "--seed", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "n=100000 needs" in err


def test_count_file_over_memory_budget_is_read(tmp_path, capsys):
    # Reading keeps only the listed transitions; each optimizer then names
    # the first n-squared table it would need.
    freq = tmp_path / "x.freq"
    freq.write_text("100000 2 1 2\n1 1" + " 0" * 99998 + "\n1 2 1\n")
    for method, what in (("lazy", "cut table"), ("root", "interval DP tables")):
        code, out, err = run(capsys, "opt", "--method", method, "--freq", str(freq))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {what} for n=100000 needs ")


def test_eval_lazy_balanced3(tmp_path, capsys):
    tree = tmp_path / "b3.tree"
    tree.write_text(write_tree(build_balanced(3)))
    seq = seq_file(tmp_path, "x.seq", 3, [1, 2, 3])
    code, out, _ = run(capsys, "eval", "--method", "lazy",
                       "--tree", str(tree), "--seq", seq)
    assert code == 0
    assert grab(out, "total_with_root_start") == "3"
    assert grab(out, "transition_cost") == "2"
    assert grab(out, "initial_descent") == "1"
    assert grab(out, "per_search_avg") == "1.000000"


def test_bound_uniform_weights(tmp_path, capsys):
    w = tmp_path / "u.w"
    w.write_text("4\n1.0\n1.0\n1.0\n1.0\n")
    seq = seq_file(tmp_path, "x.seq", 4, [1, 4])
    code, out, _ = run(capsys, "bound", "--weights", str(w), "--seq", seq)
    assert code == 0 and out == "df_bound\t2.000000\n"


def test_weights_round_trip(tmp_path, capsys):
    tree = tmp_path / "b7.tree"
    tree.write_text(write_tree(build_balanced(7)))
    wfile = tmp_path / "b7.w"
    assert run(capsys, "weights", "--tree", str(tree), "--out", str(wfile))[0] == 0
    w = read_weights(wfile.read_text())
    assert w.w[4] == 1.0 and w.w[1] == 1 / 16
    assert write_weights(w) == wfile.read_text()


def test_build_kinds(tmp_path, capsys):
    out = tmp_path / "t.tree"
    assert run(capsys, "build", "--kind", "balanced", "--n", "5",
               "--out", str(out))[0] == 0
    assert read_tree(out.read_text()) == build_balanced(5)

    wfile = tmp_path / "w"
    wfile.write_text("3\n1.0\n1.0\n1.0\n")
    assert run(capsys, "build", "--kind", "mehlhorn", "--weights", str(wfile),
               "--out", str(out))[0] == 0
    assert read_tree(out.read_text()).root == 2

    assert run(capsys, "build", "--kind", "treap", "--weights", str(wfile))[0] == 1
    code, stdout, _ = run(capsys, "build", "--kind", "treap",
                          "--weights", str(wfile), "--seed", "7")
    assert code == 0
    read_tree(stdout)  # stdout fallback emits a parseable tree


def test_multitree_report(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 4, [1, 2, 3, 4, 1, 2, 3, 4])
    code, out, _ = run(capsys, "multitree", "--seq", seq, "--d", "2")
    assert code == 0
    assert grab(out, "n") == "4" and grab(out, "d") == "2"
    assert int(grab(out, "nodes")) <= 4 * 3
    assert grab(out, "H_c") == "0.000000"


def test_multitree_dump_lists_every_successor_tree(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 3, [1, 2, 3, 1, 2, 3])
    dump = tmp_path / "mt.txt"
    code, _, _ = run(capsys, "multitree", "--seq", seq, "--d", "1",
                     "--dump", str(dump))
    assert code == 0
    text = dump.read_text()
    read_tree(text[:text.index("T1:")])
    assert "T1: 2" in text and "T2: 3" in text and "T3: 1" in text

    # Total and dump of a fixed markov workload, recorded from the
    # per-search walk: the count-table sum must reproduce both.
    seq = tmp_path / "markov.seq"
    assert run(capsys, "gen", "--kind", "markov", "--n", "64", "--m", "20000",
               "--seed", "3", "--out", str(seq))[0] == 0
    code, out, _ = run(capsys, "multitree", "--seq", str(seq), "--d", "16",
                       "--dump", str(dump))
    assert code == 0 and grab(out, "total_comparisons") == "74482"
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == \
        "ec4085225c54366b745d296d1e0d3f8923d8db944f7113d19784df9ae3308d15"


def test_compare_table_and_optimality_rows(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 8, [1, 5, 3, 7, 2, 6, 4, 8] * 4)
    code, out, _ = run(capsys, "compare", "--seq", seq, "--seed", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strategy\ttotal\tper_search\tnotes"
    table = {row.split("\t")[0]: row.split("\t") for row in lines[1:]}
    assert set(table) == {"balanced-lazy", "opt-lazy", "opt-root",
                          "mehlhorn-root", "treap-lazy", "multitree"}
    assert int(table["opt-lazy"][1]) <= int(table["balanced-lazy"][1])
    assert int(table["opt-root"][1]) <= int(table["mehlhorn-root"][1])
    assert "df_bound=" in table["opt-lazy"][3]


def test_compare_requires_seed(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 2, [1, 2])
    assert run(capsys, "compare", "--seq", seq)[0] == 1


def test_cli_outputs_deterministic(tmp_path, capsys):
    args_sets = (
        ["gen", "--kind", "rounds", "--n", "9", "--m", "40", "--seed", "5"],
        ["gen", "--kind", "markov", "--n", "6", "--m", "50", "--seed", "5"],
        ["gen", "--kind", "uniform", "--n", "6", "--m", "50", "--seed", "5"],
    )
    for argv in args_sets:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0

    seq = seq_file(tmp_path, "x.seq", 5, [1, 4, 2, 5, 3, 1, 4, 2])
    a = run(capsys, "compare", "--seq", seq, "--seed", "3")
    b = run(capsys, "compare", "--seq", seq, "--seed", "3")
    assert a == b and a[0] == 0


def test_cli_files_round_trip(tmp_path, capsys):
    seq = seq_file(tmp_path, "x.seq", 6, [4, 2, 6, 4, 1, 3, 4, 5])
    freq = tmp_path / "x.freq"
    run(capsys, "freq", "--seq", seq, "--out", str(freq))
    s = read_freq(freq.read_text())
    assert s.m == 8

    tree = tmp_path / "x.tree"
    run(capsys, "opt", "--method", "lazy", "--seq", seq, "--out", str(tree))
    t = read_tree(tree.read_text())
    assert write_tree(t) == tree.read_text()

    w = tmp_path / "x.w"
    run(capsys, "weights", "--tree", str(tree), "--out", str(w))
    assert write_weights(read_weights(w.read_text())) == w.read_text()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
