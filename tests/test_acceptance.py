"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints "[PASS] criterion k: <name>" (or FAIL) and then asserts,
so a plain pytest run doubles as the acceptance report.
"""

import math
import random
import time

import numpy as np
import pytest

from lazybst import (GeneratorSpec, SearchSequence, SearchStats, WeightVector,
                     build_balanced, conditional_entropy, cost_from_frequencies,
                     df_bound, entropy, frequencies_from_sequence, generate,
                     mehlhorn_build, optimal_lazy_dp, optimal_root_dp,
                     run_lazy_finger, run_root_finger, treap_build,
                     validate_tree, weights_from_tree)
from lazybst.cli import main
from lazybst.multitree import build_multitree, node_count, run_multitree
from support import (closed_form_lazy_total, distance_matrix, enumerate_optimal,
                     exact_weight_inequality_holds, optimal_lazy_naive,
                     random_pair_stats, random_sequence, random_tree)

LG3 = math.log2(3.0)


def report(k: int, name: str, violations: list) -> None:
    ok = not violations
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {k}: {name}")
    assert ok, f"criterion {k}: {name}: " + "; ".join(str(v) for v in violations[:5])


@pytest.fixture(scope="module")
def walk_corpus():
    """200 seeded (tree, sequence) pairs shared by criteria 2 and 4."""
    rng = random.Random(0xC2)
    corpus = []
    for i in range(200):
        if i == 0:
            n, m = 64, 10_000
        else:
            n = rng.randint(1, 64)
            m = min(10_000, int(10 ** rng.uniform(0.0, 3.6)))
        corpus.append((random_tree(rng, n), random_sequence(rng, n, m)))
    return corpus


def test_criterion_1_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    violations = []
    for n in range(2, 9):
        for _ in range(50):
            s = random_pair_stats(rng, n)
            a = optimal_lazy_naive(s)
            b = optimal_lazy_dp(s)
            c = enumerate_optimal(s)
            if not (a.cost == b.cost == c.cost):
                violations.append((n, a.cost, b.cost, c.cost))
            if not (validate_tree(a.tree) and validate_tree(b.tree)
                    and validate_tree(c.tree)):
                violations.append((n, "invalid tree"))
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        violations.append(f"took {elapsed:.1f}s")
    report(1, "oracle equivalence across the three optimizers", violations)


def test_criterion_2_recurrence_vs_simulation(walk_corpus):
    violations = []
    for t, x in walk_corpus:
        walk = run_lazy_finger(t, x)
        closed = closed_form_lazy_total(t, x)
        counted = cost_from_frequencies(t, frequencies_from_sequence(x))
        if walk.total_with_root_start != closed:
            violations.append((t.n, x.m, walk.total_with_root_start, closed))
        if walk.transition_cost != counted:
            violations.append((t.n, x.m, walk.transition_cost, counted))
    report(2, "lazy evaluator = closed form = pair-count cost", violations)


def test_criterion_3_depth_weight_inequality():
    rng = random.Random(303)
    violations = []
    for _ in range(100):
        t = random_tree(rng, rng.randint(1, 64))
        if not exact_weight_inequality_holds(t, distance_matrix(t)):
            violations.append(t.n)
    report(3, "step distance bounded by log weight ratio, all pairs", violations)


def test_criterion_4_lazy_at_most_twice_root(walk_corpus):
    violations = []
    for t, x in walk_corpus:
        lazy = run_lazy_finger(t, x).total_with_root_start
        root = run_root_finger(t, x).total_with_root_start
        if lazy > 2 * root:
            violations.append((t.n, x.m, lazy, root))
    report(4, "lazy total at most twice root total", violations)


def test_criterion_5_sequential_separation():
    n, m = 256, 2560
    start = time.perf_counter()
    x = generate(GeneratorSpec(kind="sequential", n=n, m=m))
    s = frequencies_from_sequence(x)
    lazy = optimal_lazy_dp(s)
    root = optimal_root_dp(s)
    elapsed = time.perf_counter() - start
    violations = []
    if lazy.cost > 3 * m:
        violations.append(f"lazy {lazy.cost} > {3 * m}")
    if root.cost < m * (math.log2(n + 1) - 2):
        violations.append(f"root {root.cost} < {m * (math.log2(n + 1) - 2):.1f}")
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s")
    report(5, "sequential workload separates lazy from root", violations)


def _counts_to_stats(counts: np.ndarray) -> SearchStats:
    n = len(counts) - 1
    searches = counts.astype(np.int64)
    m = int(searches.sum())
    keys = np.nonzero(searches)[0]
    return SearchStats(n=n, m=m, a=[], b=[], count=[],
                       searches=searches, first=int(keys[0]), last=int(keys[-1]))


def test_criterion_6_root_entropy_sandwich():
    rng = random.Random(606)
    violations = []
    for i in range(20):
        n = (16, 64, 256)[i % 3]
        counts = np.zeros(n + 1, dtype=np.int64)
        if i % 2 == 0:
            counts[1:] = 40
        else:
            shape = rng.uniform(0.7, 1.4)
            zipf = [max(1, round(2000 / (j ** shape))) for j in range(1, n + 1)]
            rng.shuffle(zipf)
            counts[1:] = zipf
        s = _counts_to_stats(counts)
        h = entropy(s)
        root = optimal_root_dp(s)
        meh = mehlhorn_build(WeightVector.from_values(counts[1:].tolist()))
        meh_cost = int((s.searches[1:] * np.asarray(meh.depth)[1:]).sum())
        if root.cost / s.m < h / LG3 - 1 - 1e-6:
            violations.append((n, i, "lower", root.cost / s.m, h))
        if meh_cost / s.m > 2 + 1.4405 * h + 1e-6:
            violations.append((n, i, "upper", meh_cost / s.m, h))
        if root.cost > meh_cost:
            violations.append((n, i, "optimality", root.cost, meh_cost))
    report(6, "root cost between entropy lower bound and balance upper bound",
           violations)


def test_criterion_7_two_sided_optimal_check():
    violations = []
    for seed in range(20):
        x = generate(GeneratorSpec(kind="markov", n=64, m=100_000, seed=700 + seed))
        s = frequencies_from_sequence(x)
        opt = optimal_lazy_dp(s)
        w4 = weights_from_tree(opt.tree)
        df = df_bound(w4, x)
        if opt.cost > df:
            violations.append((seed, "df", opt.cost, df))
        best = min(cost_from_frequencies(treap_build(w4, ts), s)
                   for ts in range(32))
        if best > 4 * opt.cost + 4 * x.m:
            violations.append((seed, "treap", best, opt.cost))
    report(7, "optimal cost below weight bound, treaps within constant factor",
           violations)


def test_criterion_8_repeated_permutations_have_zero_conditional_entropy():
    violations = []
    cases = [("sequential", n, k) for n in (2, 3, 16, 64) for k in (1, 2, 7)]
    cases += [("bitrev", n, k) for n in (2, 4, 16, 64) for k in (1, 2, 7)]
    for kind, n, k in cases:
        x = generate(GeneratorSpec(kind=kind, n=n, m=k * n))
        hc = conditional_entropy(frequencies_from_sequence(x))
        if abs(hc) > 1e-12:
            violations.append((kind, n, k, hc))
    report(8, "repeated permutations have zero conditional entropy", violations)


def test_criterion_9_multitree_space_and_cost():
    violations = []
    for n in (64, 256):
        x = generate(GeneratorSpec(kind="markov", n=n, m=50_000, seed=900 + n))
        s = frequencies_from_sequence(x)
        hc = conditional_entropy(s)
        out = s.pair.sum(axis=1)
        for d in (4, 16, n):
            mt = build_multitree(s, d)
            if node_count(mt) > n * (d + 1):
                violations.append((n, d, "space", node_count(mt)))
            for i in range(1, n + 1):
                st = mt.succ[i]
                for pos, j in enumerate(st.members, start=1):
                    cap = 2 + 1.4405 * math.log2(out[i] / s.pair[i, j])
                    if st.depths[pos - 1] > cap + 1e-9:
                        violations.append((n, d, "hit depth", i, j))
            total = run_multitree(mt, x)
            budget = 8 * x.m * (hc + 1) * (math.log2(n) / math.log2(d + 1))
            if total > budget:
                violations.append((n, d, "total", total, budget))
            if d == n and total / x.m > 2 + 1.4405 * hc + 2:
                violations.append((n, d, "full-coverage avg", total / x.m, hc))
    report(9, "multitree space and comparison budgets", violations)


def test_criterion_10_determinism(tmp_path, capsys):
    violations = []

    for kind in ("rounds", "markov", "uniform"):
        a = generate(GeneratorSpec(kind=kind, n=24, m=400, seed=4))
        b = generate(GeneratorSpec(kind=kind, n=24, m=400, seed=4))
        if not np.array_equal(a.items, b.items):
            violations.append((kind, "generate"))

    w = weights_from_tree(build_balanced(33))
    if treap_build(w, 9) != treap_build(w, 9):
        violations.append("treap_build")

    cli_runs = (
        ["gen", "--kind", "markov", "--n", "12", "--m", "300", "--seed", "8"],
        ["gen", "--kind", "rounds", "--n", "12", "--m", "300", "--seed", "8"],
        ["gen", "--kind", "uniform", "--n", "12", "--m", "300", "--seed", "8"],
    )
    seq_path = tmp_path / "det.seq"
    for argv in cli_runs:
        outs = []
        for _ in range(2):
            code = main(argv + ["--out", str(seq_path)])
            outs.append((code, seq_path.read_bytes()))
        if outs[0] != outs[1] or outs[0][0] != 0:
            violations.append((argv[2], "cli gen"))

    code = main(["freq", "--seq", str(seq_path), "--out", str(tmp_path / "det.freq")])
    assert code == 0
    compare_argv = ["compare", "--seq", str(seq_path), "--seed", "5"]
    first = (main(compare_argv), capsys.readouterr().out)
    second = (main(compare_argv), capsys.readouterr().out)
    if first != second or first[0] != 0:
        violations.append("cli compare")

    report(10, "randomized pathways are byte-identical under a fixed seed",
           violations)
