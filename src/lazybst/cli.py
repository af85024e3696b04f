"""Command-line surface: one-shot subcommands over the text formats.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 semantically
unusable input.  All output is TSV on stdout; files are only written
through explicit --out/--dump flags.  Every subcommand is deterministic
given its flags; the randomized ones refuse to run without --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import fileio
from .cost import run_lazy_finger, run_root_finger
from .entropy import WeightVector, conditional_entropy, df_bound, entropy, \
    weights_from_tree
from .errors import MalformedInputError, ToolError, UsageError
from .model import build_balanced, check_seed
from .multitree import build_multitree, node_count, run_multitree
from .optimize import mehlhorn_build, optimal_lazy_dp, optimal_root_dp, treap_build
from .seqgen import RANDOM_KINDS, GeneratorSpec, KINDS, frequencies_from_sequence, \
    generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        raise UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    # Files are UTF-8 whatever the locale says.
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise MalformedInputError(f"{path}: not text: {e.reason} at byte {e.start}") from e


def _load_stats(args):
    if (args.seq is None) == (args.freq is None):
        raise UsageError("exactly one of --seq and --freq is required")
    if args.seq is not None:
        return frequencies_from_sequence(fileio.read_sequence(_read(args.seq)))
    return fileio.read_freq(_read(args.freq))


def _nonempty_sequence(args):
    """The --seq sequence, refused when empty."""
    if (x := fileio.read_sequence(_read(args.seq))).m == 0:
        raise MalformedInputError("empty sequence")
    return x


def _load_sequence(args):
    """The --seq sequence, refused when empty, its count table and H_c."""
    x = _nonempty_sequence(args)
    s = frequencies_from_sequence(x)
    return x, s, conditional_entropy(s) if x.m >= 2 else 0.0


def cmd_gen(args) -> int:
    for flag, value, kind in (("--matrix", args.matrix, "markov"),
                              ("--concentration", args.concentration, "markov"),
                              ("--k", args.k, "rounds")):
        if value is not None and args.kind != kind:
            raise UsageError(f"{flag} applies only to kind {kind}")
    matrix = None
    n = args.n
    if args.matrix is not None:
        matrix = fileio.read_matrix(_read(args.matrix))
        if n is None:
            n = matrix.shape[0]
        elif n != matrix.shape[0]:
            raise UsageError(f"--n {n} does not match the {matrix.shape[0]}-key matrix")
    if n is None:
        raise UsageError("--n is required")
    if args.kind in RANDOM_KINDS and args.seed is None:
        raise UsageError(f"--seed is required for kind {args.kind}")
    spec = GeneratorSpec(kind=args.kind, n=n, m=args.m if args.m is not None else n,
                         seed=args.seed if args.seed is not None else 0,
                         k=args.k, matrix=matrix, concentration=args.concentration)
    _emit(fileio.write_sequence(generate(spec)), args.out)
    return 0


def cmd_stats(args) -> int:
    x, s, hc = _load_sequence(args)
    print(f"n\t{x.n}")
    print(f"m\t{x.m}")
    print(f"H\t{entropy(s):.6f}")
    print(f"H_c\t{hc:.6f}")
    return 0


def cmd_freq(args) -> int:
    x = fileio.read_sequence(_read(args.seq))
    _emit(fileio.write_freq(frequencies_from_sequence(x)), args.out)
    return 0


def cmd_opt(args) -> int:
    s = _load_stats(args)
    res = optimal_lazy_dp(s) if args.method == "lazy" else optimal_root_dp(s)
    if args.out:
        _emit(fileio.write_tree(res.tree), args.out)
    print(f"cost\t{res.cost}")
    return 0


def cmd_build(args) -> int:
    # Each flag is required by the kinds that read it and refused by the rest.
    for flag, value, kinds in (("--n", args.n, ("balanced",)),
                               ("--weights", args.weights, ("mehlhorn", "treap")),
                               ("--seed", args.seed, ("treap",))):
        if value is None and args.kind in kinds:
            raise UsageError(f"{flag} is required for {args.kind}")
        if value is not None and args.kind not in kinds:
            raise UsageError(f"{flag} applies only to kind {' or '.join(kinds)}")
    if args.kind == "balanced":
        tree = build_balanced(args.n)
    else:
        w = fileio.read_weights(_read(args.weights))
        tree = mehlhorn_build(w) if args.kind == "mehlhorn" else treap_build(w, args.seed)
    _emit(fileio.write_tree(tree), args.out)
    return 0


def cmd_eval(args) -> int:
    tree = fileio.read_tree(_read(args.tree))
    x = fileio.read_sequence(_read(args.seq))
    run = run_lazy_finger if args.method == "lazy" else run_root_finger
    rep = run(tree, x)
    print(f"transition_cost\t{rep.transition_cost}")
    print(f"initial_descent\t{rep.initial_descent}")
    print(f"total_with_root_start\t{rep.total_with_root_start}")
    print(f"per_search_avg\t{float(rep.per_search_avg):.6f}")
    return 0


def cmd_bound(args) -> int:
    w = fileio.read_weights(_read(args.weights))
    x = _nonempty_sequence(args)
    print(f"df_bound\t{df_bound(w, x):.6f}")
    return 0


def cmd_weights(args) -> int:
    tree = fileio.read_tree(_read(args.tree))
    _emit(fileio.write_weights(weights_from_tree(tree)), args.out)
    return 0


def cmd_multitree(args) -> int:
    x, s, hc = _load_sequence(args)
    mt = build_multitree(s, args.d)
    total = run_multitree(mt, x)
    if args.dump:   # written first: a dump that fails leaves no report
        lines = [fileio.write_tree(mt.global_tree)]
        members, offsets = mt.members.tolist(), mt.offsets.tolist()
        for i in range(1, mt.n + 1):
            own = members[offsets[i]:offsets[i + 1]]
            lines.append(f"T{i}:" + "".join(f" {k}" for k in own) + "\n")
        _emit("".join(lines), args.dump)
    print(f"n\t{x.n}")
    print(f"d\t{args.d}")
    print(f"m\t{x.m}")
    print(f"nodes\t{node_count(mt)}")
    print(f"total_comparisons\t{total}")
    print(f"per_search_avg\t{total / x.m:.6f}")
    print(f"H_c\t{hc:.6f}")
    return 0


def cmd_compare(args) -> int:
    x, s, hc = _load_sequence(args)
    if args.seed is None:
        raise UsageError("--seed is required for compare (treap strategy)")
    check_seed(args.seed)
    h = entropy(s)
    d = args.d if args.d is not None else min(16, x.n)
    mt = build_multitree(s, d)   # refuses a bad --d before the exact DPs run

    rows = []   # (strategy, total, notes)

    bal = build_balanced(x.n)
    rows.append(("balanced-lazy", run_lazy_finger(bal, x).transition_cost,
                 f"model=edges;H_c={hc:.6f}"))

    opt_lazy = optimal_lazy_dp(s)
    w4 = weights_from_tree(opt_lazy.tree)
    df = df_bound(w4, x)
    rows.append(("opt-lazy", opt_lazy.cost, f"model=edges;H_c={hc:.6f};df_bound={df:.6f}"))

    opt_root = optimal_root_dp(s)
    rows.append(("opt-root", opt_root.cost, f"model=edges;H={h:.6f}"))

    # Mehlhorn needs strictly positive weights; add-one smoothing covers
    # keys the sequence never touches.
    meh = mehlhorn_build(WeightVector.from_values(s.searches[1:] + 1))
    rows.append(("mehlhorn-root", run_root_finger(meh, x).transition_cost,
                 f"model=edges;H={h:.6f}"))

    treap = treap_build(w4, args.seed)
    rows.append(("treap-lazy", run_lazy_finger(treap, x).transition_cost,
                 f"model=edges;seed={args.seed};df_bound={df:.6f}"))

    rows.append(("multitree", run_multitree(mt, x), f"model=comparisons;d={d};H_c={hc:.6f}"))

    print("strategy\ttotal\tper_search\tnotes")
    for strategy, total, notes in rows:
        print(f"{strategy}\t{total}\t{total / x.m:.6f}\t{notes}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="lazybst",
                     description="Static BST toolkit for lazy-finger workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a search sequence file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int, help="distinct keys per round (rounds kind)")
    p.add_argument("--concentration", type=float,
                   help="Dirichlet parameter for default markov rows (default 0.2)")
    p.add_argument("--matrix", help="markov transition matrix file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="entropy report for a sequence")
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("freq", help="count table of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("opt", help="optimal tree for a workload")
    p.add_argument("--method", required=True, choices=("lazy", "root"))
    p.add_argument("--seq")
    p.add_argument("--freq")
    p.add_argument("--out", help="where to write the tree file")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("build", help="construct a tree without optimizing")
    p.add_argument("--kind", required=True, choices=("balanced", "mehlhorn", "treap"))
    p.add_argument("--n", type=int)
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="run a sequence against a tree")
    p.add_argument("--method", required=True, choices=("lazy", "root"))
    p.add_argument("--tree", required=True)
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bound", help="weighted dynamic-finger bound")
    p.add_argument("--weights", required=True)
    p.add_argument("--seq", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("weights", help="4^-depth weights of a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("multitree", help="successor-tree structure report")
    p.add_argument("--seq", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dump", help="where to write the structure dump")
    p.set_defaults(func=cmd_multitree)

    p = sub.add_parser("compare", help="strategy sweep over one sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--d", type=int)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else int(e.code)
    except ToolError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
