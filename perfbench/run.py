"""End-to-end benchmark of the lazybst command line.

One run covers one workload in its own process:

1. Set-up: import lazybst, then write the workload's sequence file with
   ``lazybst gen`` SETUPS times; ``setup_s`` is the import time plus the
   median gen time.
2. Passes: run the ten commands of PASS in process through
   ``lazybst.cli.main`` with stdout captured, again and again until the
   time budget is spent.  Every timing is a median over passes.
3. Speed: this machine's speed drifts by half or more within seconds
   under neighbouring load, so every timing is converted to a reference
   speed with SpeedProbe, which times a fixed slice of work every 25 ms.
   The raw wall medians are printed beside them.
4. Checks: cross-command identities within each pass, byte-identical
   outputs and files across passes, and the opt costs and compare totals
   that expected.json pins for the workload and seed.  A command that
   exits nonzero or breaks a check counts as failed.

With ``--trace 1`` the run alternates untraced and traced passes and
reports per-module metrics from spans recorded by patching, from this
file, the lazybst functions that the cli, fileio and multitree modules
call (under the names they call them by).  Nothing in ``src/`` changes.

    python3 perfbench/run.py --workload dp-markov --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 2

--seconds defaults to run_seconds of BENCHMARK.json.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics; a
metric with no samples makes correct false.  See perfbench/README.md for
the metrics and workloads.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1      # seed 2 is held out for re-checking claims
SETUPS = 3
MIN_PASSES = 3
MULTITREE_D = 16
COMPARE_SEED = 1
REF_SLICE_S = 0.0007  # _speed_slice() on the reference machine, quiet

# gen arguments per workload; README.md gives the reason for each.
WORKLOADS = {
    "dp-markov": "--kind markov --n 384 --m 100000",
    "stream-local": "--kind markov --n 64 --m 1000000 --concentration 0.05",
    "stream-uniform": "--kind uniform --n 128 --m 1000000",
}

# One pass, in order.  Placeholders name files in the run's work directory.
PASS = (
    ("freq", "freq --seq {seq} --out {freq}"),
    ("stats", "stats --seq {seq}"),
    ("opt_lazy", "opt --method lazy --freq {freq} --out {lazy}"),
    ("opt_root", "opt --method root --freq {freq} --out {root}"),
    ("eval_lazy", "eval --method lazy --tree {lazy} --seq {seq}"),
    ("eval_root", "eval --method root --tree {root} --seq {seq}"),
    ("weights", "weights --tree {lazy} --out {weights}"),
    ("bound", "bound --weights {weights} --seq {seq}"),
    ("multitree", f"multitree --seq {{seq}} --d {MULTITREE_D}"),
    ("compare", f"compare --seq {{seq}} --seed {COMPARE_SEED}"),
)
FILES = ("seq", "freq", "lazy", "root", "weights")
WRITTEN_BY = {"freq": "freq", "lazy": "opt_lazy", "root": "opt_root", "weights": "weights"}

TIMED = ("freq", "stats", "opt_lazy", "opt_root", "eval_lazy", "eval_root",
         "bound", "multitree", "compare")
END_TO_END = {"setup_s": "s", "pipeline_s": "s",
              **{f"{cmd}_s": "s" for cmd in TIMED}, "peak_rss_mb": "MB"}

MODULES = ("seqgen", "fileio", "model", "optimize", "cost", "entropy", "multitree", "cli")
PER_LAYER = {
    "optimize.optimal_lazy_dp.s": "s",
    "optimize.optimal_lazy_dp.calls": "count",
    "optimize.optimal_lazy_dp.cells": "count",
    "optimize.optimal_lazy_dp.cells_per_s": "1/s",
    "optimize.optimal_lazy_dp.table_bytes": "bytes",
    "optimize.optimal_root_dp.s": "s",
    "optimize.mehlhorn_build.s": "s",
    "optimize.treap_build.s": "s",
    "seqgen.generate.s": "s",
    "seqgen.generate.items_per_s": "1/s",
    "seqgen.frequencies_from_sequence.s": "s",
    "seqgen.frequencies_from_sequence.calls": "count",
    "fileio.read_sequence.s": "s",
    "fileio.read_sequence.calls": "count",
    "fileio.read_sequence.bytes": "bytes",
    "fileio.read_freq.s": "s",
    "fileio.write_freq.s": "s",
    "fileio.read_tree.s": "s",
    "fileio.write_tree.s": "s",
    "fileio.read_weights.s": "s",
    "fileio.write_weights.s": "s",
    "fileio.write_sequence.s": "s",
    "model.build_tree.s": "s",
    "model.validate_tree.s": "s",
    "model.build_balanced.s": "s",
    "cost.run_lazy_finger.s": "s",
    "cost.run_lazy_finger.calls": "count",
    "cost.run_lazy_finger.edges": "count",
    "cost.run_lazy_finger.edges_per_s": "1/s",
    "cost.run_root_finger.s": "s",
    "entropy.entropy.s": "s",
    "entropy.conditional_entropy.s": "s",
    "entropy.weights_from_tree.s": "s",
    "entropy.df_bound.s": "s",
    "multitree.build_multitree.s": "s",
    "multitree.run_multitree.s": "s",
    "multitree.hit_rate": "ratio",
    "multitree.comparisons": "count",
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.overhead_s": "s",
}
# Per-pass ratios of two accumulated span values.
DERIVED = {
    "optimize.optimal_lazy_dp.cells_per_s":
        ("optimize.optimal_lazy_dp.cells", "optimize.optimal_lazy_dp.s"),
    "seqgen.generate.items_per_s": ("seqgen.generate.items", "seqgen.generate.s"),
    "cost.run_lazy_finger.edges_per_s":
        ("cost.run_lazy_finger.edges", "cost.run_lazy_finger.s"),
    "multitree.hit_rate": ("multitree.hits", "multitree.transitions"),
}


def _dp_counters(args, result):
    # Computed from n, not measured: the DP evaluates every root of every
    # interval.
    n = args[0].n
    return {"optimize.optimal_lazy_dp.cells": n * (n + 1) * (n + 2) // 6}


def _multitree_counters(args, total):
    # A probe hits exactly when the next key is a member of the current
    # key's successor tree, since every successor tree is a valid BST over
    # its members; so hits are counted from the members, outside the probe.
    mt, x = args
    member = np.zeros((mt.n + 1, mt.n + 1), dtype=bool)
    for a, st in enumerate(mt.succ):
        member[a, list(st.members)] = True
    items = x.items
    return {"multitree.hits": int(member[items[:-1], items[1:]].sum()),
            "multitree.transitions": max(x.m - 1, 0),
            "multitree.comparisons": total}


COUNTERS = {
    "optimize.optimal_lazy_dp": _dp_counters,
    "cost.run_lazy_finger": lambda args, rep: {
        "cost.run_lazy_finger.edges": rep.total_with_root_start},
    "multitree.run_multitree": _multitree_counters,
    "seqgen.generate": lambda args, x: {"seqgen.generate.items": x.m},
    "fileio.read_sequence": lambda args, x: {"fileio.read_sequence.bytes": len(args[0])},
}


# Functions whose peak traced memory (tracemalloc, which numpy reports its
# arrays to) a memory call records as this counter.
MEMORY = {"optimize.optimal_lazy_dp": "optimize.optimal_lazy_dp.table_bytes"}


class Tracer:
    """In-memory spans: [name, start, end, parent index, pass id, counters].

    While ``memory`` is set, a MEMORY function runs under tracemalloc,
    which slows it, so only untimed calls set it."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pass_id: int | str | None = None
        self.memory = False

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.pass_id, {}]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn):
        name = fn.__module__.removeprefix("lazybst.") + "." + fn.__name__
        count = COUNTERS.get(name)
        memory = MEMORY.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counters:
                if memory and self.memory:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        counters[memory] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                else:
                    result = fn(*args, **kwargs)
            if count is not None:  # after the span closes: not charged to it
                counters.update(count(args, result))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the public lazybst functions under the names cli, fileio
        and multitree call them by; restore them on exit."""
        import lazybst.cli
        import lazybst.fileio
        import lazybst.multitree
        saved = []
        for module in (lazybst.cli, lazybst.fileio, lazybst.multitree):
            for attr, obj in list(vars(module).items()):
                # Imported functions of other lazybst modules, plus fileio's
                # own functions, which cli calls as ``fileio.<name>``.
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("lazybst.")
                        or obj.__module__ == module.__name__ != "lazybst.fileio"):
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj))
        try:
            yield
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    def write(self, path: Path, t0: float) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, pass_id, counters) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent,
                                    "pass": pass_id, "counters": counters}) + "\n")


# -- running ----------------------------------------------------------------

# A heap-shaped tree over keys 1..255: parent and depth tables.
_SLICE_PARENT = tuple(k // 2 for k in range(256))
_SLICE_DEPTH = tuple(max(k.bit_length() - 1, 0) for k in range(256))


def _speed_slice() -> None:
    """A fixed slice of interpreter work like lazybst's own loops (a
    cursor walking to lowest common ancestors); it touches no lazybst
    code, so no change to lazybst can change its speed."""
    parent, depth = _SLICE_PARENT, _SLICE_DEPTH
    for i in range(2500):
        a, b = (i * 53 & 254) + 1, (i * 37 & 254) + 1
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a, b = parent[a], parent[b]


class SpeedProbe:
    """Tracks this machine's speed, which drifts by half or more within
    seconds under neighbouring load, by timing _speed_slice() every PERIOD
    seconds from a SIGALRM handler and on request.

    measure(t0, t1) turns a wall interval into seconds at the reference
    speed: the interval minus the slices run inside it, times
    REF_SLICE_S over the mean slice time in and just around it."""

    PERIOD = 0.025

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _speed_slice()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_time(self, t0: float, t1: float) -> float:
        """Seconds of slices that started inside [t0, t1)."""
        return sum(self.durations[bisect.bisect_left(self.starts, t0):
                                  bisect.bisect_left(self.starts, t1)])

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds at reference speed, raw seconds) of [t0, t1], which
        must have a sample() just before and just after it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        raw = t1 - t0 - self.busy_time(t0, t1)
        return raw * REF_SLICE_S / statistics.fmean(self.durations[max(i - 1, 0):j + 1]), raw


def command_argv(cmd: str, files: dict[str, str]) -> list[str]:
    """The argv of command cmd of PASS on the run's files."""
    return [tok.format(**files) for tok in dict(PASS)[cmd].split()]


def run_command(main, argv: list[str]) -> tuple[int, str]:
    """main(argv) with stdout captured; an uncaught exception is exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    if code:
        print(f"{argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue()


def run_pass(main, files: dict[str, str], probe: SpeedProbe,
             tracer: Tracer | None = None) -> dict:
    """One pass of PASS: per-command times at reference speed and raw,
    exit codes and stdout, and the hashes of the files the pass wrote.
    A traced command span records its speed scale as counter "scale"."""
    times, raw, codes, out = {}, {}, {}, {}
    probe.sample()
    for cmd, _ in PASS:
        argv = command_argv(cmd, files)
        t0 = time.perf_counter()
        with tracer.span("cli." + cmd) if tracer else contextlib.nullcontext() as counters:
            codes[cmd], out[cmd] = run_command(main, argv)
        t1 = time.perf_counter()
        probe.sample()
        times[cmd], raw[cmd] = probe.measure(t0, t1)
        if counters is not None:
            counters["scale"] = times[cmd] / raw[cmd]
    hashes = {}
    for name in WRITTEN_BY:
        path = Path(files[name])
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"times": times, "raw": raw, "codes": codes, "out": out,
            "wall": sum(times.values()), "raw_wall": sum(raw.values()), "hashes": hashes}


# -- checks -----------------------------------------------------------------

def _table(text: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in text.splitlines())


def _compare_rows(text: str) -> dict[str, tuple[int, dict[str, str]]]:
    rows = {}
    for line in text.splitlines()[1:]:
        strategy, total, _, notes = line.split("\t")
        rows[strategy] = (int(total), dict(f.split("=", 1) for f in notes.split(";")))
    return rows


def pinned_values(out: dict[str, str]) -> dict:
    """The values of a pass that expected.json pins: the opt costs and
    compare's total per strategy."""
    return {"opt_lazy": int(_table(out["opt_lazy"])["cost"]),
            "opt_root": int(_table(out["opt_root"])["cost"]),
            "compare": {strategy: total
                        for strategy, (total, _) in _compare_rows(out["compare"]).items()}}


def expected_values(workload: str, seed: int) -> dict | None:
    """pinned_values() of the seed commit for this workload and seed, or
    None when expected.json has none."""
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def check_pass(out: dict[str, str], n: int, expected: dict | None = None) -> set[str]:
    """Commands of one pass whose output breaks a cross-command identity,
    or differs from the seed commit's pinned values when given.

    A broken identity counts against the command named first with it; an
    output that does not parse breaks every identity it is part of."""
    def kv(cmd, key):
        return _table(out[cmd])[key]

    def row(strategy):
        return _compare_rows(out["compare"])[strategy]

    def walked(method):
        return int(kv(f"eval_{method}", "transition_cost")) == int(kv(f"opt_{method}", "cost"))

    identities = (
        ("eval_lazy", lambda: walked("lazy")),
        ("eval_root", lambda: walked("root")),
        ("compare", lambda: row("opt-lazy")[0] == int(kv("opt_lazy", "cost"))),
        ("compare", lambda: row("opt-lazy")[0] <= row("balanced-lazy")[0]),
        ("compare", lambda: row("opt-lazy")[0] <= row("treap-lazy")[0]),
        ("compare", lambda: row("opt-lazy")[0] <= float(row("opt-lazy")[1]["df_bound"])),
        ("compare", lambda: row("opt-root")[0] <= row("mehlhorn-root")[0]),
        ("compare", lambda: row("multitree")[0] == int(kv("multitree", "total_comparisons"))),
        ("compare", lambda: row("opt-lazy")[1]["H_c"] == kv("stats", "H_c")),
        ("bound", lambda: kv("bound", "df_bound") == row("opt-lazy")[1]["df_bound"]),
        ("multitree", lambda: int(kv("multitree", "nodes")) <= n * (MULTITREE_D + 1)),
    )
    if expected is not None:
        identities += tuple(
            (cmd, lambda cmd=cmd: pinned_values(out)[cmd] == expected[cmd])
            for cmd in ("opt_lazy", "opt_root", "compare"))
    bad = set()
    for cmd, holds in identities:
        try:
            ok = holds()
        except (KeyError, ValueError, IndexError):
            ok = False
        if not ok:
            bad.add(cmd)
    return bad


def failed_commands(passes: list[dict], n: int, expected: dict | None = None) -> int:
    """Failed commands over all passes: nonzero exit, a broken identity,
    a pinned value other than expected, or stdout or a written file that
    differs from the first pass's."""
    first = passes[0]
    failed = 0
    for p in passes:
        bad = {cmd for cmd, code in p["codes"].items() if code}
        bad |= check_pass(p["out"], n, expected)
        bad |= {cmd for cmd in p["out"] if p["out"][cmd] != first["out"][cmd]}
        bad |= {WRITTEN_BY[f] for f in p["hashes"]
                if p["hashes"][f] is None or p["hashes"][f] != first["hashes"][f]}
        failed += len(bad)
    return failed


# -- statistics -------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, spread (IQR / median), sample count, and the highest
    percentile with at least ten samples beyond it (None below 11)."""
    ordered = sorted(samples)
    k = len(ordered)
    med = statistics.median(ordered)
    spread = None
    if k >= 2 and med:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        spread = (q3 - q1) / med
    tail = None
    if k >= 11:
        tail = (100 * (k - 10) // k, ordered[k - 11])
    return {"median": med, "spread": spread, "count": k, "tail": tail}


def report(metrics: dict[str, list[float]], units: dict[str, str],
           raw: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Print one line per metric, with the raw wall median where there is
    one; return the result-line metrics and the names of metrics that have
    no samples, which are left out of them."""
    result, missing = {}, []
    print(f"{'metric':40} {'unit':6} {'median':>12} {'spread':>7} {'n':>3} "
          f"{'tail':>14} {'raw median':>12}")
    for name, unit in units.items():
        samples = metrics.get(name)
        if not samples:
            print(f"{name:40} {unit:6} {'missing':>12}")
            missing.append(name)
            continue
        s = summarize(samples)
        spread = f"{s['spread']:.3f}" if s["spread"] is not None else "-"
        tail = f"p{s['tail'][0]}={s['tail'][1]:.4g}" if s["tail"] else "-"
        wall = f"{statistics.median(raw[name]):12.6g}" if name in raw else ""
        print(f"{name:40} {unit:6} {s['median']:12.6g} {spread:>7} {s['count']:3} "
              f"{tail:>14} {wall}")
        result[name] = {"value": s["median"], "unit": unit}
    return result, missing


def result_line(result: dict) -> dict:
    """Print the metrics and failed_ratio of a run; return its result line.
    A failed command or a metric without samples makes it incorrect."""
    metrics, missing = report(result["samples"], result["units"], result["raw"])
    print(f"{'failed_ratio':40} {'ratio':6} {result['failed'] / result['attempted']:14.6g}"
          f"  ({result['failed']} of {result['attempted']} commands)")
    if missing:
        print(f"missing metrics: {' '.join(missing)}")
    return {"correct": result["failed"] == 0 and not missing,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def layer_samples(spans: list[list], probe: SpeedProbe) -> dict[str, list[float]]:
    """Per-pass sums of span durations at reference speed (each span takes
    the "scale" of its command span), calls, counters and module self
    times; derived ratios per pass.  A metric takes its samples from the
    numbered passes, or else from the untimed set-up and memory calls."""
    scale, duration = [], []
    child_time = defaultdict(float)
    for name, start, end, parent, _, counters in spans:  # parents come first
        scale.append(counters["scale"] if parent is None else scale[parent])
        duration.append((end - start - probe.busy_time(start, end)) * scale[-1])
        if parent is not None:
            child_time[parent] += duration[-1]
    by_pass = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, _, pass_id, counters) in enumerate(spans):
        acc = by_pass[pass_id]
        acc[name + ".s"] += duration[i]
        acc[name + ".calls"] += 1
        acc[name.split(".")[0] + ".self_s"] += duration[i] - child_time[i]
        for key, value in counters.items():
            if key != "scale":
                acc[key] += value
    for acc in by_pass.values():
        for name, (num, den) in DERIVED.items():
            if acc.get(den):
                acc[name] = acc[num] / acc[den]
    untimed = {**by_pass.pop("memory", {}), **by_pass.pop("setup", {})}
    from_passes = defaultdict(list)
    for acc in by_pass.values():
        for name, value in acc.items():
            from_passes[name].append(value)
    return {name: from_passes.get(name) or [untimed[name]]
            for name in set(from_passes) | set(untimed)}


# -- runs -------------------------------------------------------------------

def _gen_args(workload: str) -> tuple[list[str], int]:
    """The workload's gen arguments and its key count n."""
    args = WORKLOADS[workload].split()
    return args, int(args[args.index("--n") + 1])


def _prepare(workload: str) -> dict[str, str]:
    work = RUNS / workload
    work.mkdir(parents=True, exist_ok=True)
    names = {"seq": "seq.txt", "freq": "freq.txt", "lazy": "lazy.tree",
             "root": "root.tree", "weights": "lazy.weights"}
    files = {k: str(work / names[k]) for k in FILES}
    for path in files.values():
        Path(path).unlink(missing_ok=True)
    return files


def _time_left(deadline: float, passes: list[dict]) -> bool:
    typical = statistics.median(p["raw_wall"] for p in passes) if passes else 0.0
    return time.perf_counter() + typical <= deadline


def _timed(probe: SpeedProbe, fn, *args):
    """(fn(*args), seconds at reference speed, raw seconds)."""
    probe.sample()
    t0 = time.perf_counter()
    result = fn(*args)
    t1 = time.perf_counter()
    probe.sample()
    return (result, *probe.measure(t0, t1))


def _import_cli():
    sys.path.insert(0, str(SRC))
    return importlib.import_module("lazybst.cli").main


def _gen_argv(workload: str, seed: int, files: dict[str, str]) -> list[str]:
    return ["gen", *_gen_args(workload)[0], "--seed", str(seed), "--out", files["seq"]]


def run_untraced(workload: str, seed: int, seconds: float, probe: SpeedProbe) -> dict:
    """Set-up SETUPS times (the import once, then gen), then passes."""
    deadline = time.perf_counter() + seconds
    files = _prepare(workload)
    main, import_s, import_raw = _timed(probe, _import_cli)
    setup_s, setup_raw, digests, failed = [], [], set(), 0
    for _ in range(SETUPS):
        (code, _), gen_s, gen_raw = _timed(probe, run_command, main,
                                           _gen_argv(workload, seed, files))
        setup_s.append(import_s + gen_s)
        setup_raw.append(import_raw + gen_raw)
        failed += code != 0
        if not code:
            digests.add(hashlib.sha256(Path(files["seq"]).read_bytes()).hexdigest())
    failed += max(len(digests) - 1, 0)  # every gen must write the same bytes
    passes = []
    while len(passes) < MIN_PASSES or _time_left(deadline, passes):
        passes.append(run_pass(main, files, probe))
    expected = expected_values(workload, seed)
    failed += failed_commands(passes, _gen_args(workload)[1], expected)
    samples = {"setup_s": setup_s, "pipeline_s": [p["wall"] for p in passes],
               "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]}
    raw = {"setup_s": setup_raw, "pipeline_s": [p["raw_wall"] for p in passes]}
    for cmd in TIMED:
        samples[f"{cmd}_s"] = [p["times"][cmd] for p in passes]
        raw[f"{cmd}_s"] = [p["raw"][cmd] for p in passes]
    return {"attempted": SETUPS + len(passes) * len(PASS), "failed": failed,
            "pinned": expected is not None,
            "samples": samples, "raw": raw, "units": END_TO_END}


def run_traced(workload: str, seed: int, seconds: float, probe: SpeedProbe) -> dict:
    """A traced gen, untraced and traced passes in turn, then one untimed
    opt --method lazy that measures the DP's memory."""
    t0 = time.perf_counter()
    deadline = t0 + seconds
    files = _prepare(workload)
    main = _import_cli()
    tracer = Tracer()

    def traced_call(pass_id: str, name: str, argv: list[str]) -> int:
        tracer.pass_id = pass_id

        def call():
            with tracer.installed(), tracer.span("cli." + name):
                return run_command(main, argv)[0]
        first = len(tracer.spans)
        code, at_ref, raw = _timed(probe, call)
        tracer.spans[first][5]["scale"] = at_ref / raw
        return code

    failed = traced_call("setup", "gen", _gen_argv(workload, seed, files)) != 0
    passes = []
    while len(passes) < 4 or _time_left(deadline, passes):  # 2 of each kind
        is_traced = len(passes) % 2 == 1
        tracer.pass_id = len(passes)
        with tracer.installed() if is_traced else contextlib.nullcontext():
            passes.append(run_pass(main, files, probe, tracer if is_traced else None))
    tracer.memory = True
    failed += traced_call("memory", "opt_lazy", command_argv("opt_lazy", files)) != 0
    tracer.memory = False
    tracer.write(RUNS / workload / "spans.jsonl", t0)
    samples = layer_samples(tracer.spans, probe)
    # Each traced pass minus the untraced pass just before it.
    walls = [p["wall"] for p in passes]
    samples["trace.overhead_s"] = [walls[i] - walls[i - 1] for i in range(1, len(walls), 2)]
    expected = expected_values(workload, seed)
    failed += failed_commands(passes, _gen_args(workload)[1], expected)
    return {"attempted": 2 + len(passes) * len(PASS), "failed": failed,
            "pinned": expected is not None,
            "samples": samples, "raw": {}, "units": PER_LAYER}


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="time budget of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lazybst" / "cli.py").is_file():
        print(f"error: no lazybst sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    run = run_traced if args.trace else run_untraced
    probe = SpeedProbe()
    with probe.running():
        result = run(args.workload, args.seed, args.seconds, probe)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + ("outputs pinned by expected.json" if result["pinned"] else
             "no expected.json values for this seed: outputs checked against each other only"))
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
