"""Self-test of the benchmark harness: its checks catch wrong outputs, its
counters count what they claim, and tracing changes no command output.

    python3 -m pytest perfbench -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().with_name("run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
sys.path.insert(0, str(bench.SRC))

import lazybst.cli  # noqa: E402
from lazybst import build_multitree, fileio, frequencies_from_sequence, probe  # noqa: E402

N = 24


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    files = {name: str(work / name) for name in bench.FILES}
    code, _ = bench.run_command(lazybst.cli.main, [
        "gen", "--kind", "markov", "--n", str(N), "--m", "3000", "--seed", "5",
        "--out", files["seq"]])
    assert code == 0
    return files, bench.run_pass(lazybst.cli.main, files, bench.SpeedProbe())


def test_good_pass_passes_every_check(good):
    _, p = good
    assert set(p["codes"].values()) == {0}
    assert bench.failed_commands([p, p], N) == 0


def test_wrong_tree_counts_as_failure(good, tmp_path):
    files, p = good
    path_tree = tmp_path / "path.tree"  # 1 -> 2 -> ... -> N: a valid BST, not optimal
    path_tree.write_text(f"{N} 1\n" + "".join(
        f"{k} 0 {k + 1 if k < N else 0}\n" for k in range(1, N + 1)))
    code, out = bench.run_command(lazybst.cli.main, [
        "eval", "--method", "lazy", "--tree", str(path_tree), "--seq", files["seq"]])
    assert code == 0
    assert bench.check_pass({**p["out"], "eval_lazy": out}, N) == {"eval_lazy"}


def test_tampered_compare_counts_as_failure(good):
    _, p = good
    lines = p["out"]["compare"].splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("multitree\t"))
    fields = lines[row].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    lines[row] = "\t".join(fields)
    tampered = {**p["out"], "compare": "\n".join(lines) + "\n"}
    assert bench.check_pass(tampered, N) == {"compare"}
    assert bench.failed_commands([p, {**p, "out": tampered}], N) == 1


def test_unparsable_output_counts_as_failure(good):
    _, p = good
    assert bench.check_pass({**p["out"], "opt_lazy": ""}, N) == {"eval_lazy", "compare"}


def test_value_other_than_pinned_counts_as_failure(good):
    _, p = good
    pinned = bench.pinned_values(p["out"])
    assert bench.check_pass(p["out"], N, pinned) == set()
    # The seed commit found a cheaper tree: opt and compare agree with each
    # other and with eval, but not with it.
    cheaper = {**pinned, "opt_lazy": pinned["opt_lazy"] - 1}
    assert bench.check_pass(p["out"], N, cheaper) == {"opt_lazy"}
    treap = {**pinned, "compare": {**pinned["compare"], "treap-lazy": 0}}
    assert bench.failed_commands([p, p], N, treap) == 2


def test_expected_json_pins_default_and_held_out_seeds():
    for workload in bench.WORKLOADS:
        for seed in (bench.DEFAULT_SEED, 2):
            pinned = bench.expected_values(workload, seed)
            assert pinned["compare"]["opt-lazy"] == pinned["opt_lazy"]
            assert pinned["compare"]["opt-root"] == pinned["opt_root"]


def test_file_that_changes_between_passes_counts_as_failure(good):
    _, p = good
    later = {**p, "hashes": {**p["hashes"], "lazy": "0" * 64}}
    assert bench.failed_commands([p, later], N) == 1


def test_traced_pass_matches_untraced_and_restores(good):
    files, p = good
    original = lazybst.cli.optimal_lazy_dp
    tracer, probe = bench.Tracer(), bench.SpeedProbe()
    tracer.pass_id = 0
    with tracer.installed():
        assert lazybst.cli.optimal_lazy_dp is not original
        traced = bench.run_pass(lazybst.cli.main, files, probe, tracer)
    assert lazybst.cli.optimal_lazy_dp is original
    assert traced["out"] == p["out"]
    assert traced["hashes"] == p["hashes"]

    names = [span[0] for span in tracer.spans]
    parents = {names[span[3]] for span in tracer.spans
               if span[0] == "optimize.optimal_lazy_dp"}
    assert parents == {"cli.opt_lazy", "cli.compare"}
    assert names.count("fileio.read_sequence") == 7
    assert "model.validate_tree" in names  # called by fileio.read_tree
    assert "optimize.mehlhorn_build" in names  # called by build_multitree

    samples = bench.layer_samples(tracer.spans, probe)
    assert samples["optimize.optimal_lazy_dp.calls"] == [2]
    assert samples["optimize.optimal_lazy_dp.cells"] == [2 * N * (N + 1) * (N + 2) // 6]
    command_time = sum((end - start) * counters["scale"]
                       for name, start, end, _, _, counters in tracer.spans
                       if name.startswith("cli."))
    self_time = sum(samples[f"{module}.self_s"][0] for module in bench.MODULES)
    assert self_time == pytest.approx(command_time)


def _forward_lazy_dp(s, _dp=lazybst.cli.optimal_lazy_dp):
    return _dp(s)


def test_unpatched_function_leaves_metric_missing_and_run_incorrect(good, monkeypatch):
    files, _ = good
    # cli now reaches the DP through a function the tracer does not patch.
    monkeypatch.setattr(lazybst.cli, "optimal_lazy_dp", _forward_lazy_dp)
    tracer, probe = bench.Tracer(), bench.SpeedProbe()
    tracer.pass_id = 0
    with tracer.installed():
        p = bench.run_pass(lazybst.cli.main, files, probe, tracer)
    samples = bench.layer_samples(tracer.spans, probe)
    line = bench.result_line({"attempted": 10, "failed": bench.failed_commands([p], N),
                              "samples": samples, "raw": {}, "units": bench.PER_LAYER})
    assert line["failed"] == 0
    assert line["correct"] is False
    assert "optimize.optimal_lazy_dp.s" not in line["metrics"]
    assert "cost.run_lazy_finger.s" in line["metrics"]


def test_memory_call_measures_dp_tables(good):
    files, _ = good
    tracer = bench.Tracer()
    tracer.pass_id, tracer.memory = "memory", True
    with tracer.installed(), tracer.span("cli.opt_lazy"):
        code, _ = bench.run_command(lazybst.cli.main, bench.command_argv("opt_lazy", files))
    assert code == 0
    dp = next(span for span in tracer.spans if span[0] == "optimize.optimal_lazy_dp")
    # At least the (n+2) x (n+1) int64 cost table.
    assert dp[5]["optimize.optimal_lazy_dp.table_bytes"] >= 8 * (N + 2) * (N + 1)


def test_hit_rate_counts_probe_hits(good):
    files, _ = good
    x = fileio.read_sequence(Path(files["seq"]).read_text())
    s = frequencies_from_sequence(x)
    mt = build_multitree(s, bench.MULTITREE_D)
    items = x.items.tolist()
    hits = sum(probe(mt.succ[a], b)[0] for a, b in zip(items, items[1:]))
    counters = bench.COUNTERS["multitree.run_multitree"]((mt, x), 0)
    assert counters["multitree.hits"] == hits
    assert hits == sum(int(s.pair[a, list(st.members)].sum())
                       for a, st in enumerate(mt.succ))
    assert counters["multitree.transitions"] == x.m - 1


def test_benchmark_json_matches_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dp-markov"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
