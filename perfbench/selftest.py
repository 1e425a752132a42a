"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They spawn small benchmark runs, so they take about a minute.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, run.SRC)

E2E_LINES = dict(run.END_TO_END_UNITS, **run.REPORTED_ONLY_UNITS)


def bench(*argv, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name, unit in E2E_LINES.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line + " " for line in lines), name
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run_prints_every_per_layer_metric():
    proc = bench("--workload", "mc-exit", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: unit for n, (unit, _) in run.PER_LAYER.items()}
    assert "trace.overhead_frac" in result["metrics"]
    assert "wait time: none recorded" in proc.stdout


def _job(kind, what, body, n=0):
    key = "command" if kind == "cli" else "task"
    field = "config" if kind == "cli" else "params"
    return {"id": f"test-{n}", "kind": kind, key: what, field: body}


def test_bad_config_and_time_cap_both_count_as_failed(capsys):
    bad = _job("cli", "psi", {"type": "C2", "tau": ["3/2", "1/2"], "mu_limit": 2, "mu": [0, 0]})
    slow = _job("lib", "weyl_group", {"type": "D6"}, 1)
    good = _job("lib", "weyl_group", {"type": "B4"}, 2)
    result = run.run("structure", 0, 600, trace=False, cap=3.0, jobs=[bad, slow, good])
    shutil.rmtree(run.WORK)  # the failed jobs' directories
    out = capsys.readouterr().out
    assert result["attempted"] == 4 and result["failed"] == 2 and not result["correct"]
    assert "exit code 2" in out and "over the time cap of 3 s" in out
    assert "(2 of 4 attempted jobs failed)" in out
    assert [line for line in out.splitlines() if line.split()[:1] == ["failed_frac"]][0] \
        .split()[1] == "0.5"


def test_self_time_subtracts_the_time_child_spans_cover():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert list(spans.self_times(parent, start, end)) == [3.0, 3.0, 3.0, 1.0]


def test_recorded_spans_add_up_to_the_root(tmp_path):
    rec = spans.Recorder()

    def leaf(x):
        return x + 1

    traced_leaf = rec.wrap(leaf, "toy.leaf")
    traced_mid = rec.wrap(lambda: [traced_leaf(i) for i in range(5)], "toy.mid")
    rec.wrap(lambda: (traced_mid(), traced_leaf(0)), "bench.job")()
    rec.dump(str(tmp_path / "spans"), {"job": "toy"})
    meta, by_name, root = spans.load(str(tmp_path / "spans"))
    assert meta["count"] == 8 and by_name["toy.leaf"][0] == 6 and by_name["toy.mid"][0] == 1
    total = sum(self_s for _, self_s in by_name.values())
    assert total == pytest.approx(root[1] - root[0], abs=1e-9)


def test_install_binds_every_name_callers_look_up():
    import weylwalk.cli
    from weylwalk import charalg, crystal, markov, montecarlo

    rec = spans.install()
    try:
        for owner, name in [(montecarlo, "hchain_entry"), (montecarlo, "pitman_prefix_weights"),
                            (charalg, "act"), (charalg, "count_f_multiplicity"),
                            (weylwalk.cli, "tensor_apply_e"), (markov, "module_multiplicity"),
                            (crystal, "count_multiplicity")]:
            assert hasattr(getattr(owner, name), "__wrapped__"), (owner.__name__, name)
    finally:
        rec.restore()
    assert not hasattr(montecarlo.hchain_entry, "__wrapped__")
    assert not hasattr(charalg.CharacterAlgebra.psi, "__wrapped__")


@pytest.fixture()
def runner():
    r = run.Runner("structure", 0, trace=False, cap=120.0)
    yield r
    shutil.rmtree(r.work)
    r.close()


@pytest.mark.parametrize("job", [
    _job("cli", "hchain", {"type": "C2", "kappa": [1, 0], "state_limit": 2, "tau": ["1/2", "1/3"]}),
    _job("cli", "sandwich", {"type": "C2", "kappa": [0, 1], "tau": ["1/2", "1/3"],
                             "samples": 2000, "horizon": 30, "mu": [0, 0], "seed": 7}),
    _job("lib", "h_law", {"type": "C2", "kappa": [1, 0], "ell": 4, "samples": 300,
                          "tau": ["1/2", "1/3"], "seed": 3}),
], ids=["hchain", "sandwich", "h_law"])
def test_traced_and_untraced_jobs_write_identical_outputs(runner, job):
    plain = runner.run_job(job, trace=False)
    traced = runner.run_job(job, trace=True)
    assert plain["error"] is None and traced["error"] is None
    assert run.same_outputs(plain["spec"]["out"], traced["spec"]["out"]) is None
    _, by_name, _ = spans.load(traced["spec"]["spans"])
    assert {"bench.job", "markov.distribution"} <= set(by_name)


def test_checks_reject_a_wrong_value(runner):
    job = _job("cli", "psi", {"type": "A2", "tau": ["1/2", "1/3"], "mu_limit": 2, "mu": [0, 0]})
    rec = runner.run_job(job, trace=False)
    assert rec["error"] is None
    path = os.path.join(rec["spec"]["out"], "psi_table.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    coords, value, as_float = lines[1].rsplit(",", 2)
    lines[1] = ",".join([coords, value + "1", as_float])
    with open(path, "w") as f:
        f.write("\n".join(lines))
    with pytest.raises(checks.CheckError):
        runner.checker.check_cli("psi", job["config"], rec["spec"]["out"], 0)


def test_same_outputs_ignores_only_the_manifest(tmp_path):
    for side, stamp in (("a", "1"), ("b", "2")):
        os.makedirs(tmp_path / side)
        (tmp_path / side / "psi_manifest.json").write_text(stamp)
        (tmp_path / side / "psi_table.csv").write_text("mu,psi\n")
    assert run.same_outputs(str(tmp_path / "a"), str(tmp_path / "b")) is None
    (tmp_path / "b" / "psi_table.csv").write_text("mu,psi \n")
    assert "psi_table.csv" in run.same_outputs(str(tmp_path / "a"), str(tmp_path / "b"))


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-exit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_every_run_deals_the_expensive_slot_first():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    for workload, (expensive, *_) in workloads.WORKLOADS.items():
        first = list(itertools.islice(workloads.jobs(workload, 3), len(expensive) + 1))
        assert [job.get("clock_s") for job in first] == [c for *_, c in expensive] + [None]
        # the loop's clock counts clock_s, so a full run always gets through all of them
        assert sum(c for *_, c in expensive) < run_seconds


def test_same_seed_same_jobs():
    for workload in workloads.WORKLOADS:
        a = [j for _, j in zip(range(30), workloads.jobs(workload, 9))]
        b = [j for _, j in zip(range(30), workloads.jobs(workload, 9))]
        c = [j for _, j in zip(range(30), workloads.jobs(workload, 10))]
        assert a == b and a != c
