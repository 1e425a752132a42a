"""The benchmark's exact checker reads the library directly: ``Weight.root``,
rational ``TauPoint.power``, ``CharacterAlgebra.posroots`` and the ``word`` and
``sign`` of Weyl elements.  Run it in-process on small real outputs, so a
refactor that breaks that view fails here rather than in a benchmark run.
The files under ``perfbench/`` are only read."""

import importlib.util
import json
import os

import pytest

from weylwalk.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
child = _load("child")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


def _run_cli(tmp_path, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    return main([command, "--config", str(path), "--output-dir", out]), out


@pytest.mark.parametrize("command,cfg", [
    ("psi", dict(workloads.psi("C2", 2, [1, 0]), tau=["1/3", "2/5"])),
    ("hchain", dict(workloads.module_box(2), tau_roots=["1/2", "2/3"])),
])
def test_checker_accepts_cli_outputs(tmp_path, checker, command, cfg):
    code, out = _run_cli(tmp_path, command, cfg)
    checker.check_cli(command, cfg, out, code)


@pytest.mark.parametrize("task,params", [
    ("master_identity", dict(workloads.master("B3", 2, True), tau=["1/2", "2/3", "3/4"])),
    ("weyl_group", {"type": "F4"}),
])
def test_checker_accepts_library_results(tmp_path, checker, task, params):
    result = child.library_task(task, params)
    (tmp_path / "result.json").write_text(json.dumps(result))
    checker.check_lib(task, params, str(tmp_path), 0)


def test_checker_rejects_a_wrong_psi_value(tmp_path, checker):
    cfg = dict(workloads.psi("C2", 1, [0, 0]), tau=["1/3", "2/5"])
    code, out = _run_cli(tmp_path, "psi", cfg)
    table = os.path.join(out, "psi_table.csv")
    with open(table) as f:
        lines = f.read().splitlines()
    coords, value, rest = lines[-1].rsplit(",", 2)
    lines[-1] = ",".join([coords, value + "1", rest])
    with open(table, "w") as f:
        f.write("\n".join(lines))
    with pytest.raises(checks.CheckError, match="Weyl alternating sum"):
        checker.check_cli("psi", cfg, out, code)
