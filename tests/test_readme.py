"""The README quick tour and CLI examples run as written and their stated
results hold."""

import json
import os
import re
import shlex
from fractions import Fraction

from weylwalk import markov
from weylwalk.cli import main

from test_unused_imports import unused_imports

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        return f.read()


def test_readme_quick_tour_results():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    assert len(blocks) == 1
    tour = blocks[0]
    assert "# Fraction(21, 128)" in tour and "# equals markov.hchain_matrix(...)" in tour
    assert unused_imports(tour) == []
    ns = {}
    exec(compile(tour, "README.md", "exec"), ns)
    algebra, datum, tau = ns["algebra"], ns["datum"], ns["tau"]
    assert algebra.psi(datum.zero_weight(), tau) == Fraction(21, 128)
    doob = markov.doob_transform(ns["sub"], ns["psi_vals"])
    hchain = markov.hchain_matrix(ns["dist"], ns["states"], strict=False)
    assert doob.rows == hchain.rows and doob.row_complete == hchain.row_complete


def test_readme_cli_examples_run(tmp_path):
    """The three example lines of "CLI" exit 0, with the config shown there
    and every output directory moved under tmp_path."""
    section = _readme().split("## CLI", 1)[1]
    lines = re.search(r"```\n(weylwalk .*?)```", section, re.S).group(1).splitlines()
    config = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    config["output_dir"] = str(tmp_path / "simulate")
    (tmp_path / "config.json").write_text(json.dumps(config))
    moved = {"out": str(tmp_path / "out"), "config.json": str(tmp_path / "config.json")}
    commands = []
    for line in lines:
        argv = shlex.split(line.split("#")[0])[1:]
        assert main([moved.get(a, a) for a in argv]) == 0, line
        commands.append(argv[0])
    assert commands == ["verify", "crystal", "simulate"]
    assert "5-node" in lines[1]
    crystal = json.loads((tmp_path / "out" / "crystal_0_1.json").read_text())
    assert len(crystal["nodes"]) == 5
    assert (tmp_path / "simulate" / "simulate_manifest.json").exists()
