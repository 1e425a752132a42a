import collections
import copy
import csv
import json
import math
import os
import subprocess
import sys
import time

import pytest

import weylwalk
from weylwalk import markov as M
from weylwalk.cli import main


def run(tmp_path, *argv):
    outdir = tmp_path / "out"
    code = main(list(argv) + ["--output-dir", str(outdir)])
    return code, outdir


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_crystal_command(tmp_path):
    code, outdir = run(tmp_path, "crystal", "--type", "C2", "--kappa", "1,0")
    assert code == 0
    dot = (outdir / "crystal_1_0.dot").read_text()
    assert dot.count("->") == 3
    payload = json.loads((outdir / "crystal_1_0.json").read_text())
    assert len(payload["nodes"]) == 4


def test_crystal_command_five_nodes(tmp_path):
    code, outdir = run(tmp_path, "crystal", "--type", "C2", "--kappa", "0,1")
    assert code == 0
    payload = json.loads((outdir / "crystal_0_1.json").read_text())
    assert len(payload["nodes"]) == 5


def test_crystal_trivial_weight(tmp_path):
    code, outdir = run(tmp_path, "crystal", "--type", "C2", "--kappa", "0,0")
    assert code == 0
    payload = json.loads((outdir / "crystal_0_0.json").read_text())
    assert len(payload["nodes"]) == 1 and payload["edges"] == []


def test_psi_table_contains_golden(tmp_path):
    code, outdir = run(tmp_path, "psi", "--type", "C2", "--tau", "1/2,1/2")
    assert code == 0
    table = (outdir / "psi_table.csv").read_text()
    assert "21/128" in table


def test_psi_rejects_tau_outside_region(tmp_path):
    code, _ = run(tmp_path, "psi", "--type", "C2", "--tau", "3/2,1/2")
    assert code == 2


def test_verify_default_suite(tmp_path):
    code, outdir = run(tmp_path, "verify", "--type", "C2", "--kappa", "1,0",
                       "--tau", "1/2,1/2")
    assert code == 0
    checks = json.loads((outdir / "verify.json").read_text())
    assert checks and all(c["pass"] for c in checks)


def test_verify_a2(tmp_path):
    code, _ = run(tmp_path, "verify", "--type", "A2", "--kappa", "1,0",
                  "--tau", "1/2,1/3")
    assert code == 0


def test_verify_bad_tau_is_config_error(tmp_path):
    code, _ = run(tmp_path, "verify", "--type", "C2", "--tau", "5/4,1/2")
    assert code == 2


def test_conditioned_equals_hchain(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"], "state_limit": 3,
    })
    code, outdir = run(tmp_path, "conditioned", "--config", cfg)
    assert code == 0
    payload = json.loads((outdir / "conditioned.json").read_text())
    assert payload["kind"] == "stochastic"


def test_hchain_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"], "state_limit": 2,
    })
    code, outdir = run(tmp_path, "hchain", "--config", cfg)
    assert code == 0
    assert (outdir / "hchain.csv").exists()


def test_pitman_command(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "tau": ["1/2", "1/2"],
        "path": [["0", ["0", "0"]], ["1/2", ["-1", "0"]], ["1", ["0", "0"]]],
    })
    code, outdir = run(tmp_path, "pitman", "--config", cfg)
    assert code == 0
    payload = json.loads((outdir / "pitman.json").read_text())
    assert payload["output"][-1][1] == ["2", "0"]  # raised to the doubled end


def test_simulate_and_exit_contract(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"],
        "samples": 4000, "horizon": 8, "seed": 11,
    })
    code, outdir = run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    payload = json.loads((outdir / "simulate.json").read_text())
    assert len(payload) == 2 and all("target" in r for r in payload)


def test_sandwich_command(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [0, 1], "tau": ["1/2", "1/2"],
        "samples": 3000, "horizon": 12, "seed": 11,
    })
    code, outdir = run(tmp_path, "sandwich", "--config", cfg)
    assert code == 0
    payload = json.loads((outdir / "sandwich.json").read_text())
    assert payload["lemma_violations"] == 0


def test_ratio_command(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"],
        "mu": [2, 0], "ells": [4, 6, 8],
    })
    code, outdir = run(tmp_path, "ratio", "--config", cfg)
    assert code == 0
    assert (outdir / "ratio.csv").read_text().count("\n") >= 3


def test_character_command(tmp_path):
    code, outdir = run(tmp_path, "character", "--type", "C2", "--kappa", "0,1")
    assert code == 0
    assert len((outdir / "characters.csv").read_text().splitlines()) == 6


def test_manifest_written_and_outputs_idempotent(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"],
        "samples": 2000, "horizon": 5, "seed": 3,
    })
    code1, outdir = run(tmp_path, "simulate", "--config", cfg)
    first = (outdir / "simulate.json").read_bytes()
    first_curve = (outdir / "simulate_curve.csv").read_bytes()
    code2, outdir = run(tmp_path, "simulate", "--config", cfg)
    assert code1 == code2 == 0
    assert (outdir / "simulate.json").read_bytes() == first
    assert (outdir / "simulate_curve.csv").read_bytes() == first_curve
    manifest = json.loads((outdir / "simulate_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "simulate.json" in manifest["outputs"]
    assert manifest["config"]["samples"] == 2000


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["psi", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_bad_matrix_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"type": {"matrix": [[2, -2], [-2, 2]]},
                                  "tau": ["1/2", "1/2"]})
    code, _ = run(tmp_path, "psi", "--config", cfg)
    assert code == 2


def test_module_config(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2",
        "module": [{"kappa": [1, 0], "mult": 1}, {"kappa": [0, 1], "mult": 1}],
        "tau": ["1/4", "1/9"], "tau_roots": ["1/2", "1/3"],
        "state_limit": 3,
    })
    code, outdir = run(tmp_path, "conditioned", "--config", cfg)
    assert code == 0


def test_verify_module_config(tmp_path):
    cfg = write_config(tmp_path, {
        "type": "C2",
        "module": [{"kappa": [1, 0], "mult": 1}, {"kappa": [0, 1], "mult": 1}],
        "tau": ["1/4", "1/9"], "tau_roots": ["1/2", "1/3"],
    })
    code, outdir = run(tmp_path, "verify", "--config", cfg)
    assert code == 0
    checks = json.loads((outdir / "verify.json").read_text())
    assert all(c["pass"] for c in checks)


def test_simulate_curve_stderr_is_binomial(tmp_path):
    n = 4000
    cfg = write_config(tmp_path, {
        "type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/2"],
        "samples": n, "horizon": 8, "seed": 11,
    })
    code, outdir = run(tmp_path, "simulate", "--config", cfg)
    assert code == 0
    with open(outdir / "simulate_curve.csv") as f:
        rows = list(csv.DictReader(f))
    assert [int(r["L"]) for r in rows] == list(range(1, 9))
    for r in rows:
        p = float(r["estimate"])
        assert 0 < p < 1
        assert float(r["stderr"]) == math.sqrt(p * (1 - p) / n)


def test_verify_e7_exits_budget_at_once(tmp_path):
    start = time.perf_counter()
    code, _ = run(tmp_path, "verify", "--type", "E7", "--tau", ",".join(["1/2"] * 7))
    assert code == 4
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("mu", [None, "2,0"])
def test_ratio_flags_exit_ok(tmp_path, mu):
    # with mu = 0 every ratio equals its target, so every deviation is 0
    argv = ["ratio", "--type", "C2", "--kappa", "1,0", "--tau", "1/2,1/3"]
    code, outdir = run(tmp_path, *(argv + ([] if mu is None else ["--mu", mu])))
    assert code == 0
    payload = json.loads((outdir / "ratio.json").read_text())
    assert payload
    if mu is None:
        assert all(r["deviation_float"] == 0 for r in payload)


def test_one_summand_module_config_equals_kappa(tmp_path):
    """A one-summand module is the weight source, multiplicity and all; its
    reference weight kappa keeps exponents integral, so no tau roots."""
    base = {"type": "C2", "tau": ["1/2", "1/3"], "state_limit": 3}
    outputs = []
    for source in ({"kappa": [0, 1]}, {"module": [{"kappa": [0, 1], "mult": 2}]}):
        cfg = write_config(tmp_path, dict(base, **source))
        code, outdir = run(tmp_path, "hchain", "--config", cfg)
        assert code == 0
        outputs.append((outdir / "hchain.csv").read_bytes())
    assert outputs[0] == outputs[1]


IMPORT_PROBE = """
import sys, tempfile
from fractions import Fraction
import weylwalk.cli

WATCHED = ("numpy", "datetime", "dataclasses", "weylwalk.markov", "weylwalk.montecarlo")

def loaded(stage):
    print("loaded", stage, *[m for m in WATCHED if m in sys.modules])

loaded("cli")
import weylwalk, weylwalk.montecarlo as MC
from weylwalk import build_cartan_datum, markov as M
from weylwalk.charalg import CharacterAlgebra, tau_point
loaded("import")
datum = build_cartan_datum("C2")
tau = tau_point(datum, [Fraction(1, 2), Fraction(1, 3)])
dist = M.build_distribution(CharacterAlgebra(datum), datum.weight((1, 0)), tau)
assert MC.asymptotic_ratio(dist, datum.weight((2, 0)), [4, 6])
with tempfile.TemporaryDirectory() as out:
    assert weylwalk.cli.main(["ratio", "--type", "C2", "--kappa", "1,0", "--tau",
                              "1/2,1/3", "--mu", "2,0", "--output-dir", out]) == 0
loaded("ratio")
MC.simulate_exits(dist, datum.zero_weight(), 3, 10, seed=1)
loaded("simulate")
"""


def test_cli_import_leaves_numpy_out():
    """``import weylwalk.cli`` loads neither ``markov`` nor ``montecarlo``, nor
    numpy, datetime or dataclasses.  Importing the package and every layer
    loads neither numpy, datetime nor dataclasses; the exact ratio paths, in
    the library and the CLI, run without them; the first sampling call loads
    numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylwalk.__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    stages = {words[1]: words[2:] for words in map(str.split, done.stdout.splitlines())
              if words[:1] == ["loaded"]}
    assert stages["cli"] == []
    for stage in ("import", "ratio"):
        assert not {"numpy", "datetime", "dataclasses"} & set(stages[stage]), stage
    assert "numpy" in stages["simulate"]


MODULE_1_2 = {
    "type": "C2",
    "module": [{"kappa": [1, 0], "mult": 1}, {"kappa": [0, 1], "mult": 2}],
    "tau": ["1/4", "1/9"], "tau_roots": ["1/2", "1/3"],
}


def test_verify_module_with_multiplicities(tmp_path):
    code, outdir = run(tmp_path, "verify", "--config", write_config(tmp_path, MODULE_1_2))
    assert code == 0
    checks = json.loads((outdir / "verify.json").read_text())
    assert all(c["pass"] for c in checks)


def test_verify_module_twisted_law_sees_multiplicities(tmp_path, monkeypatch):
    """A twisted law that drops the multiplicity 2 fails the check."""
    original = M.twisted_law

    def ignoring_multiplicity(dist, w):
        flat = copy.copy(dist)
        flat.crystals = [(c, 1) for c, _ in dist.crystals]
        return original(flat, w)

    monkeypatch.setattr(M, "twisted_law", ignoring_multiplicity)
    code, outdir = run(tmp_path, "verify", "--config", write_config(tmp_path, MODULE_1_2))
    assert code == 3
    failed = [c["check"] for c in json.loads((outdir / "verify.json").read_text())
              if not c["pass"]]
    assert failed == ["twisted law equals permuted law"]


@pytest.mark.parametrize("argv,payload", [
    (["crystal", "--type", "C2", "--kappa", "1,x"], None),
    (["simulate", "--type", "C2", "--mu", "0;0"], None),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "horizon": "abc"}),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "mu": "0,0"}),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "horizon": 2.7}),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "mu": [0.5, 0]}),
    (["psi"], {"type": {}, "tau": ["1/2", "1/2"]}),
    (["psi"], {"type": "C2", "tau": ["1/2", "abc"]}),
    (["psi"], {"type": "C2", "tau": [0.5, 0.5]}),
    (["crystal"], {"type": "C2", "module": [{"mult": 2}]}),
    (["crystal"], {"type": "C2", "module": [[1, 0]]}),
    (["crystal"], ["C2"]),
    (["pitman"], {"type": "C2", "basis": "fw", "path": [["0", ["0"]], ["1", ["1"]]]}),
    (["crystal"], {"type": 5}),
    (["crystal"], {"type": None}),
    (["crystal"], {"type": True}),
    (["crystal"], {"type": {"matrix": 7}}),
    (["crystal"], {"type": {"matrix": [2, 2]}}),
    (["crystal"], {"type": {"matrix": []}}),
    (["crystal"], {"type": "A0"}),
    (["crystal"], {"type": {"matrix": [[2 if i == j else -1 if abs(i - j) == 1 else 0
                                        for j in range(9)] for i in range(9)]}}),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "horizn": 5}),
    (["crystal"], {"type": "C2", "module": [{"kappa": [1, 0], "mul": 2}]}),
    (["crystal"], {"type": {"matrix": [[2, -1], [-1, 2]], "label": "A2"}}),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "exact_horizon": 5}),
])
def test_malformed_config_exits_2(tmp_path, capsys, argv, payload):
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    code, _ = run(tmp_path, *argv)
    assert code == 2
    assert "config error" in capsys.readouterr().err


TAU = ["--type", "C2", "--tau", "1/2,1/2"]
README_MODULE = {"type": "C2",
                 "module": [{"kappa": [1, 0], "mult": 1}, {"kappa": [0, 1], "mult": 1}]}


# (argv, config payload or None, the key the error must name)
KEY_ERRORS = [
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "horizon": "abc"}, "horizon"),
    (["simulate", *TAU, "--samples", "0"], None, "samples"),
    (["simulate", *TAU, "--samples", "-5"], None, "samples"),
    (["sandwich", *TAU, "--samples", "0"], None, "samples"),
    (["simulate", *TAU, "--seed", "-1"], None, "seed"),
    (["sandwich", *TAU, "--seed", str(2**64)], None, "seed"),
    (["simulate", *TAU, "--horizon", "-1"], None, "horizon"),
    (["simulate", *TAU, "--horizon", "0"], None, "horizon"),
    (["sandwich", *TAU, "--horizon", "0"], None, "horizon"),
    (["simulate", *TAU, "--ell", "-1"], None, "ell"),
    (["ratio"], {"type": "C2", "tau": ["1/2", "1/2"], "ells": [4, -2]}, "ells"),
    (["hchain"], {"type": "C2", "tau": ["1/2", "1/2"], "state_limit": -1}, "state_limit"),
    (["psi"], {"type": "C2", "tau": ["1/2", "1/2"], "mu_limit": -1}, "mu_limit"),
    (["pitman"], {"type": "C2", "path": [1, 2]}, "path"),
    (["pitman"], {"type": "C2", "path": [["0", ["0", "0"]], ["1"]]}, "path"),
    (["psi", *TAU, "--mu=-1,0"], None, "mu"),
    (["hchain", *TAU, "--mu=-1,0"], None, "mu"),
    (["conditioned", *TAU, "--mu=-1,0"], None, "mu"),
    (["verify", *TAU, "--mu=-1,0"], None, "mu"),
    (["simulate", *TAU, "--mu=-1,0"], None, "mu"),
    (["sandwich", *TAU, "--mu=-1,0"], None, "mu"),
    (["ratio", *TAU, "--mu=-1,0"], None, "mu"),
    # a summand off the root lattice needs the D-th roots of tau
    *[([c], {**README_MODULE, "tau": ["1/4", "1/9"]}, "tau_roots")
      for c in ("hchain", "conditioned", "verify", "simulate", "sandwich", "ratio")],
    # JSON true is no integer and no rational
    (["hchain"], {"type": "C2", "tau": ["1/2", "1/2"], "kappa": [True, False]}, "kappa"),
    (["hchain"], {"type": "C2", "tau": ["1/2", "1/2"], "state_limit": True}, "state_limit"),
    (["simulate"], {"type": "C2", "tau": ["1/2", "1/2"], "samples": True}, "samples"),
    (["hchain"], {"type": "C2", "tau": ["1/2", "1/2"],
                  "module": [{"kappa": [1, 0], "mult": True}]}, "mult"),
    (["psi"], {"type": "C2", "tau": [True, "1/2"]}, "tau"),
]


def test_config_error_names_the_key(tmp_path, capsys):
    for argv, payload, key in KEY_ERRORS:
        if payload is not None:
            argv = argv + ["--config", write_config(tmp_path, payload)]
        assert run(tmp_path, *argv)[0] == 2, argv
        err = capsys.readouterr().err
        assert "config error" in err and f"'{key}'" in err, (argv, err)


@pytest.mark.parametrize("value,flag", [(5, False), ("FILE", False), ("FILE", True)])
def test_bad_output_dir_exits_2(tmp_path, capsys, value, flag):
    """A non-string output_dir, or one naming an existing file, is a config error."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    value = str(blocker) if value == "FILE" else value
    payload = {"type": "C2"} if flag else {"type": "C2", "output_dir": value}
    argv = ["crystal", "--config", write_config(tmp_path, payload)]
    assert main(argv + (["--output-dir", value] if flag else [])) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'output_dir'" in err


def test_psi_refuses_a_non_dominant_mu_before_writing(tmp_path, capsys):
    """mu is read before the psi table is built, so a config error writes no
    output, only the manifest."""
    code, outdir = run(tmp_path, "psi", "--type", "C2", "--tau", "1/2,1/2", "--mu=-1,0")
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (outdir / "psi_table.csv").exists()
    manifest = json.loads((outdir / "psi_manifest.json").read_text())
    assert manifest["exit_code"] == 2 and manifest["outputs"] == []


def test_psi_e7_exits_budget(tmp_path):
    """psi_poly is the |W|-term numerator, which E7 is refused at once; the
    run leaves a manifest.  The timeout guards against a hang."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylwalk.__file__)))
    cfg = write_config(tmp_path, {"type": "E7", "tau": ["1/2"] * 7, "mu_limit": 0})
    done = subprocess.run([sys.executable, "-m", "weylwalk.cli", "psi", "--config", cfg,
                           "--output-dir", str(tmp_path / "out")], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10)
    assert done.returncode == 4, done.stderr
    assert "resource budget exceeded" in done.stderr
    manifest = json.loads((tmp_path / "out" / "psi_manifest.json").read_text())
    assert manifest["exit_code"] == 4


def test_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    """A bug inside a command propagates instead of exiting 2."""
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(M, "hchain_matrix", broken)
    with pytest.raises(KeyError, match="internal"):
        run(tmp_path, "hchain", "--type", "C2", "--tau", "1/2,1/2")



@pytest.mark.parametrize("argv,payload,key", [
    (["psi", "--type", "C2", "--tau", "1/2"], None, "tau"),
    (["simulate", "--type", "C2", "--tau", "1/2"], None, "tau"),
    (["psi", "--type", "C2", "--tau", "1/2,1/3,1/4"], None, "tau"),
    (["psi"], {"type": "C2", "tau": "1/2"}, "tau"),
    (["psi"], {"type": "C2", "tau_roots": "1/2"}, "tau_roots"),
    (["psi"], {"type": "C2", "tau_roots": ["1/2"]}, "tau_roots"),
    (["psi"], {"type": "C2", "tau": ["1/4", "1/9"], "tau_roots": ["1/2", "1/3", "1"]},
     "tau_roots"),
])
def test_tau_needs_one_rational_per_rank(tmp_path, capsys, argv, payload, key):
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    code, outdir = run(tmp_path, *argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err
    assert not (outdir / "psi_table.csv").exists()


def _broken_twisted_law(monkeypatch):
    monkeypatch.setattr(M, "twisted_law", lambda *args: collections.defaultdict(int))


def _doubled_hchain_entry(monkeypatch):
    """Complete rows then sum to 2: a bug on valid input, not a config error."""
    entry = M.hchain_entry
    monkeypatch.setattr(M, "hchain_entry", lambda *args: 2 * entry(*args))


@pytest.mark.parametrize("argv,payload,patch,code,error", [
    (["psi", "--type", "C2", "--tau", "1/2,1/3"], None, None, 0, None),
    (["psi"], {"type": "C2", "tau": ["1/2", "1/3"], "kappa": [1, 0, 0]}, None, 2,
     "config error"),
    (["verify", "--type", "C2", "--tau", "1/2,1/3"], None, _broken_twisted_law, 3,
     "checks failed"),
    (["verify", "--type", "E7", "--tau", ",".join(["1/2"] * 7)], None, None, 4,
     "resource budget exceeded"),
    # psi never builds the step law, so it needs no tau_roots
    (["psi"], {**README_MODULE, "tau": ["1/4", "1/9"]}, None, 0, None),
    (["hchain", "--type", "C2", "--tau", "1/2,1/3"], None, _doubled_hchain_entry, 3,
     "verification failure"),
    # a block of 10 x 10^12 uniforms is refused before it is drawn
    (["simulate", "--type", "C2", "--tau", "1/2,1/3", "--samples", "10",
      "--horizon", str(10**12)], None, None, 4, "resource budget exceeded"),
    (["sandwich", "--type", "C2", "--tau", "1/2,1/3", "--samples", "10",
      "--horizon", str(10**12)], None, None, 4, "resource budget exceeded"),
    # an exact horizon whose branching counts carry too many states is refused
    (["simulate", "--type", "A1", "--kappa", "1", "--tau", "1/3", "--samples", "1",
      "--horizon", "100000", "--ell", "100000"], None, None, 4, "resource budget exceeded"),
    (["sandwich", "--type", "A1", "--kappa", "1", "--tau", "1/3", "--samples", "1",
      "--horizon", "100000"], None, None, 4, "resource budget exceeded"),
])
def test_manifest_records_every_exit(tmp_path, monkeypatch, argv, payload, patch, code, error):
    if payload is not None:
        argv = argv + ["--config", write_config(tmp_path, payload)]
    if patch is not None:
        patch(monkeypatch)
    manifests = []
    for _ in range(2):
        assert run(tmp_path, *argv)[0] == code
        manifests.append(json.loads((tmp_path / "out" / f"{argv[0]}_manifest.json").read_text()))
        assert manifests[-1].pop("timestamp")
    first = manifests[0]
    assert manifests[1] == first  # the timestamp is the only field that moves
    assert first["command"] == argv[0] and first["exit_code"] == code
    if error is None:
        assert first["error"] is None and first["outputs"]
    else:
        assert error in first["error"]
