"""Cold-start cost of importing weylwalk's entry modules, and numpy for reference.

    python3 tools/import_cost.py [--runs N] [--job WORKLOAD INDEX]

For each of ``weylwalk.cli``, ``weylwalk.markov``, ``weylwalk.montecarlo`` and
``numpy`` it starts N fresh interpreters that import it and takes the median
wall time, minus the median wall time of N ``python -c pass`` runs, and the
median peak RSS of those interpreters, read per child from ``os.wait4``.  The
RSS column is the floor under a job's peak RSS, the same ``ru_maxrss`` of
each job process, whose largest is the benchmark's ``peak_rss_mib``:
``weylwalk.cli`` lies under every job.  No job loads numpy: both samplers,
the exit kernel behind ``simulate`` and ``sandwich`` and the h-law, draw
their stream in pure Python, so every peak sits on the ``weylwalk.cli``
floor plus what the job itself allocates.  The ``numpy`` row shows what a
sampler on numpy would put under each Monte-Carlo job.
``weylwalk.cli`` is what every command loads; ``weylwalk.markov`` (timed on
its own) is the layer that ``hchain``, ``conditioned``, ``pitman`` and
``verify`` load on top of it.  The runs go round-robin over the baseline and
the modules, so drift in machine speed hits every column alike.  It also
lists the third-party top-level modules the import loads, and how many
modules in all it adds to a bare interpreter.

``--job`` adds one benchmark job to the round-robin: job INDEX (from 0) of
``perfbench/workloads.py`` ``jobs(WORKLOAD, 1)``, run untraced through
``perfbench/child.py`` as the benchmark runs it, in a fresh output directory
each time.  Its row gives the job's median wall time, spawn to reap, and
median ``ru_maxrss``, next to the ``weylwalk.cli`` floor it starts from, so
that a claim about one job's peak RSS can be checked from the repo;
``minus_pass_s`` is again over ``python -c pass``.  A job that exits non-zero
stops the tool.

A child's ``ru_maxrss`` also counts the high-water RSS of the process that
spawned it, which it shares until it execs the interpreter.  So every row
reads at least this tool's own RSS (the ``python -c pass`` row), as every
benchmark job reads at least the harness's.

The children import weylwalk from this checkout's ``src`` and inherit the
environment.  With ``PYTHONDONTWRITEBYTECODE`` set and no cached bytecode,
every run compiles weylwalk's sources and the times include that compile;
with ``PYTHONPYCACHEPREFIX`` pointing at a warm cache (and bytecode writing
on), they do not.  The header line says which setting was in force.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

MODULES = ("weylwalk.cli", "weylwalk.markov", "weylwalk.montecarlo", "numpy")
FIRST_PARTY = {"weylwalk"}


def _env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _run(args: List[str], env: Dict[str, str]) -> Tuple[float, float]:
    """Wall time in s and peak RSS in MiB of one interpreter run with ``args``."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable] + args, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024


def _job_runner(workload: str, index: int, scratch: str):
    """The label of a benchmark job and a callable that writes a fresh spec
    for one run of it (a new output directory each time) and returns the
    arguments that run it through ``child.py``."""
    job = next(itertools.islice(workloads.jobs(workload, 1), index, None))
    what = job["command"] if job["kind"] == "cli" else job["task"]
    body = job["config"] if job["kind"] == "cli" else job["params"]
    runs = itertools.count()

    def args() -> List[str]:
        run = os.path.join(scratch, f"{next(runs):04d}")
        os.makedirs(run)
        spec = {"id": job["id"], "kind": job["kind"], "trace": False,
                "out": os.path.join(run, "out"), "meta": os.path.join(run, "meta.json"),
                "spans": os.path.join(run, "spans")}
        if job["kind"] == "cli":
            config = os.path.join(run, "config.json")
            with open(config, "w") as f:
                json.dump(job["config"], f)
            spec["argv"] = [job["command"], "--config", config]
        else:
            spec.update(task=job["task"], params=job["params"])
        path = os.path.join(run, "spec.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        return [os.path.join(BENCH, "child.py"), path]

    return f"{job['id']} {what} {body['type']}", args


def _loaded(code: str, env: Dict[str, str]) -> Set[str]:
    probe = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return set(done.stdout.split())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="interpreters per column")
    parser.add_argument("--job", nargs=2, metavar=("WORKLOAD", "INDEX"),
                        help="also run job INDEX of a benchmark workload through child.py")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.job and (args.job[0] not in workloads.WORKLOADS or not args.job[1].isdigit()):
        parser.error(f"--job takes one of {sorted(workloads.WORKLOADS)} and an index >= 0")
    env = _env()
    codes = {"pass": "pass", **{m: f"import {m}" for m in MODULES}}
    commands = {name: (lambda code=code: ["-c", code]) for name, code in codes.items()}
    with tempfile.TemporaryDirectory(prefix="import-cost-") as scratch:
        if args.job:
            job_label, commands["job"] = _job_runner(args.job[0], int(args.job[1]), scratch)
        times: Dict[str, List[float]] = {name: [] for name in commands}
        rss: Dict[str, List[float]] = {name: [] for name in commands}
        for _ in range(args.runs):
            for name, command in commands.items():
                wall, peak = _run(command(), env)
                times[name].append(wall)
                rss[name].append(peak)
    base = statistics.median(times["pass"])
    bare = _loaded("pass", env)
    stdlib = set(sys.stdlib_module_names)
    print(f"python {sys.version.split()[0]}, {args.runs} runs per column, "
          f"PYTHONDONTWRITEBYTECODE={env.get('PYTHONDONTWRITEBYTECODE', '')!r}, "
          f"PYTHONPYCACHEPREFIX={env.get('PYTHONPYCACHEPREFIX', '')!r}")
    print(f"{'import':<22}{'median_s':>10}{'minus_pass_s':>14}{'rss_mib':>9}"
          f"{'new_modules':>13}  third-party")
    print(f"{'(python -c pass)':<22}{base:>10.3f}{0:>14.3f}"
          f"{statistics.median(rss['pass']):>9.1f}{0:>13}  -")
    for name in MODULES:
        new = _loaded(codes[name], env) - bare
        third = sorted({m.split(".")[0] for m in new}
                       - stdlib - FIRST_PARTY - {m.split(".")[0] for m in bare})
        median = statistics.median(times[name])
        print(f"{name:<22}{median:>10.3f}{median - base:>14.3f}"
              f"{statistics.median(rss[name]):>9.1f}{len(new):>13}  {' '.join(third) or '-'}")
    if args.job:
        median, peak = statistics.median(times["job"]), statistics.median(rss["job"])
        print(f"{'job ' + ' '.join(args.job):<22}{median:>10.3f}{median - base:>14.3f}"
              f"{peak:>9.1f}{'-':>13}  {job_label}")
        print(f"job over the weylwalk.cli floor: "
              f"{median - statistics.median(times['weylwalk.cli']):+.3f} s, "
              f"{peak - statistics.median(rss['weylwalk.cli']):+.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
