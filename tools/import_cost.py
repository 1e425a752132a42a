"""Cold-start cost of importing weylwalk's entry modules, and numpy for reference.

    python3 tools/import_cost.py [--runs N]

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

The children import weylwalk from this checkout's ``src`` and inherit the
environment.  With ``PYTHONDONTWRITEBYTECODE`` set and no cached bytecode,
every run compiles weylwalk's sources and the times include that compile;
with ``PYTHONPYCACHEPREFIX`` pointing at a warm cache (and bytecode writing
on), they do not.  The header line says which setting was in force.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("weylwalk.cli", "weylwalk.markov", "weylwalk.montecarlo", "numpy")
FIRST_PARTY = {"weylwalk"}


def _env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def _run(code: str, env: Dict[str, str]) -> Tuple[float, float]:
    """Wall time in s and peak RSS in MiB of one interpreter running ``code``."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024


def _loaded(code: str, env: Dict[str, str]) -> Set[str]:
    probe = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return set(done.stdout.split())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="interpreters per column")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = _env()
    codes = {"pass": "pass", **{m: f"import {m}" for m in MODULES}}
    times: Dict[str, List[float]] = {name: [] for name in codes}
    rss: Dict[str, List[float]] = {name: [] for name in codes}
    for _ in range(args.runs):
        for name, code in codes.items():
            wall, peak = _run(code, env)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
