"""Byte-for-byte output check of a weylwalk tree on the benchmark's job mixes.

    python3 tools/output_identity.py digest --src OLD/src --workload mc-exit \
        --seeds 1 2 3 --jobs 40 --out old.json
    python3 tools/output_identity.py digest --src NEW/src --workload mc-exit \
        --seeds 1 2 3 --jobs 40 --out new.json
    python3 tools/output_identity.py compare old.json new.json

``digest`` runs the first ``--jobs`` jobs of ``workloads.jobs(workload, seed)``
for each seed in one process, importing weylwalk from ``--src``, and records
each job's exit code and the SHA-256 of its standard output and of every file
it writes.  The manifests are left out: they carry a timestamp.  ``compare``
prints every job whose record differs and exits 1 if any does.

``--workload commands`` runs instead the fixed list ``COMMAND_JOBS`` below:
CLI runs of the commands that no benchmark workload makes (``crystal``,
``character``, ``pitman`` and ``ratio``), so that a change can be compared on
every command, and two runs no workload reaches: ``verify`` on D4, whose
twisted checks and alternating identities walk a group of 192 elements, and
an A1 ``simulate`` where every sample stays.  ``--seeds`` and ``--jobs`` do
not apply to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


RATIO_C2 = {"type": "C2", "kappa": [1, 0], "tau": ["1/2", "1/3"], "mu": [2, 0]}
COMMAND_JOBS = [
    {"id": f"commands-{k:02d}-{command}", "kind": "cli", "command": command, "config": config}
    for k, (command, config) in enumerate([
        ("crystal", {"type": "C2", "kappa": [0, 1]}),
        ("character", {"type": "B3", "kappa": [0, 0, 1]}),
        ("pitman", {"type": "C2", "basis": "fw", "path": [
            ["0", ["0", "0"]], ["1/3", ["-1", "1"]], ["2/3", ["-2", "1"]], ["1", ["1", "-1"]]]}),
        # its h_1 dips to -1/2 only
        ("pitman", {"type": "C2", "basis": "fw", "path": [
            ["0", ["0", "0"]], ["1/2", ["-1/2", "1"]], ["1", ["1", "0"]]]}),
        ("pitman", {"type": "B3", "path": [
            ["0", ["0", "0", "0"]], ["1/2", ["0", "-1", "0"]], ["1", ["1/2", "-1/2", "-1/2"]]]}),
        ("ratio", RATIO_C2),
        ("ratio", {**RATIO_C2, "ell": 4}),
        ("ratio", {**RATIO_C2, "ells": [6, 6]}),
        ("ratio", {**RATIO_C2, "ells": [8, 4]}),
        ("verify", {"type": "D4", "kappa": [1, 0, 0, 0], "tau": ["1/2", "1/3", "1/4", "1/5"]}),
        ("simulate", {"type": "A1", "kappa": [1], "mu": [2], "tau": ["1/30"],
                      "samples": 2000, "horizon": 3, "seed": 1}),
    ])
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(job: dict, work: str) -> dict:
    """Run one job in this process; its exit code and output digests."""
    out = os.path.join(work, job["id"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if job["kind"] == "cli":
            from weylwalk import cli

            cfg = os.path.join(work, job["id"] + ".json")
            with open(cfg, "w") as f:
                json.dump(job["config"], f)
            code = cli.main([job["command"], "--config", cfg, "--output-dir", out])
        else:
            import child

            os.makedirs(out)
            with open(os.path.join(out, "result.json"), "w") as f:
                json.dump(child.library_task(job["task"], job["params"]), f,
                          indent=1, sort_keys=True)
            code = 0
    files = {}
    for name in sorted(os.listdir(out)):
        if not name.endswith("_manifest.json"):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = _sha(f.read())
    return {"code": code, "stdout": _sha(stdout.getvalue().encode()), "files": files}


def digest(src: str, workload: str, seeds, count: int) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    import weylwalk

    if workload == "commands":
        jobs = COMMAND_JOBS
    else:
        jobs = [job for seed in seeds
                for job, _ in zip(workloads.jobs(workload, seed), range(count))]
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for job in jobs:
            records[job["id"]] = run_job(job, work)
    return {"weylwalk": os.path.dirname(weylwalk.__file__), "jobs": records}


def compare(old: dict, new: dict) -> int:
    differ = [j for j in sorted(set(old["jobs"]) | set(new["jobs"]))
              if old["jobs"].get(j) != new["jobs"].get(j)]
    for j in differ:
        print(f"{j}: {old['jobs'].get(j)} != {new['jobs'].get(j)}")
    codes = [r["code"] for r in new["jobs"].values()]
    print(f"{len(old['jobs'])} vs {len(new['jobs'])} jobs, {len(differ)} differ; "
          f"exit codes of the second: { {c: codes.count(c) for c in sorted(set(codes))} }")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("digest")
    d.add_argument("--src", required=True, help="the src/ directory of a weylwalk tree")
    d.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["commands"])
    d.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    d.add_argument("--jobs", type=int, default=40)
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        with open(args.old) as f, open(args.new) as g:
            return compare(json.load(f), json.load(g))
    result = digest(args.src, args.workload, args.seeds, args.jobs)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
