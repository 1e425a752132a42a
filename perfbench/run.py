"""weylwalk benchmark: seeded job mixes run as a closed loop, one job at a time.

    python3 perfbench/run.py --workload exact-kernel --seed 1 --seconds 33 --trace 0

Run it from the root of a weylwalk checkout; the library is imported from
``src/``.  One client sends the next job only after the previous one has
exited.  Every job runs in a fresh interpreter, so caches start cold as they
do for a CLI user, and every job's outputs are checked exactly.  After the
timed loop one job is rerun and its outputs compared byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and then traced with spans around each layer, compares the
two outputs, and prints the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 11
JOB_CAP_S = 60.0  # the slowest job takes about 8 s; a run must end within 180 s
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Printed with the end-to-end metrics but not in the result line, because
# they are 0 on some workload: failed_frac is 0 whenever every job passes,
# and exact-kernel draws no samples.
REPORTED_ONLY_UNITS = {"samples_steps_per_s": "1/s", "failed_frac": "ratio"}


def _self_sum(by_name, *names) -> float:
    return sum(by_name.get(n, (0, 0.0))[1] for n in names)


def _calls(by_name, *names) -> int:
    return sum(by_name.get(n, (0, 0.0))[0] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (unit, function of the run's summed spans and counters).
# ``S`` maps span name -> (calls, self seconds); ``C`` holds counters and
# distinct-argument counts.
PER_LAYER = {
    "cartan.weyl_group.calls": ("count", lambda S, C: _calls(S, "cartan.weyl_group")),
    "cartan.weyl_group.self_s": ("s", lambda S, C: _self_sum(S, "cartan.weyl_group")),
    "cartan.weyl_group.elements": ("count", lambda S, C: C.get("cartan.weyl_group.elements", 0)),
    "cartan.positive_roots.self_s": ("s", lambda S, C: _self_sum(S, "cartan.positive_roots")),
    "cartan.act.calls": ("count", lambda S, C: _calls(S, "cartan.act")),
    "paths.apply_f.calls": ("count", lambda S, C: _calls(S, "paths.apply_f")),
    "paths.apply_e.calls": ("count", lambda S, C: _calls(S, "paths.apply_e")),
    "paths.operators.self_s": ("s", lambda S, C: _self_sum(S, "paths.apply_f", "paths.apply_e")),
    "paths.stays_in_cone.calls": ("count", lambda S, C: _calls(S, "paths.stays_in_cone")),
    "paths.stays_in_cone.self_s": ("s", lambda S, C: _self_sum(S, "paths.stays_in_cone")),
    "crystal.generate.calls": ("count", lambda S, C: _calls(S, "crystal.generate")),
    "crystal.generate.self_s": ("s", lambda S, C: _self_sum(S, "crystal.generate")),
    "crystal.nodes_generated": ("count", lambda S, C: C.get("crystal.nodes_generated", 0)),
    "crystal.cache.gets": ("count", lambda S, C: C.get("crystal.cache.gets", 0)),
    "crystal.cache.hit_ratio": ("ratio", lambda S, C: _ratio(
        C.get("crystal.cache.hits", 0), C.get("crystal.cache.gets", 0))),
    "crystal.multiplicity.calls": ("count", lambda S, C: _calls(S, "crystal.multiplicity")),
    "crystal.multiplicity.self_s": ("s", lambda S, C: _self_sum(
        S, "crystal.multiplicity", "crystal.module_multiplicity")),
    "crystal.f_multiplicity.self_s": ("s", lambda S, C: _self_sum(S, "crystal.f_multiplicity")),
    "crystal.tensor.calls": ("count", lambda S, C: _calls(
        S, "crystal.tensor_apply_e", "crystal.tensor_apply_f", "crystal.tensor_eps_phi")),
    "crystal.tensor.self_s": ("s", lambda S, C: _self_sum(
        S, "crystal.tensor_apply_e", "crystal.tensor_apply_f", "crystal.tensor_eps_phi")),
    "charalg.character.calls": ("count", lambda S, C: _calls(S, "charalg.character_value")),
    "charalg.character.distinct_ratio": ("ratio", lambda S, C: _ratio(
        C.get("distinct.charalg.character", 0), _calls(S, "charalg.character_value"))),
    "charalg.character.self_s": ("s", lambda S, C: _self_sum(
        S, "charalg.character_value", "charalg.character_poly")),
    "charalg.psi.calls": ("count", lambda S, C: _calls(S, "charalg.psi")),
    "charalg.psi.self_s": ("s", lambda S, C: _self_sum(S, "charalg.psi")),
    "charalg.psi_ell.self_s": ("s", lambda S, C: _self_sum(
        S, "charalg.psi_ell", "charalg.psi_ell_twisted")),
    "charalg.group_order": ("count", lambda S, C: C.get("charalg.group_order", 0)),
    "markov.distribution.self_s": ("s", lambda S, C: _self_sum(S, "markov.distribution")),
    "markov.multiplicity_row.calls": ("count", lambda S, C: _calls(S, "markov.multiplicity_row")),
    "markov.multiplicity_row.distinct_ratio": ("ratio", lambda S, C: _ratio(
        C.get("distinct.markov.multiplicity_row", 0), _calls(S, "markov.multiplicity_row"))),
    "markov.closure.states": ("count", lambda S, C: C.get("markov.closure.states", 0)),
    "markov.table.entries": ("count", lambda S, C: C.get("markov.table.entries", 0)),
    "markov.table.self_s": ("s", lambda S, C: _self_sum(
        S, "markov.restricted_table", "markov.hchain_matrix", "markov.hchain_entry",
        "markov.restricted_transition")),
    "markov.doob.self_s": ("s", lambda S, C: _self_sum(S, "markov.doob")),
    "markov.pitman.calls": ("count", lambda S, C: _calls(S, "markov.pitman")),
    "markov.pitman.self_s": ("s", lambda S, C: _self_sum(
        S, "markov.pitman", "markov.pitman_prefix")),
    "montecarlo.sampler_build.self_s": ("s", lambda S, C: _self_sum(
        S, "montecarlo.sampler_build")),
    "montecarlo.simulate.self_s": ("s", lambda S, C: _self_sum(S, "montecarlo.simulate")),
    "montecarlo.samples_steps_drawn": ("count", lambda S, C: C.get(
        "montecarlo.samples_steps_drawn", 0)),
    "montecarlo.steps_evaluated": ("count", lambda S, C: C.get("montecarlo.steps_evaluated", 0)),
    "montecarlo.step_use_ratio": ("ratio", lambda S, C: _ratio(
        C.get("montecarlo.steps_evaluated", 0), C.get("montecarlo.samples_steps_drawn", 0))),
    "montecarlo.hlaw.self_s": ("s", lambda S, C: _self_sum(
        S, "montecarlo.hlaw", "montecarlo.hlaw_reports")),
    "cli.main.self_s": ("s", lambda S, C: _self_sum(S, "cli.main", "cli.write")),
    "cli.bytes_written": ("count", lambda S, C: C.get("cli.bytes_written", 0)),
    "cli.exit_nonzero": ("count", lambda S, C: C.get("cli.exit_nonzero", 0)),
}
for _layer in spans.LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", lambda S, C, p=_layer + ".": sum(
        v[1] for k, v in S.items() if k.startswith(p)))
PER_LAYER.update({
    "job.wall_s": ("s", lambda S, C: C["job.wall_s"]),
    "job.startup_s": ("s", lambda S, C: C["job.startup_s"]),
    "job.import_s": ("s", lambda S, C: C["job.import_s"]),
    "job.harness_s": ("s", lambda S, C: _self_sum(S, "bench.job")),
    "job.exit_s": ("s", lambda S, C: C["job.exit_s"]),
    "trace.layer_frac": ("ratio", lambda S, C: _ratio(sum(
        v[1] for k, v in S.items() if k.split(".")[0] in spans.LAYERS), C["job.wall_s"])),
    "trace.overhead_frac": ("ratio", lambda S, C: C["trace.overhead_frac"]),
})


# -- processes -------------------------------------------------------------------


def spawn(argv: List[str], log_path: str, cap: float):
    """Run one process to completion; returns (start, end, exit code, peak RSS KiB, killed).

    ``end`` is taken when the process has exited but before it is reaped, so
    the kill timer can never hit a reused pid.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log_path, flags, 0o644), (os.POSIX_SPAWN_DUP2, 1, 2)]
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)

    def kill():
        with lock:
            if not state["done"]:
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(cap, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        end = time.perf_counter()
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # interrupted: stop the job, then re-raise
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(pid, 0)
    return start, end, os.waitstatus_to_exitcode(status), usage.ru_maxrss, state["killed"]


def _files(top: str, manifests: bool = False) -> Dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            if manifests or not name.endswith("_manifest.json"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, top)] = f.read()
    return out


def same_outputs(a: str, b: str) -> Optional[str]:
    """None if both output trees hold the same bytes (manifests aside), else why not."""
    fa, fb = _files(a), _files(b)
    if sorted(fa) != sorted(fb):
        return f"output files differ: {sorted(fa)} vs {sorted(fb)}"
    diff = [name for name in fa if fa[name] != fb[name]]
    return f"outputs differ byte for byte: {diff}" if diff else None


class Runner:
    """Spawns and checks the jobs of one run inside its own work directory."""

    def __init__(self, workload: str, seed: int, trace: bool, cap: float):
        self.workload, self.seed, self.trace, self.cap = workload, seed, trace, cap
        self.checker = checks.Checker()
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        self.runs = 0

    def child(self, spec: Dict, config: Optional[Dict] = None) -> Dict:
        """Spawn child.py on a spec, and a CLI config if given; returns the timing record."""
        self.runs += 1
        jobdir = os.path.join(self.work, f"{self.runs:05d}")
        os.makedirs(jobdir)
        spec = dict(spec, out=os.path.join(jobdir, "out"), meta=os.path.join(jobdir, "meta.json"),
                    spans=os.path.join(jobdir, "spans"))
        if config is not None:
            cfg_path = os.path.join(jobdir, "config.json")
            with open(cfg_path, "w") as f:
                json.dump(config, f)
            spec["argv"] = spec["argv"] + ["--config", cfg_path]
        spec_path = os.path.join(jobdir, "spec.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        start, end, code, rss, killed = spawn(
            [os.path.join(HERE, "child.py"), spec_path], os.path.join(jobdir, "log.txt"),
            self.cap)
        rec = {"dir": jobdir, "spec": spec, "start": start, "end": end, "wall": end - start,
               "code": code, "rss_kib": rss, "killed": killed, "meta": None}
        if os.path.exists(spec["meta"]):
            with open(spec["meta"]) as f:
                rec["meta"] = json.load(f)
        return rec

    def run_job(self, job: Dict, trace: bool) -> Dict:
        """Run one job and check its outputs; ``error`` is None when it passed."""
        spec = {"id": job["id"], "kind": job["kind"], "trace": trace}
        if job["kind"] == "cli":
            spec["argv"] = [job["command"]]
        else:
            spec.update(task=job["task"], params=job["params"])
        rec = self.child(spec, job.get("config"))
        rec["job"] = job
        rec["error"] = self._error(job, rec)
        return rec

    def _error(self, job: Dict, rec: Dict) -> Optional[str]:
        if rec["killed"]:
            return f"over the time cap of {self.cap:g} s"
        meta = rec["meta"]
        if meta is None:
            return f"exit code {rec['code']} before finishing (see {rec['dir']}/log.txt)"
        if meta["weylwalk"] != os.path.join(SRC, "weylwalk"):
            return f"imported weylwalk from {meta['weylwalk']}, not from {SRC}"
        out = rec["spec"]["out"]
        try:
            if job["kind"] == "cli":
                self.checker.check_cli(job["command"], job["config"], out, rec["code"])
            else:
                self.checker.check_lib(job["task"], job["params"], out, rec["code"])
        except checks.CheckError as ex:
            return str(ex)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as ex:
            return f"unreadable output: {type(ex).__name__}: {ex}"
        return None

    @staticmethod
    def discard(rec: Dict) -> None:
        """Delete a passing job's directory; a failed job's stays for inspection."""
        if rec["error"] is None:
            shutil.rmtree(rec["dir"], ignore_errors=True)

    def close(self) -> None:
        for path in (self.work, WORK):
            try:
                os.rmdir(path)
            except OSError:
                pass  # failed jobs left their directories

    def setup_probe(self) -> float:
        spec = {"id": "setup", "kind": "setup", "trace": False,
                "types": workloads.cartan_types(self.workload)}
        rec = self.child(spec)
        if rec["code"] != 0:
            raise SystemExit(f"set-up probe failed with exit code {rec['code']}; "
                             f"see {rec['dir']}/log.txt")
        shutil.rmtree(rec["dir"], ignore_errors=True)
        return rec["wall"]


# -- metrics -------------------------------------------------------------------


def tail(times: List[float]):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it: (value, pct, beyond).

    With too few jobs for that, the slowest job is reported with the number
    of jobs that is actually beyond it (zero).
    """
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n, TAIL_BEYOND


def sample_steps(job: Dict) -> int:
    if job["kind"] == "cli" and job["command"] in ("simulate", "sandwich"):
        return job["config"]["samples"] * job["config"]["horizon"]
    if job["kind"] == "lib" and job["task"] == "h_law":
        return job["params"]["samples"] * job["params"]["ell"]
    return 0


def end_to_end(setup: List[float], recs: List[Dict], attempted: int, failed: int):
    ok = [r for r in recs if r["error"] is None]
    times = [r["wall"] for r in ok]
    value, pct, beyond = tail(times)
    sampling = [r for r in ok if sample_steps(r["job"])]
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "jobs_per_s": len(ok) / sum(r["wall"] for r in recs),
        "peak_rss_mib": max(r["rss_kib"] for r in recs) / 1024.0,
        "samples_steps_per_s": (sum(sample_steps(r["job"]) for r in sampling)
                                / sum(r["wall"] for r in sampling)) if sampling else None,
        "failed_frac": failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing weylwalk and "
                   "building the workload's Cartan data",
        "job_p50_s": f"median of {len(ok)} jobs",
        "job_tail_s": f"p{pct:.1f} of {len(times)} jobs, {beyond} beyond it",
        "jobs_per_s": f"{len(ok)} jobs in {sum(r['wall'] for r in recs):.2f} s of job wall time",
        "peak_rss_mib": "largest peak RSS of any job process",
        "samples_steps_per_s": (f"{len(sampling)} sampling jobs" if sampling
                                else "n/a: no job of this workload draws samples"),
        "failed_frac": f"{failed} of {attempted} attempted jobs failed",
    }
    return metrics, notes


def per_layer(traced: List[Dict], untraced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the traced jobs; ``untraced`` are their twins."""
    S: Dict[str, list] = {}
    C: Dict[str, float] = {"job.wall_s": 0.0, "job.startup_s": 0.0, "job.import_s": 0.0,
                           "job.exit_s": 0.0}
    for rec in traced:
        meta, by_name, root = spans.load(rec["spec"]["spans"])
        for name, (calls, self_s) in by_name.items():
            acc = S.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in meta["counters"].items():
            if name == "charalg.group_order":
                C[name] = max(C.get(name, 0), value)
            else:
                C[name] = C.get(name, 0) + value
        for name, value in meta["distinct"].items():
            C["distinct." + name] = C.get("distinct." + name, 0) + value
        C["job.wall_s"] += rec["wall"]
        C["job.import_s"] += rec["meta"]["t_import"][1] - rec["meta"]["t_import"][0]
        C["job.startup_s"] += root[0] - rec["start"]
        C["job.exit_s"] += rec["end"] - root[1]
        if rec["job"]["kind"] == "cli":
            C["cli.exit_nonzero"] = C.get("cli.exit_nonzero", 0) + (rec["code"] != 0)
            C["cli.bytes_written"] = C.get("cli.bytes_written", 0) + sum(
                len(b) for b in _files(rec["spec"]["out"], manifests=True).values())
    # median over the pairs, so that one slow job cannot swamp the others
    C["trace.overhead_frac"] = statistics.median(
        t["wall"] / u["wall"] - 1.0 for t, u in zip(traced, untraced))
    S = {k: tuple(v) for k, v in S.items()}
    return {name: fn(S, C) for name, (_, fn) in PER_LAYER.items()}


def environment(workload: str, seed: int) -> Dict:
    def read(path: str) -> str:
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def describe(job: Dict) -> str:
    body = job["config"] if job["kind"] == "cli" else job["params"]
    what = job["command"] if job["kind"] == "cli" else job["task"]
    return f"{what} {json.dumps(body, separators=(',', ':'))}"


# -- main ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, cap: float = JOB_CAP_S,
        jobs=None) -> Dict:
    """One benchmark run; returns the result object printed as the last line."""
    runner = Runner(workload, seed, trace, cap)
    try:
        return _run(runner, seconds, jobs if jobs is not None else workloads.jobs(workload, seed))
    finally:
        runner.close()


def _run(runner: Runner, seconds: float, jobs) -> Dict:
    print(f"weylwalk benchmark: workload={runner.workload} seed={runner.seed} "
          f"seconds={seconds:g} trace={int(runner.trace)}", flush=True)
    # Untraced runs spread their set-up probes over the loop, so that setup_s
    # sees the same machine as the jobs; the loop's clock leaves them out.  An
    # expensive job counts its fixed ``clock_s`` (see workloads.py).
    probes = 0 if runner.trace else SETUP_PROBES
    setup: List[float] = []
    recs: List[Dict] = []
    pairs: List[tuple] = []  # (untraced, traced) runs of one job
    attempted = failed = 0
    spent = 0.0
    for job in jobs:
        if spent >= seconds:
            break
        while len(setup) < probes * spent / seconds:
            setup.append(runner.setup_probe())
        begin = time.perf_counter()
        rec = runner.run_job(job, trace=False)
        attempted += 1
        if runner.trace and rec["error"] is None:
            twin = runner.run_job(job, trace=True)
            if twin["error"] is None:
                mismatch = same_outputs(rec["spec"]["out"], twin["spec"]["out"])
                if mismatch:
                    rec["error"] = twin["error"] = "traced run differs: " + mismatch
            pairs.append((rec, twin))
            rec["error"] = twin["error"]
        spent += job.get("clock_s", time.perf_counter() - begin)
        failed += rec["error"] is not None
        recs.append(rec)
        status = "ok" if rec["error"] is None else "FAILED: " + rec["error"]
        print(f"  {job['id']}  {rec['wall']:8.3f} s  {describe(job)}  {status}", flush=True)
    while len(setup) < probes:
        setup.append(runner.setup_probe())
    ok = [r for r in recs if r["error"] is None]
    if ok:
        # rerun the cheapest passing job; its outputs must match byte for byte
        first = min(ok, key=lambda r: r["wall"])
        again = runner.run_job(first["job"], trace=False)
        attempted += 1
        again["error"] = again["error"] or same_outputs(first["spec"]["out"],
                                                        again["spec"]["out"])
        failed += again["error"] is not None
        status = "ok" if again["error"] is None else "FAILED: " + again["error"]
        print(f"  determinism probe: rerun of {first['job']['id']}  {status}", flush=True)
        runner.discard(again)
    for rec in recs:
        runner.discard(rec)

    result = {"correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed}
    if not ok:
        result["metrics"] = {}
        return result
    if runner.trace:
        ok_pairs = [(r, t) for r, t in pairs if t["error"] is None]
        values = per_layer([t for _, t in ok_pairs], [r for r, _ in ok_pairs])
        for _, twin in pairs:
            runner.discard(twin)
        print("per-layer metrics (traced run; self time is span time minus child spans):")
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:42s} {values[name]:14.6g} {unit}")
        print("  wait time: none recorded. The program is single-threaded and runs one "
              "job at a time, so no layer waits on another.")
        result["metrics"] = {n: {"value": values[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
        return result
    metrics, notes = end_to_end(setup, recs, attempted, failed)
    print("end-to-end metrics:")
    units = dict(END_TO_END_UNITS, **REPORTED_ONLY_UNITS)
    for name, unit in units.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:20s} {shown:>12s} {unit:5s}  ({notes[name]})")
    result["metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weylwalk", "__init__.py")):
        print(f"error: {SRC}/weylwalk not found; run from the root of a weylwalk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(environment(args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
