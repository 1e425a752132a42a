"""One benchmark job, run in a fresh interpreter.

    python3 perfbench/child.py <spec.json>

The spec names a CLI job (``argv`` for ``weylwalk.cli.main``), a library job
(``task`` and ``params``, see ``library_task``) or a set-up probe (``types``).
The child writes ``meta.json`` with its import time and exit code, library
results under ``out/``, and with ``trace`` set, its spans once the job is done.  Its exit
code is the job's.
"""

import json
import os
import sys
import time


def library_task(task: str, p: dict) -> dict:
    """Run one library job and return its exact results as JSON-ready data."""
    from fractions import Fraction

    from weylwalk import cartan
    from weylwalk import markov as M
    from weylwalk import montecarlo as MC
    from weylwalk.charalg import CharacterAlgebra, tau_point

    datum = cartan.build_cartan_datum(p["type"])
    if task == "weyl_group":
        group = cartan.weyl_group(datum)
        lengths = [len(w.word) for w in group]
        return {
            "order": len(group),
            "sign_sum": sum(w.sign for w in group),
            "max_length": max(lengths),
            "longest_count": lengths.count(max(lengths)),
        }
    algebra = CharacterAlgebra(datum)
    tau = tau_point(datum, [Fraction(v) for v in p["tau"]])
    kappa = datum.weight(tuple(p["kappa"]))
    if task == "master_identity":
        mu = datum.weight(tuple(p["mu"]))
        left, right = algebra.master_identity_sides(mu, kappa, tau, p["ell"])
        return {"left": str(left), "right": str(right)}
    dist = M.build_distribution(algebra, kappa, tau)
    if task == "doob_hchain":
        states = M.state_closure(dist, [datum.zero_weight()],
                                 inside=M.coordinate_box(p["box"]))
        sub = M.restricted_table(dist, states, strict=False)
        psi = {s: algebra.psi(s, tau) for s in states}
        doob = M.doob_transform(sub, psi)
        hchain = M.hchain_matrix(dist, states, strict=False)
        return {
            "states": [list(s.fw) for s in states],
            "row_complete": list(hchain.row_complete),
            "doob": [[str(x) for x in row] for row in doob.rows],
            "hchain": [[str(x) for x in row] for row in hchain.rows],
        }
    if task == "h_law":
        reports = MC.h_law_reports(dist, p["ell"], p["samples"], p["seed"])
        return {"reports": [
            {"name": r.name, "n": r.n, "estimate": r.estimate, "target": str(r.target)}
            for r in reports
        ]}
    raise ValueError(f"unknown library task {task!r}")


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    t_import = time.perf_counter()
    import weylwalk.cli

    meta = {"t_import": [t_import, time.perf_counter()],
            "weylwalk": os.path.dirname(os.path.abspath(weylwalk.__file__))}
    if spec["kind"] == "setup":
        for label in spec["types"]:
            weylwalk.cartan.build_cartan_datum(label)
        return 0

    def job():
        if spec["kind"] == "cli":
            return weylwalk.cli.main(spec["argv"] + ["--output-dir", spec["out"]]), None
        return 0, library_task(spec["task"], spec["params"])

    rec = None
    if spec["trace"]:
        import spans

        rec = spans.install()
        job = rec.wrap(job, "bench.job")
    code, result = job()
    if result is not None:
        os.makedirs(spec["out"], exist_ok=True)
        with open(os.path.join(spec["out"], "result.json"), "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    meta["code"] = code
    with open(spec["meta"], "w") as f:
        json.dump(meta, f)
    if rec is not None:
        rec.dump(spec["spans"], {"job": spec["id"]})
    return code


if __name__ == "__main__":
    sys.exit(main())
