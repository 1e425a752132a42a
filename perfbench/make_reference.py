"""Write ``reference.json``: branching multiplicities for the kernel-table checks.

    PYTHONPATH=src python3 perfbench/make_reference.py

For every type and source that ``exact-kernel`` builds ``hchain`` or
``conditioned`` tables for, it records the multiplicity row m(mu, lambda) of
each state reachable from 0 in the largest state box the workload uses.  The
rows do not depend on tau, so one file checks every seeded job.  The file in
the repository was produced at the commit that introduced the benchmark.
"""

import json
import os
from fractions import Fraction

from weylwalk import markov as M
from weylwalk.cartan import build_cartan_datum
from weylwalk.charalg import CharacterAlgebra, tau_point
from weylwalk.crystal import ModuleSpec

from checks import HERE, fw_key, source_key
from workloads import EXACT_KERNEL


def main() -> None:
    limits = {}
    for slot in EXACT_KERNEL:
        for command, opt in slot:
            if command in ("hchain", "conditioned"):
                key = source_key(opt)
                limits[key] = (opt, max(opt["state_limit"], limits.get(key, (opt, 0))[1]))
    rows = {}
    for key, (opt, limit) in sorted(limits.items()):
        datum = build_cartan_datum(opt["type"])
        algebra = CharacterAlgebra(datum)
        if "module" in opt:
            source = ModuleSpec(tuple((datum.weight(tuple(s["kappa"])), s["mult"])
                                      for s in opt["module"]))
            tau = tau_point(datum, [Fraction(1, 4)] * datum.rank,
                            [Fraction(1, 2)] * datum.rank)
        else:
            source = datum.weight(tuple(opt["kappa"]))
            tau = tau_point(datum, [Fraction(1, 2)] * datum.rank)
        dist = M.build_distribution(algebra, source, tau)
        states = M.state_closure(dist, [datum.zero_weight()], inside=M.coordinate_box(limit))
        rows[key] = {
            fw_key(mu.fw): {fw_key(lam.fw): m for lam, m in sorted(
                dist.multiplicity_row(mu).items(), key=lambda item: item[0].fw)}
            for mu in states
        }
        print(f"{key}: box {limit}, {len(states)} states")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump({"rows": rows}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
