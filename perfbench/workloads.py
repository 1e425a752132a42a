"""Seeded job mixes of the three workloads.

A workload is a fixed schedule of job shapes: command or library task, Cartan
type, source, state box, sample count, horizon and starting weight.  The seed
draws the numbers each job runs on: every ``tau``, and every Monte-Carlo seed.
So the outputs of two seeds differ everywhere, while the work they measure is
comparable.  The shapes are not drawn from the seed because the cost of one
job spans two orders of magnitude across shapes: with shuffled shapes the
median job time of a 35 s run moved by 25-45% between seeds.  The order of
the shapes is chosen for the same reason (see the slots below).

The program sees only the generated configs.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List

# Exact jobs draw tau coordinates from rationals of small height.  Monte-Carlo
# jobs draw them near 1/2: the sampler's work per sample follows the stay
# probability, which moves sixfold across the exact pool.
TAU_POOL = ("1/2", "1/3", "2/3", "1/4", "3/4", "2/5", "3/5")
MC_TAU_POOL = ("2/5", "1/2", "3/5")
C2_MODULE = [{"kappa": [1, 0], "mult": 1}, {"kappa": [0, 1], "mult": 1}]


def box(label, kappa, limit):
    return {"type": label, "kappa": kappa, "state_limit": limit}


def module_box(limit):
    return {"type": "C2", "module": C2_MODULE, "state_limit": limit}


def psi(label, limit, mu):
    return {"type": label, "mu_limit": limit, "mu": mu}


def source(label, kappa):
    return {"type": label, "kappa": kappa}


def mc(label, kappa, samples, horizon):
    shape = {"type": label, "samples": samples, "horizon": horizon,
             "mu": [0] * int(label[1:])}
    if kappa == "module":
        shape["module"] = C2_MODULE
    else:
        shape["kappa"] = kappa
    return shape


def master(label, ell, at_omega1):
    rank = int(label[1:])
    mu = [1 if at_omega1 and i == 0 else 0 for i in range(rank)]
    return {"type": label, "kappa": [1] + [0] * (rank - 1), "ell": ell, "mu": mu}


# Each workload is ten slots in four cost tiers measured on the reference
# machine: one expensive slot, then three rounds of cheap, middle and upper.
# A run first deals the expensive slot's shapes, once each, so every run
# measures the same expensive set whatever its speed; then the other nine
# slots deal their shapes in turn.  With 25 to 60 jobs in a run, the median
# job lies inside the middle tier and the tail percentile (ten jobs beyond it)
# inside the upper tier, so neither moves when a slower or faster run fits a
# few jobs more or less.
#
# An expensive shape carries its cost in seconds on the reference machine,
# and the run's clock counts that cost in place of the job's measured time.
# Counted with their measured time, the 20 s of expensive jobs in a 35 s
# structure run left the rest of the run to absorb every change of machine
# speed, and jobs_per_s moved by about twice as much as the speed did.
#
# Jobs that cost 5-8 s are left out (G2 boxes of 3, G2 verify, G2 psi tables
# with mu_limit 3, B3 sandwiches beyond horizon 30), except the D6 Weyl group
# and the D4 Doob check: a handful of them would decide how many jobs fit in
# a run.

# exact-kernel tiers: about 0.4, 0.5, 0.75 and 1-2.7 s per job
EXACT_KERNEL = (
    [("conditioned", box("C2", [1, 0], 4), 1.8), ("psi", psi("C2", 4, [0, 0]), 1.3),
     ("hchain", box("A2", [1, 0], 5), 1.0), ("conditioned", module_box(4), 2.5)],
    [("verify", source("A2", k)) for k in ([1, 0], [1, 1], [0, 1], [2, 0], [0, 2])],
    [("hchain", box("C2", [0, 1], 3)), ("verify", source("C2", [0, 1])),
     ("hchain", box("C2", [1, 1], 2)), ("verify", source("C2", [2, 0]))],
    [("hchain", box("G2", [1, 0], 2)), ("hchain", box("C2", [1, 0], 3)),
     ("hchain", box("G2", [0, 1], 2)), ("hchain", module_box(3))],
    [("conditioned", box("A2", [2, 0], 2)), ("conditioned", box("C2", [1, 0], 2)),
     ("psi", psi("A2", 3, [1, 0])), ("conditioned", module_box(2))],
    [("psi", psi("A2", 4, [0, 0])), ("psi", psi("C2", 3, [1, 0])),
     ("psi", psi("A2", 4, [0, 1])), ("psi", psi("C2", 3, [0, 0]))],
    [("psi", psi("G2", 2, [0, 0])), ("verify", source("C2", [1, 0])),
     ("conditioned", box("G2", [1, 0], 2)), ("psi", psi("G2", 2, [1, 0]))],
    [("hchain", box("A2", [1, 0], 3)), ("hchain", box("C2", [1, 0], 2)),
     ("hchain", box("A2", [0, 2], 2)), ("hchain", box("C2", [2, 0], 2))],
    [("conditioned", box("C2", [2, 0], 3)), ("hchain", box("C2", [2, 0], 3)),
     ("conditioned", box("C2", [0, 1], 3)), ("hchain", box("A2", [1, 1], 4))],
    [("conditioned", box("C2", [1, 0], 3)), ("conditioned", box("A2", [0, 1], 4)),
     ("conditioned", box("G2", [0, 1], 2)), ("hchain", box("A2", [2, 0], 4))],
)

# mc-exit tiers: about 0.5, 0.7, 1 and 2 s per job.  5k-20k samples at
# horizons 30-60: at 20k-100k samples a 33 s run holds about ten jobs, too few
# for a tail percentile with ten jobs beyond it.
MC_EXIT = (
    [("sandwich", mc("C2", [1, 0], 20000, 40), 1.9),
     ("simulate", mc("C2", [0, 1], 20000, 60), 1.8),
     ("sandwich", mc("C2", [2, 0], 10000, 40), 1.6),
     ("sandwich", mc("C2", [0, 1], 10000, 40), 1.0)],
    [("simulate", mc("B3", [0, 0, 1], 10000, 40)), ("simulate", mc("C2", [1, 0], 10000, 40)),
     ("simulate", mc("G2", [1, 0], 10000, 40)), ("simulate", mc("C2", [2, 0], 5000, 30))],
    [("sandwich", mc("A2", [1, 0], 5000, 30)), ("simulate", mc("A2", [1, 0], 5000, 60)),
     ("sandwich", mc("C2", [1, 0], 5000, 30)), ("simulate", mc("C2", "module", 5000, 60))],
    [("sandwich", mc("A2", [1, 0], 10000, 40)), ("simulate", mc("C2", [0, 1], 10000, 40)),
     ("sandwich", mc("C2", [2, 0], 5000, 30)), ("sandwich", mc("B3", [0, 0, 1], 5000, 30))],
    [("simulate", mc("C2", [1, 0], 5000, 60)), ("simulate", mc("B3", [0, 0, 1], 10000, 40)),
     ("simulate", mc("C2", [2, 0], 5000, 30)), ("simulate", mc("G2", [1, 0], 10000, 40))],
    [("sandwich", mc("G2", [1, 0], 5000, 30)), ("sandwich", mc("A2", [1, 0], 5000, 60)),
     ("simulate", mc("A2", [1, 0], 10000, 40)), ("sandwich", mc("C2", [0, 1], 5000, 30))],
    [("sandwich", mc("G2", [1, 0], 5000, 60)), ("simulate", mc("C2", [2, 0], 10000, 40)),
     ("sandwich", mc("C2", [1, 0], 10000, 40)), ("simulate", mc("C2", "module", 10000, 40))],
    [("simulate", mc("C2", [1, 0], 10000, 40)), ("simulate", mc("C2", [2, 0], 5000, 30)),
     ("simulate", mc("B3", [0, 0, 1], 10000, 40)), ("simulate", mc("C2", [1, 0], 5000, 60))],
    [("simulate", mc("C2", [2, 0], 5000, 60)), ("sandwich", mc("C2", [0, 1], 5000, 30)),
     ("simulate", mc("C2", "module", 5000, 60)), ("sandwich", mc("G2", [1, 0], 5000, 30))],
    [("sandwich", mc("G2", [1, 0], 10000, 40)), ("sandwich", mc("B3", [0, 0, 1], 5000, 30)),
     ("simulate", mc("C2", [0, 1], 10000, 40)), ("sandwich", mc("A2", [1, 0], 10000, 40))],
)

_DOOB = {t: {"type": t, "kappa": k, "box": b} for t, k, b in (
    ("D4", [1, 0, 0, 0], 1), ("A3", [1, 0, 0], 2), ("B3", [0, 0, 1], 1), ("C3", [1, 0, 0], 1))}


def h_law(label, kappa, ell):
    return {"type": label, "kappa": kappa, "ell": ell, "samples": 1000}


# structure tiers: about 0.35, 0.42, 0.7 and 1.5-7.5 s per job
STRUCTURE = (
    [("weyl_group", {"type": "D6"}, 7.0), ("h_law", h_law("C2", [1, 0], 8), 1.5),
     ("doob_hchain", _DOOB["D4"], 5.0), ("h_law", h_law("G2", [1, 0], 6), 3.0),
     ("doob_hchain", _DOOB["A3"], 3.0)],
    [("master_identity", master("A3", ell, w)) for ell, w in ((3, 0), (1, 1), (2, 0), (3, 1))],
    [("master_identity", master("B3", ell, w)) for ell, w in ((3, 0), (2, 1), (2, 0), (3, 1))],
    [("master_identity", master("D4", ell, w)) for ell, w in ((2, 0), (1, 1), (1, 0), (3, 0))],
    [("weyl_group", {"type": t}) for t in ("B4", "F4")]
    + [("master_identity", master(t, 1, 0)) for t in ("B3", "C3")],
    [("master_identity", master("C3", ell, w)) for ell, w in ((3, 0), (2, 1), (2, 0), (3, 1))],
    [("doob_hchain", _DOOB["C3"]), ("doob_hchain", _DOOB["B3"]), ("weyl_group", {"type": "D5"}),
     ("master_identity", master("D4", 2, 1))],
    [("master_identity", master("A3", ell, w)) for ell, w in ((1, 0), (2, 1), (3, 0), (2, 0))],
    [("weyl_group", {"type": "A5"})]
    + [("master_identity", master(t, ell, w)) for t, ell, w in (("B3", 2, 0), ("C3", 3, 1))],
    [("master_identity", master("D4", ell, w)) for ell, w in ((1, 0), (3, 0), (2, 0), (1, 1))],
)

WORKLOADS = {"exact-kernel": EXACT_KERNEL, "mc-exit": MC_EXIT, "structure": STRUCTURE}
CLI_COMMANDS = {"hchain", "conditioned", "psi", "verify", "simulate", "sandwich"}
MC_COMMANDS = {"simulate", "sandwich", "h_law"}


def _finish(rng: random.Random, what: str, shape: Dict) -> Dict:
    """One job: its shape plus the values drawn from the seed."""
    cfg = dict(shape)
    if what != "weyl_group":
        pool = MC_TAU_POOL if what in MC_COMMANDS else TAU_POOL
        tau = [rng.choice(pool) for _ in range(int(cfg["type"][1:]))]
        cfg["tau_roots" if "module" in cfg else "tau"] = tau
    if what in MC_COMMANDS:
        cfg["seed"] = rng.randrange(2 ** 31)
    if what in CLI_COMMANDS:
        return {"kind": "cli", "command": what, "config": cfg}
    return {"kind": "lib", "task": what, "params": cfg}


def jobs(workload: str, seed: int) -> Iterator[Dict]:
    """Endless seeded job sequence of a workload, numbered from 0.

    The expensive slot's shapes come first, once each, with ``clock_s``: the
    time the run's clock counts for them.  Then the other slots deal in turn.
    """
    rng = random.Random(f"{workload}:{seed}")
    expensive, *rest = WORKLOADS[workload]
    slots = [itertools.cycle(slot) for slot in rest]
    for n, (what, shape, clock_s) in enumerate(expensive):
        yield dict(_finish(rng, what, shape), id=f"{workload}-{seed}-{n:04d}", clock_s=clock_s)
    for n in itertools.count(len(expensive)):
        what, shape = next(slots[(n - len(expensive)) % len(slots)])
        yield dict(_finish(rng, what, shape), id=f"{workload}-{seed}-{n:04d}")


def cartan_types(workload: str) -> List[str]:
    """Every Cartan type a workload's jobs use, for the set-up probe."""
    return sorted({entry[1]["type"] for slot in WORKLOADS[workload] for entry in slot})
