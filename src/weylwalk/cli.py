"""Batch command-line interface.

One JSON config document drives every command; flags override single fields.
All rationals cross the I/O boundary as strings "p/q".  Every run writes a
manifest echoing the resolved configuration next to its outputs.  The
commands that use ``markov`` or ``montecarlo`` import it when they run, so
``psi``, ``character`` and ``crystal`` never load ``markov``, and only the
Monte-Carlo commands load ``montecarlo``.  No command loads numpy.

Exit codes: 0 success, 2 config error, 3 verification failure, 4 resource
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional

from .cartan import Weight, build_cartan_datum
from .charalg import CharacterAlgebra, TauPoint, tau_point, tau_point_from_roots
from .crystal import ModuleSpec, tensor_rule_checks
from .errors import (
    DomainError,
    ExactEvaluationError,
    FormatError,
    NotFiniteTypeError,
    ResourceBudgetError,
    WeylwalkError,
)
from .exact import parse_rational
from . import paths as P

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4

# the top-level config keys, each with the [low, high) of its integer values
# or None; a "module" item takes "kappa" and "mult", and a "type" object
# takes "matrix"
CONFIG_KEYS = {"type": None, "max_rank": None, "module": None, "kappa": None, "mu": None,
               "tau": None, "tau_roots": None, "output_dir": None, "path": None,
               "basis": None, "samples": (1, math.inf), "horizon": (1, math.inf),
               "seed": (0, 2**64), "ell": (0, math.inf), "ells": (0, math.inf),
               "state_limit": (0, math.inf), "mu_limit": (0, math.inf)}


def _known_keys(table: Dict, keys, where: str) -> None:
    unknown = sorted(set(table).difference(keys))
    if unknown:
        raise FormatError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


class RunContext:
    """Resolved configuration plus the derived algebra objects."""

    def __init__(self, cfg: Dict):
        self.cfg = cfg
        _known_keys(cfg, CONFIG_KEYS, "config")
        type_spec = cfg.get("type", "C2")
        if isinstance(type_spec, dict):
            if "matrix" not in type_spec:
                raise FormatError("a \"type\" object needs a \"matrix\"")
            _known_keys(type_spec, {"matrix"}, "\"type\" object")
            type_spec = type_spec["matrix"]
        self.datum = build_cartan_datum(type_spec, max_rank=self.read("max_rank", 8))
        self.algebra = CharacterAlgebra(self.datum)
        self.source = self._source(cfg)
        self.tau = self._tau(cfg)
        self._dist = None

    def _source(self, cfg):
        if "module" in cfg:
            summands = []
            items = cfg["module"]
            if not isinstance(items, list) or not all(isinstance(it, dict) for it in items):
                raise FormatError("\"module\" must be a list of objects")
            for item in items:
                _known_keys(item, {"kappa", "mult"}, "\"module\" item")
                kappa = self.datum.weight(self.read("kappa", vector=True, table=item))
                summands.append((kappa, self.read("mult", 1, table=item)))
            return ModuleSpec(tuple(summands))
        kappa = self.read("kappa", [1] + [0] * (self.datum.rank - 1), vector=True)
        return self.datum.weight(kappa)

    def _tau(self, cfg) -> Optional[TauPoint]:
        if "tau_roots" in cfg and "tau" not in cfg:
            return tau_point_from_roots(self.datum, self.rationals("tau_roots"))
        if "tau" not in cfg:
            return None
        roots = self.rationals("tau_roots") if "tau_roots" in cfg else None
        return tau_point(self.datum, self.rationals("tau"), roots)

    def rationals(self, key: str) -> List[Fraction]:
        """The list of exact rationals at ``key``; FormatError names the key."""
        value = self.cfg[key]
        if not isinstance(value, list):
            raise FormatError(f"config key {key!r} must be a list of rationals, got {value!r}")
        try:
            return [parse_rational(v) for v in value]
        except FormatError as ex:
            raise FormatError(f"config key {key!r}: {ex}") from None

    def read(self, key: str, default=None, vector: bool = False, table: Optional[Dict] = None):
        """The integer (integer tuple with ``vector``) at ``key`` of ``table``,
        by default the config; FormatError names a missing or malformed key,
        or one outside its ``CONFIG_KEYS`` range."""
        table = self.cfg if table is None else table
        value = table.get(key, default)
        if value is None:
            raise FormatError(f"missing config key {key!r}")

        def whole(c):
            if isinstance(c, bool) or isinstance(c, float) and not c.is_integer():
                raise ValueError
            return int(c)

        try:
            if vector:
                if not isinstance(value, (list, tuple)):
                    raise TypeError
                out = tuple(whole(c) for c in value)
            else:
                out = whole(value)
        except (TypeError, ValueError):
            kind = "a list of integers" if vector else "an integer"
            raise FormatError(f"config key {key!r} must be {kind}, got {value!r}") from None
        low, high = CONFIG_KEYS.get(key) or (-math.inf, math.inf)
        if not all(low <= c < high for c in (out if vector else (out,))):
            raise FormatError(f"config key {key!r} must be in [{low}, {high}), got {value!r}")
        return out

    def require_tau(self) -> TauPoint:
        if self.tau is None:
            raise FormatError("this command needs a tau value in the config")
        return self.tau

    def mu(self) -> Weight:
        mu = self.datum.weight(self.read("mu", [0] * self.datum.rank, vector=True))
        if not mu.is_dominant():
            raise FormatError(f"config key 'mu' must be dominant, got {list(mu.fw)}")
        return mu

    def distribution(self):
        """The step distribution of the run (a ``markov.CrystalDistribution``),
        built on first use; a fractional exponent with no ``tau_roots`` given
        is a config error."""
        from . import markov as M

        if self._dist is None:
            tau = self.require_tau()
            try:
                self._dist = M.build_distribution(self.algebra, self.source, tau)
            except ExactEvaluationError as ex:
                if tau.roots is not None:
                    raise
                raise FormatError(f"config key 'tau_roots' is needed: {ex}") from None
        return self._dist

    def states(self, limit: Optional[int] = None) -> List[Weight]:
        from . import markov as M

        limit = limit if limit is not None else self.read("state_limit", 4)
        seeds = [self.datum.weight((0,) * self.datum.rank), self.mu()]
        return M.state_closure(self.distribution(), seeds, inside=M.coordinate_box(limit))


def _utc_timestamp() -> str:
    """The current time in ISO-8601 UTC, ``YYYY-MM-DDTHH:MM:SS.ffffff+00:00``.

    Built with ``time``: importing ``datetime`` would add to every CLI start."""
    ns = time.time_ns()
    seconds = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(ns // 10**9))
    return f"{seconds}.{ns // 1000 % 10**6:06d}+00:00"


class OutputWriter:
    def __init__(self, cfg: Dict, command: str):
        self.dir = cfg.get("output_dir", ".")
        self.command = command
        self.outputs: List[str] = []
        if not isinstance(self.dir, str):
            raise FormatError(f"config key 'output_dir' must be a path, got {self.dir!r}")
        try:
            os.makedirs(self.dir, exist_ok=True)
        except OSError as ex:
            raise FormatError(f"config key 'output_dir' is not a usable directory: {ex}") from None

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            f.write(text)
        self.outputs.append(path)
        return path

    def manifest(self, cfg: Dict, exit_code: int, error: Optional[str]) -> None:
        payload = {
            "command": self.command,
            "config": cfg,
            "outputs": [os.path.basename(p) for p in self.outputs],
            "exit_code": exit_code,
            "error": error,
            "timestamp": _utc_timestamp(),
        }
        path = os.path.join(self.dir, f"{self.command}_manifest.json")
        with open(path, "w") as f:
            json.dump(payload, f, indent=2)


def _print_reports(reports) -> bool:
    ok = True
    for r in reports:
        status = "ok"
        if r.target is not None and not r.within(4.0):
            status = "FAIL(4sigma)"
            ok = False
        target = "" if r.target is None else f" target={float(r.target):.6g} z={r.z:+.2f}"
        print(f"  {r.name}: {r.estimate:.6g} (n={r.n}, se={r.stderr:.2g}){target} {status}")
    return ok


# -- commands ----------------------------------------------------------------------


def cmd_crystal(ctx: RunContext, out: OutputWriter) -> int:
    crystals = ctx.algebra.module_crystals(ctx.source)
    for crystal, _ in crystals:
        tag = "_".join(map(str, crystal.kappa.fw))
        out.write(f"crystal_{tag}.dot", crystal.to_dot(f"crystal_{tag}"))
        out.write(f"crystal_{tag}.json", crystal.to_json())
        print(f"crystal kappa={crystal.kappa.fw}: {len(crystal)} nodes, "
              f"{len(crystal.edges())} edges, kappa0={crystal.kappa0().fw}")
    return EXIT_OK


def cmd_character(ctx: RunContext, out: OutputWriter) -> int:
    rows = []
    for crystal, _ in ctx.algebra.module_crystals(ctx.source):
        poly = ctx.algebra.character_poly(crystal.kappa)
        print(f"S_{crystal.kappa.fw} = {poly}")
        for e, c in poly.sorted_terms():
            rows.append([str(crystal.kappa.fw), str(c)] + [str(x) for x in e])
    csv = "\n".join([",".join(["kappa", "coeff"] + [f"e{i+1}" for i in range(ctx.datum.rank)])]
                    + [",".join(r) for r in rows])
    out.write("characters.csv", csv)
    return EXIT_OK


def cmd_psi(ctx: RunContext, out: OutputWriter) -> int:
    tau = ctx.require_tau()
    limit = ctx.read("mu_limit", 3)
    mu = ctx.mu()  # a config error, so read before any output is written
    rows = []
    n = ctx.datum.rank
    for coords in iproduct(range(limit + 1), repeat=n):
        val = ctx.algebra.psi(ctx.datum.weight(coords), tau)
        rows.append((coords, val))
        if len(rows) <= 12:
            print(f"  psi{coords} = {val} = {float(val):.6g}")
    csv_lines = ["mu,psi,psi_float"] + [
        f"\"{c}\",{v},{float(v)}" for c, v in rows
    ]
    out.write("psi_table.csv", "\n".join(csv_lines))
    poly = ctx.algebra.psi_poly(mu)
    out.write("psi_poly.txt", repr(poly))
    return EXIT_OK


def cmd_hchain(ctx: RunContext, out: OutputWriter) -> int:
    from . import markov as M

    table = M.hchain_matrix(ctx.distribution(), ctx.states(), strict=False)
    out.write("hchain.csv", table.to_csv())
    out.write("hchain.json", table.to_json())
    print(f"hchain table on {len(table.states)} states "
          f"({sum(table.row_complete)} complete rows)")
    return EXIT_OK


def cmd_conditioned(ctx: RunContext, out: OutputWriter) -> int:
    from . import markov as M

    table, hc = M.doob_and_hchain(ctx.distribution(), ctx.states())
    out.write("conditioned.csv", table.to_csv())
    out.write("conditioned.json", table.to_json())
    same = table.rows == hc.rows
    print(f"conditioned kernel on {len(table.states)} states; equals hchain: {same}")
    return EXIT_OK if same else EXIT_VERIFY


def cmd_pitman(ctx: RunContext, out: OutputWriter) -> int:
    from . import markov as M

    literal = ctx.cfg.get("path")
    if literal is None:
        raise FormatError("pitman needs a \"path\" literal in the config")
    if not isinstance(literal, list) or not all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[1], list) for e in literal):
        raise FormatError(f"config key 'path' must be a list of [time, [coords...]] pairs, "
                          f"got {literal!r}")
    basis = ctx.cfg.get("basis", "ambient")
    path = P.path_from_literal(ctx.datum, literal, basis=basis)
    raised = M.pitman(ctx.datum, path)
    out.write("pitman.json", json.dumps(
        {"input": literal, "output": P.path_to_literal(ctx.datum, raised, basis=basis)},
        indent=2,
    ))
    print(f"endpoint {raised.endpoint()} dominant={P.is_dominant_path(raised)}")
    return EXIT_OK


def cmd_simulate(ctx: RunContext, out: OutputWriter) -> int:
    from . import montecarlo as MC

    dist = ctx.distribution()
    mu = ctx.mu()
    horizon = ctx.read("horizon", 20)
    n = ctx.read("samples", 20000)
    seed = ctx.read("seed", 2024)
    small = min(horizon, ctx.read("ell", 5))
    # first, so that a block over the budget exits before the exact targets run
    summary = MC.simulate_exits(dist, mu, horizon, n, seed)
    exact_small = ctx.algebra.psi_ell(mu, ctx.source, dist.tau, small)
    psi_inf = ctx.algebra.psi(mu, dist.tau)
    truncation = exact_small - psi_inf
    reports = [
        MC.bernoulli_report(f"stay<=L={small}", summary.stay_count_continuous(small),
                            n, exact_small),
        MC.bernoulli_report(f"stay<=L={horizon}", summary.stay_count_continuous(horizon),
                            n, psi_inf, slack=truncation),
    ]
    reports[-1].notes["truncation_bound"] = truncation
    ok = _print_reports(reports)
    out.write("simulate.json", json.dumps([r.as_dict() for r in reports], indent=2))
    curve = [summary.stay_count_continuous(ell) / n for ell in range(1, horizon + 1)]
    csv = "\n".join(["L,estimate,stderr"] + [
        f"{ell},{p},{math.sqrt(p * (1 - p) / n)}" for ell, p in enumerate(curve, start=1)
    ])
    out.write("simulate_curve.csv", csv)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_sandwich(ctx: RunContext, out: OutputWriter) -> int:
    from . import montecarlo as MC

    dist = ctx.distribution()
    mu = ctx.mu()
    horizon = ctx.read("horizon", 30)
    n = ctx.read("samples", 20000)
    seed = ctx.read("seed", 2024)
    report = MC.sandwich_check(dist, mu, horizon, n, seed)
    print(f"kappa0 = {report.kappa0}")
    print(f"limit bounds: {float(report.lower):.6g} <= discrete <= {float(report.upper):.6g}")
    print(f"finite-horizon upper bound (L0={report.exact_horizon}): "
          f"{float(report.upper_finite):.6g}")
    ok = _print_reports([report.discrete, report.continuous])
    ok = ok and report.bounds_hold and report.lemma_violations == 0
    print(f"lemma violations: {report.lemma_violations}; bounds hold: {report.bounds_hold}")
    out.write("sandwich.json", json.dumps({
        "mu": list(report.mu),
        "kappa0": list(report.kappa0),
        "lower": str(report.lower),
        "lower_float": float(report.lower),
        "upper": str(report.upper),
        "upper_float": float(report.upper),
        "upper_finite": str(report.upper_finite),
        "upper_finite_float": float(report.upper_finite),
        "exact_horizon": report.exact_horizon,
        "discrete": report.discrete.as_dict(),
        "continuous": report.continuous.as_dict(),
        "lemma_violations": report.lemma_violations,
        "bounds_hold": report.bounds_hold,
    }, indent=2))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_ratio(ctx: RunContext, out: OutputWriter) -> int:
    from . import montecarlo as MC

    dist = ctx.distribution()
    mu = ctx.mu()
    top = ctx.read("ell", 14)
    ells = ctx.read("ells", list(range(4, top + 1, 2)), vector=True)
    reports = MC.asymptotic_ratio(dist, mu, list(ells))
    if not reports:
        print("no admissible endpoint found; nothing to report")
        return EXIT_OK
    rows = ["ell,lambda,ratio,target,deviation"]
    for r in reports:
        print(f"  ell={r.ell} lambda={r.lam} ratio={float(r.ratio):.6g} "
              f"target={float(r.target):.6g} dev={float(r.deviation):.3g}")
        rows.append(f"{r.ell},\"{r.lam}\",{r.ratio},{r.target},{float(r.deviation)}")
    out.write("ratio.csv", "\n".join(rows))
    out.write("ratio.json", json.dumps([
        {"ell": r.ell, "lambda": list(r.lam), "ratio": str(r.ratio),
         "ratio_float": float(r.ratio), "target": str(r.target),
         "target_float": float(r.target), "deviation_float": float(r.deviation)}
        for r in reports
    ], indent=2))
    if len(reports) < 2:
        print("one horizon reported; no deviation trend can be read")
        return EXIT_OK
    # a sequence that is exactly 0 throughout has converged already
    trend = (reports[-1].deviation < reports[0].deviation
             or all(r.deviation == 0 for r in reports))
    print(f"deviation trend decreasing: {trend}")
    return EXIT_OK if trend else EXIT_VERIFY


def cmd_verify(ctx: RunContext, out: OutputWriter) -> int:
    """Exact self-checks of the central identities on the configured data: each
    library check yields its (name, passed) pairs, printed as they come."""
    from . import markov as M

    dist = ctx.distribution()
    ctx.algebra.group  # a group over the budget exits 4 before any check runs
    # deferred: a check's inputs (the state closure) are built after earlier lines print
    checks = (lambda: ctx.algebra.alternating_identity_checks(ctx.mu(), ctx.source, dist.tau),
              lambda: M.doob_hchain_checks(dist, ctx.states(limit=3)),
              lambda: M.twisted_checks(dist),
              lambda: tensor_rule_checks(dist.crystals[0][0]))
    results = []
    for check in checks:
        for name, ok in check():
            results.append((name, ok))
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    payload = [{"check": n, "pass": p} for n, p in results]
    out.write("verify.json", json.dumps(payload, indent=2))
    return EXIT_OK if all(p for _, p in results) else EXIT_VERIFY


COMMANDS = {
    "crystal": cmd_crystal,
    "character": cmd_character,
    "psi": cmd_psi,
    "hchain": cmd_hchain,
    "conditioned": cmd_conditioned,
    "pitman": cmd_pitman,
    "simulate": cmd_simulate,
    "sandwich": cmd_sandwich,
    "ratio": cmd_ratio,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylwalk",
        description="Exact crystal-path walks, their conditioned kernels and "
                    "Monte-Carlo checks.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--type", help="Cartan type label, e.g. C2")
    parser.add_argument("--kappa", help="comma-separated fw coordinates")
    parser.add_argument("--mu", help="comma-separated fw coordinates")
    parser.add_argument("--tau", help="comma-separated rationals p/q")
    parser.add_argument("--tau-roots", dest="tau_roots", help="comma-separated rationals")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--ell", type=int)
    parser.add_argument("--output-dir", dest="output_dir")
    return parser


def resolve_config(args) -> Dict:
    cfg: Dict = {}
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise FormatError("the config document must be a JSON object")
    if args.type:
        cfg["type"] = args.type
    for key in ("seed", "samples", "horizon", "ell", "output_dir"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    for key in ("kappa", "mu"):
        text = getattr(args, key)
        try:
            if text:
                cfg[key] = [int(c) for c in text.split(",")]
        except ValueError:
            raise FormatError(f"--{key} needs comma-separated integers, got {text!r}") from None
    if args.tau:
        cfg["tau"] = args.tau.split(",")
    if args.tau_roots:
        cfg["tau_roots"] = args.tau_roots.split(",")
    return cfg


def main(argv=None) -> int:
    """Run one command.  Once the config is resolved, the manifest records the
    exit code and, for a failed run, the error, on every exit path."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out, error = None, None
    try:
        cfg = resolve_config(args)
        out = OutputWriter(cfg, args.command)
        code = COMMANDS[args.command](RunContext(cfg), out)
    except (FormatError, NotFiniteTypeError, DomainError, json.JSONDecodeError,
            FileNotFoundError) as ex:
        code, error = EXIT_CONFIG, f"config error: {ex}"
    except ResourceBudgetError as ex:
        code, error = EXIT_BUDGET, f"resource budget exceeded: {ex}"
    except WeylwalkError as ex:
        code, error = EXIT_VERIFY, f"verification failure: {ex}"
    if error is not None:
        print(error, file=sys.stderr)
    elif code != EXIT_OK:
        error = "one or more checks failed"
    if out is not None:
        out.manifest(cfg, code, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
