"""Exact per-job output checks.

None of them compares stored bytes.  Exact values are re-derived from the
Weyl alternating sum (``CharacterAlgebra.weyl_numerator`` at tau, which is
psi(mu) = prod(1 - tau^alpha) S_mu(tau)) and from the branching
multiplicities in ``reference.json``, recorded at the seed commit by
``make_reference.py``.  Monte-Carlo reports are held to the CLI's own 4-sigma
band.  The ``stderr`` column of ``simulate_curve.csv`` is not checked.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import os
from fractions import Fraction
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# closed forms of |W| and of the number of positive roots
_EXCEPTIONAL = {"E6": (51840, 36), "E7": (2903040, 63), "E8": (696729600, 120),
                "F4": (1152, 24), "G2": (12, 6)}


def weyl_order_and_posroots(label: str) -> Tuple[int, int]:
    if label in _EXCEPTIONAL:
        return _EXCEPTIONAL[label]
    family, n = label[0], int(label[1:])
    if family == "A":
        return math.factorial(n + 1), n * (n + 1) // 2
    if family in "BC":
        return 2 ** n * math.factorial(n), n * n
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n), n * (n - 1)
    raise ValueError(f"no closed form for {label}")


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def source_key(cfg: Dict) -> str:
    """Reference key of a job's type and source, e.g. ``C2:1,0`` or ``C2:1,0+0,1``."""
    if "module" in cfg:
        parts = "+".join(",".join(map(str, s["kappa"])) for s in cfg["module"])
        return f"{cfg['type']}:{parts}"
    return f"{cfg['type']}:{','.join(map(str, cfg['kappa']))}"


def fw_key(fw) -> str:
    return ",".join(map(str, fw))


class Checker:
    """Exact checks, with the algebra objects cached per Cartan type."""

    def __init__(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            self.reference = json.load(f)
        self._algebras: Dict[str, object] = {}

    def algebra(self, label: str):
        if label not in self._algebras:
            from weylwalk.cartan import build_cartan_datum
            from weylwalk.charalg import CharacterAlgebra

            self._algebras[label] = CharacterAlgebra(build_cartan_datum(label))
        return self._algebras[label]

    @staticmethod
    def tau(datum, cfg: Dict):
        from weylwalk.charalg import tau_point, tau_point_from_roots

        if "tau" in cfg:
            return tau_point(datum, [Fraction(v) for v in cfg["tau"]])
        return tau_point_from_roots(datum, [Fraction(v) for v in cfg["tau_roots"]])

    def psi(self, label: str, fw, tau) -> Fraction:
        """psi(mu) from the Weyl alternating sum, independent of crystals."""
        algebra = self.algebra(label)
        return algebra.weyl_numerator(algebra.datum.weight(tuple(fw))).evaluate(tau)

    # -- CLI jobs -------------------------------------------------------------

    def check_cli(self, command: str, cfg: Dict, out: str, code: int) -> None:
        _require(code == 0, f"exit code {code}")
        getattr(self, "_" + command)(cfg, out)

    def _psi(self, cfg: Dict, out: str) -> None:
        algebra = self.algebra(cfg["type"])
        tau = self.tau(algebra.datum, cfg)
        with open(os.path.join(out, "psi_table.csv")) as f:
            lines = f.read().splitlines()
        _require(lines[0] == "mu,psi,psi_float", "psi_table.csv header")
        seen = []
        for line in lines[1:]:
            coords, value, _ = line.rsplit(",", 2)
            mu = ast.literal_eval(ast.literal_eval(coords))
            seen.append(tuple(mu))
            _require(Fraction(value) == self.psi(cfg["type"], mu, tau),
                     f"psi{mu} = {value} differs from the Weyl alternating sum")
        box = itertools.product(range(cfg["mu_limit"] + 1), repeat=algebra.datum.rank)
        _require(sorted(seen) == sorted(box), "psi_table.csv does not cover the mu box")

    def _reference_table(self, cfg: Dict) -> Tuple[List[str], Dict, Dict]:
        """States, complete flags and exact entries the kernel table must have."""
        algebra = self.algebra(cfg["type"])
        datum = algebra.datum
        tau = self.tau(datum, cfg)
        rows = self.reference["rows"][source_key(cfg)]
        limit = cfg["state_limit"]
        zero = fw_key([0] * datum.rank)
        states, frontier = {zero}, [zero]
        while frontier:
            for lam in rows[frontier.pop()]:
                if lam not in states and all(int(c) <= limit for c in lam.split(",")):
                    states.add(lam)
                    frontier.append(lam)
        order = sorted(states, key=lambda s: tuple(int(c) for c in s.split(",")))

        def weight(key: str):
            return datum.weight(tuple(int(c) for c in key.split(",")))

        numer = {s: self.psi(cfg["type"], weight(s).fw, tau) for s in order}
        if "module" in cfg:
            norm = sum(s["mult"] * tau.power(tuple(-c for c in datum.weight(tuple(s["kappa"])).root))
                       * self.psi(cfg["type"], s["kappa"], tau) for s in cfg["module"])
            base = datum.weight((0,) * datum.rank)
        else:
            norm = self.psi(cfg["type"], cfg["kappa"], tau)
            base = datum.weight(tuple(cfg["kappa"]))
        # S_x = N_x / D with D = prod(1 - tau^alpha), and the normalizer is S_kappa
        # or sum_kappa a_kappa tau^-kappa S_kappa
        denom = Fraction(1)
        for alpha in algebra.posroots:
            denom *= 1 - tau.power(alpha.root)
        entries = {}
        for mu in order:
            for lam, m in rows[mu].items():
                if lam in states:
                    shift = tau.power((base + weight(mu) - weight(lam)).root)
                    entries[(mu, lam)] = m * numer[lam] * shift * denom / (numer[mu] * norm)
        complete = {mu: all(lam in states for lam in rows[mu]) for mu in order}
        return order, complete, entries

    def _table(self, cfg: Dict, path: str) -> None:
        with open(path) as f:
            table = json.load(f)
        order, complete, entries = self._reference_table(cfg)
        states = [fw_key(s) for s in table["states"]]
        _require(states == order, f"{os.path.basename(path)}: states differ from the reference")
        _require(table["row_complete"] == [complete[s] for s in order],
                 f"{os.path.basename(path)}: complete-row flags differ")
        for mu, row in zip(order, table["rows"]):
            for lam, value in zip(order, row):
                want = entries.get((mu, lam), Fraction(0))
                _require(Fraction(value) == want,
                         f"{os.path.basename(path)}: entry {mu}->{lam} is {value}, want {want}")

    def _hchain(self, cfg: Dict, out: str) -> None:
        self._table(cfg, os.path.join(out, "hchain.json"))

    def _conditioned(self, cfg: Dict, out: str) -> None:
        self._table(cfg, os.path.join(out, "conditioned.json"))

    def _verify(self, cfg: Dict, out: str) -> None:
        with open(os.path.join(out, "verify.json")) as f:
            checks = json.load(f)
        _require(bool(checks), "verify.json is empty")
        failed = [c["check"] for c in checks if not c["pass"]]
        _require(not failed, f"verify checks failed: {failed}")

    @staticmethod
    def _in_band(report: Dict, slack: float = 0.0) -> None:
        gap = abs(report["estimate"] - float(Fraction(report["target"])))
        _require(gap <= max(4.0 * report["stderr"], slack),
                 f"{report['name']}: estimate {report['estimate']} outside the 4-sigma band "
                 f"of {report['target']}")

    def _simulate(self, cfg: Dict, out: str) -> None:
        algebra = self.algebra(cfg["type"])
        tau = self.tau(algebra.datum, cfg)
        with open(os.path.join(out, "simulate.json")) as f:
            reports = json.load(f)
        _require(len(reports) == 2, "simulate.json should hold two reports")
        self._in_band(reports[0])
        slack = float(Fraction(reports[1]["truncation_bound"]))
        self._in_band(reports[1], slack)
        _require(Fraction(reports[1]["target"]) == self.psi(cfg["type"], cfg["mu"], tau),
                 "limit target differs from psi(mu) by the Weyl alternating sum")

    def _sandwich(self, cfg: Dict, out: str) -> None:
        algebra = self.algebra(cfg["type"])
        tau = self.tau(algebra.datum, cfg)
        with open(os.path.join(out, "sandwich.json")) as f:
            rep = json.load(f)
        mu = cfg["mu"]
        shifted = [a + b for a, b in zip(mu, rep["kappa0"])]
        _require(Fraction(rep["lower"]) == self.psi(cfg["type"], mu, tau), "lower bound != psi(mu)")
        _require(Fraction(rep["upper"]) == self.psi(cfg["type"], shifted, tau),
                 "upper bound != psi(mu + kappa0)")
        self._in_band(rep["continuous"])
        _require(rep["bounds_hold"], "sandwich bounds do not hold")
        _require(rep["lemma_violations"] == 0, "kappa0 shift lemma violated")

    # -- library jobs ---------------------------------------------------------

    def check_lib(self, task: str, params: Dict, out: str, code: int) -> None:
        _require(code == 0, f"exit code {code}")
        with open(os.path.join(out, "result.json")) as f:
            result = json.load(f)
        getattr(self, "_lib_" + task)(params, result)

    def _lib_weyl_group(self, params: Dict, result: Dict) -> None:
        order, posroots = weyl_order_and_posroots(params["type"])
        _require(result["order"] == order, f"|W| = {result['order']}, closed form {order}")
        _require(result["sign_sum"] == 0, "signs do not cancel")
        _require(result["max_length"] == posroots, "longest element length != |Phi+|")
        _require(result["longest_count"] == 1, "longest element is not unique")

    def _lib_master_identity(self, params: Dict, result: Dict) -> None:
        algebra = self.algebra(params["type"])
        tau = self.tau(algebra.datum, params)
        left, right = Fraction(result["left"]), Fraction(result["right"])
        _require(left == right, f"alternating identity fails: {left} != {right}")
        _require(left == self.psi(params["type"], params["mu"], tau),
                 "psi(mu) differs from the Weyl alternating sum")

    def _lib_doob_hchain(self, params: Dict, result: Dict) -> None:
        doob = [[Fraction(x) for x in row] for row in result["doob"]]
        hchain = [[Fraction(x) for x in row] for row in result["hchain"]]
        _require(doob == hchain, "Doob transform of psi differs from the h-chain kernel")
        for row, complete in zip(hchain, result["row_complete"]):
            _require(all(x >= 0 for x in row), "negative kernel entry")
            _require(not complete or sum(row) == 1, "complete row does not sum to 1")

    def _lib_h_law(self, params: Dict, result: Dict) -> None:
        # Every sampled transition must have positive exact probability.  On
        # sources visited at least 100 times the frequency must lie within 5
        # sigma of the exact entry, sigma from the exact entry itself; the
        # wider band covers the dozens of reports one job makes.
        for r in result["reports"]:
            p = Fraction(r["target"])
            _require(p > 0, f"{r['name']}: sampled a transition of exact probability 0")
            if r["n"] >= 100 and p < 1:
                sigma = math.sqrt(float(p * (1 - p)) / r["n"])
                _require(abs(r["estimate"] - float(p)) <= 5 * sigma,
                         f"{r['name']}: {r['estimate']} vs exact {p}")
