"""Span recording around weylwalk's layer boundaries, and the self-time analysis.

A job process calls ``install()`` after importing weylwalk.  Every wrapped
function then records one span per call: name, start, end and parent span
(the job id is the file the spans are written to).  Spans live in flat
arrays in memory and are written once, when the job exits.

Each wrapper is bound at every name a caller looks up: the defining module
and every weylwalk module that imported the function by name (for example
``montecarlo.hchain_entry`` and ``cli.tensor_apply_e``), plus the class
attribute for methods.  The library itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

LAYERS = ("cartan", "paths", "crystal", "charalg", "markov", "montecarlo", "cli")
MODULES = LAYERS + ("exact", "errors")


def _steps_evaluated(summary) -> int:
    """Steps up to the later of the two exits of each sample, or the horizon."""
    total = 0
    for c, d in zip(summary.continuous_exit, summary.discrete_exit):
        total += summary.horizon if c is None or d is None else max(c, d)
    return total


def _post_weyl(rec, args, kwargs, result):
    rec.add("cartan.weyl_group.elements", len(result))
    rec.maximum("charalg.group_order", len(result))


def _post_generate(rec, args, kwargs, result):
    rec.add("crystal.nodes_generated", len(args[0].nodes))


def _pre_cache_get(rec, args, kwargs):
    rec.add("crystal.cache.gets", 1)
    if args[1].fw in args[0]._store:
        rec.add("crystal.cache.hits", 1)


def _pre_character(rec, args, kwargs):
    rec.distinct("charalg.character", (args[1].fw, args[2]))


def _pre_multiplicity_row(rec, args, kwargs):
    rec.distinct("markov.multiplicity_row", (id(args[0]), args[1].fw))


def _post_closure(rec, args, kwargs, result):
    rec.add("markov.closure.states", len(result))


def _post_table(rec, args, kwargs, result):
    rec.add("markov.table.entries", len(result.states) ** 2)


def _post_simulate(rec, args, kwargs, result):
    rec.add("montecarlo.samples_steps_drawn", result.n * result.horizon)
    rec.add("montecarlo.steps_evaluated", _steps_evaluated(result))


def _pre_hlaw(rec, args, kwargs):
    # empirical_h_law(dist, ellmax, n, seed) draws n * ellmax steps, all used
    steps = int(args[1]) * int(args[2])
    rec.add("montecarlo.samples_steps_drawn", steps)
    rec.add("montecarlo.steps_evaluated", steps)


# (module, attribute, span name, pre hook, post hook).  Helpers in ``exact`` and
# ``errors`` are not wrapped: their time counts in the caller's self time.
TARGETS = (
    ("cartan", "build_cartan_datum", "cartan.build_cartan_datum", None, None),
    ("cartan", "positive_roots", "cartan.positive_roots", None, None),
    ("cartan", "weyl_group", "cartan.weyl_group", None, _post_weyl),
    ("cartan", "act", "cartan.act", None, None),
    ("cartan", "act_vector", "cartan.act_vector", None, None),
    ("paths", "apply_f", "paths.apply_f", None, None),
    ("paths", "apply_e", "paths.apply_e", None, None),
    ("paths", "PiecewisePath.stays_in_cone", "paths.stays_in_cone", None, None),
    ("paths", "path_weight", "paths.path_weight", None, None),
    ("paths", "concat", "paths.concat", None, None),
    ("paths", "concat_all", "paths.concat_all", None, None),
    ("crystal", "CrystalGraph.__init__", "crystal.generate", None, _post_generate),
    ("crystal", "CrystalCache.get", "crystal.cache_get", _pre_cache_get, None),
    ("crystal", "count_multiplicity", "crystal.multiplicity", None, None),
    ("crystal", "module_multiplicity", "crystal.module_multiplicity", None, None),
    ("crystal", "count_f_multiplicity", "crystal.f_multiplicity", None, None),
    ("crystal", "tensor_apply_e", "crystal.tensor_apply_e", None, None),
    ("crystal", "tensor_apply_f", "crystal.tensor_apply_f", None, None),
    ("crystal", "tensor_eps_phi", "crystal.tensor_eps_phi", None, None),
    ("charalg", "CharacterAlgebra.character_value", "charalg.character_value",
     _pre_character, None),
    ("charalg", "CharacterAlgebra.character_poly", "charalg.character_poly", None, None),
    ("charalg", "CharacterAlgebra.weyl_numerator", "charalg.weyl_numerator", None, None),
    ("charalg", "CharacterAlgebra.psi", "charalg.psi", None, None),
    ("charalg", "CharacterAlgebra.psi_poly", "charalg.psi_poly", None, None),
    ("charalg", "CharacterAlgebra.psi_ell", "charalg.psi_ell", None, None),
    ("charalg", "CharacterAlgebra.psi_ell_twisted", "charalg.psi_ell_twisted", None, None),
    ("charalg", "CharacterAlgebra.master_identity_sides", "charalg.master_identity",
     None, None),
    ("markov", "CrystalDistribution.__init__", "markov.distribution", None, None),
    ("markov", "CrystalDistribution.multiplicity_row", "markov.multiplicity_row",
     _pre_multiplicity_row, None),
    ("markov", "CrystalDistribution.restricted_transition", "markov.restricted_transition",
     None, None),
    ("markov", "state_closure", "markov.closure", None, _post_closure),
    ("markov", "restricted_table", "markov.restricted_table", None, _post_table),
    ("markov", "hchain_matrix", "markov.hchain_matrix", None, _post_table),
    ("markov", "hchain_entry", "markov.hchain_entry", None, None),
    ("markov", "doob_transform", "markov.doob", None, None),
    ("markov", "TransitionTable.to_csv", "markov.serialize", None, None),
    ("markov", "TransitionTable.to_json", "markov.serialize", None, None),
    ("markov", "twisted_node_probability", "markov.twisted", None, None),
    ("markov", "twisted_tau", "markov.twisted", None, None),
    ("markov", "pitman", "markov.pitman", None, None),
    ("markov", "pitman_prefix_weights", "markov.pitman_prefix", None, None),
    ("montecarlo", "StepSampler.__init__", "montecarlo.sampler_build", None, None),
    ("montecarlo", "simulate_exits", "montecarlo.simulate", None, _post_simulate),
    ("montecarlo", "empirical_h_law", "montecarlo.hlaw", _pre_hlaw, None),
    ("montecarlo", "h_law_reports", "montecarlo.hlaw_reports", None, None),
    ("montecarlo", "sandwich_check", "montecarlo.sandwich", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "OutputWriter.write", "cli.write", None, None),
)


class Recorder:
    """Flat in-memory span arrays plus counters and distinct-argument sets."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict = {}
        self.keys: dict = {}
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def distinct(self, what: str, key) -> None:
        self.keys.setdefault(what, set()).add(key)

    def wrap(self, fn, span: str, pre=None, post=None):
        nid = self.name_id(span)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(rec, args, kwargs)
            sid = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.end.append(0.0)
            rec.stack.append(sid)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[sid] = clock()
                rec.stack.pop()
            if post is not None:
                post(rec, args, kwargs, result)
            return result

        return traced

    def _bind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans as raw arrays plus a JSON index, once, at exit."""
        with open(path + ".bin", "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        meta = dict(extra)
        meta.update({
            "names": self.names,
            "count": len(self.name),
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.keys.items()},
        })
        with open(path + ".json", "w") as f:
            json.dump(meta, f)


def install() -> Recorder:
    """Wrap every target and rebind it at each name a caller looks it up by."""
    rec = Recorder()
    modules = [importlib.import_module("weylwalk." + m) for m in MODULES]
    modules.append(importlib.import_module("weylwalk"))
    for mod_name, attr, span, pre, post in TARGETS:
        mod = importlib.import_module("weylwalk." + mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            rec._bind(cls, meth, rec.wrap(cls.__dict__[meth], span, pre, post))
            continue
        original = getattr(mod, attr)
        traced = rec.wrap(original, span, pre, post)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    rec._bind(m, name, traced)
    return rec


# -- analysis (in the benchmark process) -----------------------------------------


def self_times(parent, start, end):
    """Per-span self time: duration minus the time its child spans cover.

    The program is single-threaded, so the children of one span are disjoint
    intervals nested inside it and the time they cover is the sum of their
    durations.
    """
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def load(path: str):
    """Spans of one job: (meta, per-name calls, per-name self seconds, root span)."""
    import numpy as np

    with open(path + ".json") as f:
        meta = json.load(f)
    n = meta["count"]
    with open(path + ".bin", "rb") as f:
        name = np.fromfile(f, dtype=np.int32, count=n)
        parent = np.fromfile(f, dtype=np.int32, count=n)
        start = np.fromfile(f, dtype=np.float64, count=n)
        end = np.fromfile(f, dtype=np.float64, count=n)
    selfs = self_times(parent, start, end)
    k = len(meta["names"])
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=selfs, minlength=k)
    roots = np.flatnonzero(parent < 0)
    root = (float(start[roots].min()), float(end[roots].max())) if len(roots) else None
    by_name = {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(meta["names"])}
    return meta, by_name, root
