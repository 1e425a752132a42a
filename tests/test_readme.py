"""The README quick tour runs as written and its stated results hold."""

import os
import re
from fractions import Fraction

from weylwalk import markov

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quick_tour_results():
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert len(blocks) == 1
    tour = blocks[0]
    assert "# Fraction(21, 128)" in tour and "# equals markov.hchain_matrix(...)" in tour
    ns = {}
    exec(compile(tour, "README.md", "exec"), ns)
    algebra, datum, tau = ns["algebra"], ns["datum"], ns["tau"]
    assert algebra.psi(datum.zero_weight(), tau) == Fraction(21, 128)
    doob = markov.doob_transform(ns["sub"], ns["psi_vals"])
    hchain = markov.hchain_matrix(ns["dist"], ns["states"], strict=False)
    assert doob.rows == hchain.rows and doob.row_complete == hchain.row_complete
