"""The benchmark's tracer binds to library names; a refactor must keep them."""

import importlib
import importlib.util
import os


def test_perfbench_span_targets_resolve():
    """Every function the benchmark's tracer wraps still exists by that name."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"weylwalk.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{module}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
