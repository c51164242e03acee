"""Every call site perfbench's tracer patches must still exist.

``perfbench/run.py --trace 1`` wraps the names listed in
``perfbench/tracing.py``'s ``SITES``; a refactor that drops or renames one
of them breaks the traced benchmark, so it fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_sites() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.SITES]


@pytest.mark.parametrize("module, attr", load_sites())
def test_site_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer patches a method on the class that defines it
        cls_name, attr = attr.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert hasattr(owner, attr)
