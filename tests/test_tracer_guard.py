"""The benchmark tracer patches causalprod functions by name; keep those names alive.

``perfbench/spans.py`` wraps every function in its ``TIMED`` and ``COUNTED``
lists, found through ``vars()`` of the module or class that defines it, and
its ``double_product`` observer reads the positional ``n`` and ``nu``.  A
rename or deletion on the package side would crash traced benchmark runs;
this test makes it fail here first.  spans.py is loaded by path and not
modified.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from causalprod.product import double_product

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _load_spans()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in SPANS_MODULE.TIMED + SPANS_MODULE.COUNTED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"causalprod.{module}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert last in vars(owner)


def test_double_product_positional_arguments():
    names = list(inspect.signature(double_product).parameters)
    assert names[0] == "n" and names[2] == "nu"
