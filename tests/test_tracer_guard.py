"""The benchmark tracer patches causalprod functions by name; keep those names alive.

``perfbench/spans.py`` wraps every function in its ``TIMED`` and ``COUNTED``
lists, found through ``vars()`` of the module or class that defines it, and
its observers read positional arguments: ``double_product``'s ``n`` and
``nu``, ``gauss_legendre``'s node count ``n`` (the fourth) and
``bessel_series``'s ``(j, x, y)`` as floats.  A rename, deletion or change of
those positions on the package side would crash or skew traced benchmark
runs; these tests make it fail here first.  spans.py is loaded by path and
not modified.
"""
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

from causalprod import kernel
from causalprod.kernel import ComplexParam, Interval
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


def _recorded(monkeypatch, name, run):
    """The positional arguments of each call of kernel.<name> while run() runs."""
    calls, real = [], getattr(kernel, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, name, spy)
    run()
    return calls


def test_gauss_legendre_node_count_is_the_fourth_positional_argument(monkeypatch):
    assert list(inspect.signature(kernel.gauss_legendre).parameters)[3] == "n"
    iv, nu = Interval(0.0, 1.0), ComplexParam(1.0, 0.5)
    calls = _recorded(monkeypatch, "gauss_legendre",
                      lambda: kernel.isometry_residual(0.3, 0.6, iv, nu))
    assert len(calls) == 1
    for args in calls:
        counters = defaultdict(int)
        SPANS_MODULE.OBSERVERS["kernel.gauss_legendre"](counters, args, None)
        assert counters["kernel.quad_nodes"] == kernel.CHECK_NODES


def test_bessel_series_gets_a_single_point_as_floats(monkeypatch):
    assert list(inspect.signature(kernel.bessel_series).parameters) == ["j", "x", "y"]
    iv, nu = Interval(0.0, 1.0), ComplexParam(1.0, 0.5)
    calls = _recorded(monkeypatch, "bessel_series",
                      lambda: kernel.limit_kernel(0.2, 0.7, iv, nu))
    assert [args[0] for args in calls] == [0, 1]
    for j, x, y in calls:
        assert type(x) is float and type(y) is float
        counters = defaultdict(float)
        SPANS_MODULE.OBSERVERS["kernel.bessel_series"](counters, (j, x, y), None)
        assert counters["kernel.bessel_series.arg_xy_max"] == abs(x * y) > 0
