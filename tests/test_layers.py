"""The benchmark's layer tracer still finds every program name it wraps."""

import os
import sys

import pytest

import frobode.cli  # noqa: F401  (with the package, imports every traced module)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import layers  # noqa: E402

TARGETS = sorted(
    {t for table in (layers.SPANS, layers.COUNTS) for ts in table.values() for t in ts}
    | {("frobode.frobenius", "recurrence_jets"), ("frobode.indicial", "analyze")}
)


@pytest.mark.parametrize("modname, attr", TARGETS)
def test_traced_name_resolves(modname, attr):
    _, _, fn = layers._resolve(modname, attr)
    assert callable(fn)


def test_seed_retry_counter_finds_the_valuation_error():
    assert issubclass(sys.modules["frobode.series"].JetValuationError, ArithmeticError)
