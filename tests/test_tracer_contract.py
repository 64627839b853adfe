"""The names that perfbench/tracer.py wraps must exist in asugs.

The tracer replaces module attributes when it installs, so a renamed or
deleted function breaks only traced benchmark runs.  This reads its
tables from the file as it stands and checks each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = tracer_module()
WRAPPED = [(mod, attr) for mod, attrs in TABLES.WRAPPED.items() for attr in attrs]


def assert_asugs_callable(owner, attr):
    assert hasattr(owner, attr), f"{owner.__name__} has no attribute {attr!r}"
    fn = getattr(owner, attr)
    assert callable(fn), f"{owner.__name__}.{attr} is not callable"
    assert fn.__module__.split(".")[0] == "asugs", f"{attr} is defined in {fn.__module__}"


@pytest.mark.parametrize("modname, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_functions_exist(modname, attr):
    assert_asugs_callable(importlib.import_module(modname), attr)


@pytest.mark.parametrize("attr", TABLES.MIXTURE_METHODS)
def test_wrapped_mixture_methods_exist(attr):
    from asugs.mixture import GaussianMixture

    assert_asugs_callable(GaussianMixture, attr)
