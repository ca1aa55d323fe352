"""The package's public API is the union of its modules' ``__all__`` lists."""

import pnplab
from pnplab import analysis, denoisers, experiments, linop, prior, solver

MODULES = (analysis, denoisers, experiments, linop, prior, solver)


def test_all_is_the_version_and_each_module_all():
    want = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert pnplab.__all__ == want
    assert len(set(want)) == len(want)


def test_each_name_is_its_module_s_own_object():
    assert pnplab.__version__ == "0.1.0"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pnplab, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pnplab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pnplab.__all__)
