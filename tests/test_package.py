"""The package surface: ``mcsda.__all__`` is the union of its modules'
export lists, each name bound to its home module's own object."""

import importlib
import pkgutil
import types

import mcsda


def exporting_modules():
    modules = [
        importlib.import_module(f"mcsda.{info.name}")
        for info in pkgutil.iter_modules(mcsda.__path__)
    ]
    return [m for m in modules if hasattr(m, "__all__")]


def test_package_all_is_the_module_export_lists():
    modules = exporting_modules()
    assert {m.__name__ for m in modules} == {
        "mcsda.datasets", "mcsda.discriminant", "mcsda.linalg",
        "mcsda.metrics", "mcsda.model_io", "mcsda.tensor_ops",
    }
    exported = [name for m in modules for name in m.__all__]
    assert len(mcsda.__all__) == len(set(mcsda.__all__))
    assert sorted(mcsda.__all__) == sorted(["__version__", *exported])


def test_every_export_is_its_home_module_object():
    for module in exporting_modules():
        for name in module.__all__:
            value = vars(module)[name]
            assert getattr(mcsda, name) is value, name
            # classes and functions are defined there, not re-exported
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, name
