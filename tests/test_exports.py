"""Every name in a module's ``__all__`` must resolve: a stale entry passes every
other test and fails only on ``from mehybrid.<module> import *``."""
import importlib
import pkgutil

import pytest

import mehybrid

MODULES = sorted(info.name for info in pkgutil.iter_modules(mehybrid.__path__))


def test_the_exporting_modules_are_found():
    assert {"estimator", "problems", "randomspace", "refine", "surrogate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    module = importlib.import_module(f"mehybrid.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"mehybrid.{name}.__all__ names {missing}, which the module does not define"
    exec(f"from mehybrid.{name} import *", {})
