"""Every name a ``repro`` package lists in ``__all__`` must resolve.

A stale entry does not fail on import — it only breaks
``from repro.<package> import *`` — so shrinking a package's surface
without updating ``__all__`` would otherwise pass silently.  One case per
package, so a failure names the package that went stale.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield info.name


PACKAGES = list(_packages())


def test_every_package_is_checked():
    assert repro.__name__ in PACKAGES
    assert "repro.opencom" in PACKAGES
    assert "repro.router.components" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert exports, f"{name} declares no __all__"
    stale = [export for export in exports if not hasattr(module, export)]
    assert stale == []
