"""Every name a ``repro`` package re-exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = package.__all__
    assert exported, f"{name}.__all__ is empty"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(package, item)]
    assert not missing, f"{name}.__all__ names unknown attributes: {missing}"
