"""Each package re-exports its modules with star imports, so a name in
two modules' ``__all__`` would be shadowed without an error."""

import importlib
from collections import Counter

import pytest

PACKAGES = {
    "cascade": (
        "coincidence_test",
        "convex_volume",
        "coverage_predict",
        "loo_core",
        "poset_estimators",
        "unseen_species",
    ),
    "cascade.sim_harness": ("report", "scenarios", "seeding"),
}


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_is_the_disjoint_union_of_its_modules_lists(package):
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{m}") for m in PACKAGES[package]]
    counts = Counter(name for module in modules for name in module.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert pkg.__all__ == sorted(counts)
    for module in modules:
        assert all(getattr(pkg, name) is getattr(module, name) for name in module.__all__)
