import importlib

import pytest


@pytest.mark.parametrize("module", ["graphcsg", "graphcsg.solvers"])
def test_star_import_resolves_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert name in namespace, name
