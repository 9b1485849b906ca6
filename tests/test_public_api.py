"""The package's public exports."""

import pytest

import phevopt
import phevopt.dpopt


@pytest.mark.parametrize("module", [phevopt, phevopt.dpopt],
                         ids=["phevopt", "phevopt.dpopt"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
