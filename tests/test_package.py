"""The package's lazy exports: every advertised name resolves."""

from importlib import import_module

import pytest

import moe_prune


def test_every_export_resolves_to_its_module():
    for name in moe_prune.__all__:
        value = getattr(moe_prune, name)
        module = moe_prune._NAME_TO_MODULE.get(name)
        if module is not None:
            assert value is getattr(import_module(f"moe_prune.{module}"), name), name
    assert dir(moe_prune) == moe_prune.__all__


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        moe_prune.no_such_name
