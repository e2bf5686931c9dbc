"""Every name a module lists in `__all__` exists.

The bench tracer wraps each `__all__` entry of the eight modules by name,
so a name left in `__all__` after its definition is deleted breaks a
traced run.
"""

import importlib
import inspect

import pytest

import qschur

MODULES = ("ring", "linalg", "symgrp", "tableaux", "hecke", "schur",
           "branching", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"qschur.{name}")
    for entry in getattr(module, "__all__", ()):
        assert hasattr(module, entry), f"qschur.{name}.__all__ lists {entry!r}"


def test_deleted_api_is_gone():
    assert not hasattr(qschur, "RationalMatrix")
    assert not hasattr(qschur.linalg, "RationalMatrix")
    assert not hasattr(qschur.AKElement, "mul_gen")
    assert not hasattr(qschur.SchurContext, "ef_image_of_x")
    # one at-point ring: no F_p-only context, no specialise-afterwards path
    assert not hasattr(qschur.ring, "FpContext")
    assert not hasattr(qschur.AKElement, "specialize_vector")
    assert not hasattr(qschur.AKElement, "residue_vector")
    for name in ("_apply_right", "_right_word", "_apply_right_gen"):
        assert not hasattr(qschur.SchurContext, name)
    # one closure through the engine; coset sums from symgrp.double_coset
    for name in ("right_gen_matrices", "_close", "double_coset_sum"):
        assert not hasattr(qschur.AlgebraContext, name)
    # two ladder operators, chosen by `star` alone; right cosets always
    for name in ("ef_apply", "ef_convention_report"):
        params = inspect.signature(getattr(qschur.SchurContext, name)).parameters
        assert "star" in params and "reps_side" not in params
