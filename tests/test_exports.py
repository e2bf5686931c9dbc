"""The package's public surface: every name a module lists in `__all__`
exists, deleted names stay deleted, every public function, method and
class has a caller in the package or is library API, and no module
imports a name it does not use.

The bench tracer wraps each `__all__` entry of the eight modules by name,
so a name left in `__all__` after its definition is deleted breaks a
traced run.  The tests' references and random inputs (the Bareiss rank,
scalar specialisation, random scalars and elements) live in
`tests/conftest.py`, not in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
    # one closure through the engine; h_A from coset representatives, the
    # double-coset sum kept as the tests' reference
    for name in ("right_gen_matrices", "_close", "double_coset_sum",
                 "coset_sum"):
        assert not hasattr(qschur.AlgebraContext, name)
    # one ladder operator: no `star` or `reps_side` choice
    for name in ("ef_apply", "ef_convention_report"):
        params = inspect.signature(getattr(qschur.SchurContext, name)).parameters
        assert "star" not in params and "reps_side" not in params
    assert not hasattr(qschur.schur, "_check_ef_convention")
    # names with no caller in the package, and the tests' references
    for owner, name in (
            (qschur.BranchContext, "tau_of_layer"),
            (qschur.Multicomposition, "component_sizes"),
            (qschur.Multicomposition, "key"),
            (qschur.Multicomposition, "shape"),
            (qschur.NumericTableau, "position_of"),
            (qschur.NumericTableau, "is_row_standard"),
            (qschur.symgrp, "coset_reps_min"),
            (qschur.symgrp, "reduced_word"),
            (qschur, "reduced_word"),
            (qschur, "coset_reps_min"),
            (qschur.ExactScalar, "is_one"),
            (qschur.SchurContext, "x_module"),
            (qschur.linalg, "rank_exact"),
            (qschur, "rank_exact"),
            (qschur.ExactScalar, "specialize"),
            (qschur.AlgebraContext, "random_element"),
            (qschur.ScalarContext, "random_scalar"),
            # one scalar protocol: plain Fractions at a Q point, `bool` for
            # zero, right multiplication from one `Multiples` per generator
            (qschur.ring, "QScalar"),
            (qschur.ring, "PointScalar"),
            (qschur.ExactScalar, "is_zero"),
            # residues mod p are plain ints, in normal form once the
            # ring's `normal` has reduced a finished term dict
            (qschur.ring, "FpScalar"),
            (qschur.ring.PointContext, "value"),
            (qschur.AKElement, "is_zero"),
            (qschur.schur, "WeylBasisVector"),
            (qschur, "WeylBasisVector"),
            (qschur.AlgebraContext, "word"),
            (qschur.AlgebraContext, "_rmul_term"),
            # one routine for shortest coset representatives
            (qschur.symgrp, "coset_factorize"),
            (qschur.symgrp, "is_min_coset_rep"),
            (qschur.symgrp, "common_refinement"),
            # terms keyed by basis position: no (c, w) index map, no
            # per-term memo of T_j; the weight projector did no algebra,
            # and the dense hom-space solver and the elements it builds
            # from coordinates are the tests' references
            (qschur.AlgebraContext, "basis_index"),
            (qschur.AlgebraContext, "from_vector"),
            (qschur.AlgebraContext, "_lmul_term"),
            (qschur.AlgebraContext, "_lmul_L_term"),
            (qschur.SchurContext, "idempotent_apply"),
            (qschur.SchurContext, "hom_space_images"),
            (qschur.SchurContext, "cellular_hom_dimension"),
            # branching labels annotated in one pass, ladder images
            # expanded once; partitions are enumerated where needed
            (qschur.BranchContext, "marked_node"),
            (qschur.BranchContext, "_stripped_shape"),
            (qschur.BranchContext, "_span_of_labels"),
            (qschur.SchurContext, "partitions"),
            # basis summands read off each tableau's rows, no 1_A in between
            (qschur.SchurContext, "_coset_reps_sum"),
            # u+ and u- built by one L_j step per factor M_j - x
            (qschur.AlgebraContext, "pi"),
            # one walk per tableau, whose representatives every algebra
            # turns into summands; permutation keys and weights in hecke
            (qschur.SchurContext, "tableaux_by_type"),
            (qschur.SchurContext, "_ssyt_summands"),
            (qschur.SchurContext, "_coset_terms"),
            (qschur.schur, "_inverse_key"),
            (qschur.hecke, "_perm_rank"),
            # one elimination routine in `RowSpace`, and one residue map
            (qschur.RowSpace, "_eliminate"),
            (qschur.linalg, "_residue"),
            # compositions are plain tuples: no wrapper class, no cache of it
            (qschur.symgrp, "CompositionBlocks"),
            (qschur, "CompositionBlocks"),
            (qschur.SchurContext, "_blocks")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    # one memo per context for what it builds over an algebra
    sc = qschur.SchurContext(1, 1, (1,))
    for name in ("_x_cache", "_z_cache", "_span_cache", "_points", "_tables",
                 "_block_cache"):
        assert not hasattr(sc, name), f"SchurContext.{name}"
    assert not hasattr(qschur.BranchContext(1, 1, (2,), [(2,)]), "_point")
    # options that only ever took one value
    params = inspect.signature(qschur.BranchContext.branch_dim_identity).parameters
    assert "check_bijection" not in params
    params = inspect.signature(qschur.BranchContext.highest_weight_check).parameters
    assert "conventions_validated" not in params
    for fn in (qschur.SchurContext.verify_basis_independence,
               qschur.verify_basis_with_fallback):
        assert "retries" not in inspect.signature(fn).parameters
    ncols = inspect.signature(qschur.nullspace).parameters["ncols"]
    assert ncols.default is inspect.Parameter.empty


#: public names kept without a caller in the package: the paper-level
#: library API the README and the acceptance suite use (with 1_A, the
#: tests' reference for the basis summands, and the Coxeter length, which
#: the keys of `hecke` now read off the Lehmer code), the basis summands
#: of any tableau, checked (the certificate reads those of its enumerated
#: tableaux from one walk of each), the checks the bench and the
#: acceptance suite call, the console entry point, and the reduced echelon
#: rows of a `RowSpace` as Fractions, which the tests and the at-point
#: golden read (qualified, as `nullspace` and the CLI have locals named
#: `basis`)
LIBRARY_API = {
    "chi", "chi_ge", "chi_gt", "row_stabilizer", "column_stabilizer",
    "superstandard", "nullspace", "double_cosets", "gamma",
    "gamma_inverse", "dominance_composition", "w_lambda", "act", "parse",
    "from_json", "basis_summands", "validated_ef_conventions",
    "highest_weight_check", "triangularity_check", "weyl_dim_count",
    "one_A", "length", "main", "RowSpace.basis",
}


def _public_definitions(tree):
    """(qualified name, name, class node or None) of each public
    module-level function and class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, node


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_public_name_has_a_caller():
    # a function or class is called through any name or attribute read; a
    # method only through an attribute read, or a name in its own class
    # body (an alias such as `from_int = from_rational`), not through a
    # local variable that happens to share its name
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(qschur.__file__).parent.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        names |= _names(tree)
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load)}
    uncalled = [f"{module}:{qualname}"
                for module, tree in trees.items()
                for qualname, name, cls in _public_definitions(tree)
                if name not in attributes
                and name not in (names if cls is None else _names(cls))
                and name not in LIBRARY_API and qualname not in LIBRARY_API]
    assert not uncalled, f"public names with no caller in the package: {uncalled}"


def test_no_unused_imports():
    # every name a module of the package imports at module level is used
    # in it (`__init__` imports to re-export)
    for path in sorted(Path(qschur.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        unused = sorted(imported - _names(tree))
        assert not unused, f"{path.name} imports {unused} and never uses them"
