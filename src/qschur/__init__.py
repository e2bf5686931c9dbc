"""Exact arithmetic for Ariki-Koike algebras and cyclotomic q-Schur modules."""

from .ring import (ContextMismatch, ExactScalar, ExponentOverflow, ScalarContext,
                   Specialization)
from .linalg import ResourceLimit, RowSpace, nullspace, solve_in_span
from .symgrp import (CompositionBlocks, compose, double_cosets, identity,
                     invert, length, young_subgroup)
from .tableaux import (MultiShape, Multicomposition, NumericTableau,
                       TypedTableau, addable_nodes, bar_tableau,
                       canonical_tableaux, chi, dominance_composition,
                       dominance_multiweight, enumerate_multicompositions,
                       enumerate_ssyt, gamma, gamma_inverse, one_A,
                       removable_nodes, superstandard, t_lambda_x, w_S,
                       w_lambda)
from .hecke import AKElement, AlgebraContext
from .schur import (ConventionError, EFIndex, ModuleElement, SchurContext,
                    validated_ef_conventions, verify_basis_with_fallback)
from .branching import BranchContext, FiltrationLayer

__version__ = "0.1.0"
