"""Exact (co)homology of finite inverse monoids, crossed products by
unital inverse-monoid actions, and Steinberg algebras of finite groupoids."""

from .linalg import (Field, Matrix, QuotientSpace, induced_map, kernel_basis,
                     mat_rank, quotient_space)
from .monoids import (InverseMonoid, chain_semilattice, cyclic_group,
                      direct_product, from_table, max_group_image,
                      symmetric_inverse_monoid, trivial_monoid)
from .homology import (ChainComplexData, KSModule, ResolutionComplex,
                       build_resolution, cohomology, cohomology_complex,
                       homology, homology_complex, regular_ks_module,
                       trivial_module_ke)
from .algebras import (Algebra, Bimodule, diagonal_algebra, dual_numbers,
                       field_algebra, hochschild_cohomology,
                       hochschild_homology, is_separable, matrix_algebra,
                       regular_bimodule, semigroup_algebra, table_algebra)
from .crossed import (CrossedProduct, PartialGroupAction, UnitalAction,
                      coinvariants, crossed_product,
                      induced_partial_action, invariants_sub, is_compatible,
                      ks_as_crossed_product, natural_ke_action,
                      phi_map, trivial_action, validate_action,
                      verify_separable_collapse_cohomology,
                      verify_separable_collapse_homology)
from .groupoids import (FiniteGroupoid, SteinbergData, bisections,
                        discrete_groupoid, disjoint_union, group_as_groupoid,
                        induced_action_hat, pair_groupoid, psi_map,
                        steinberg_algebra, steinberg_data,
                        verify_steinberg_cohomology,
                        verify_steinberg_homology)

__all__ = [name for name in dir() if not name.startswith("_")]
