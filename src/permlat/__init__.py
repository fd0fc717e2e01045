"""permlat: finite distributive lattices, lattice-valued ultrametric spaces,
subquotient orders, generic structure generation, and permutation-structure
encoding, verified by property tests at desk scale."""

__version__ = "0.1.0"

from .lattice import (ChainCover, DimensionBounds, FiniteLattice, FinitePoset,
                      boolean2, b2_plus_top, chain_lattice,
                      dimension_bounds, enumerate_distributive_lattices,
                      enumerate_lattices, is_distributive, lattices_isomorphic,
                      m3, meet_irreducibles, min_chain_cover, n5,
                      product_lattice, validate_lattice, vertical_sum)
from .spaces import (EquivalenceSystem, LambdaSpace, amalgamation_failure_probe,
                     canonical_amalgam, equivalences_from_space,
                     space_from_equivalences, validate_space)
from .sqorders import (OrderedLambdaStructure, SubquotientOrder, compose_lex,
                       convexity_check, restrict_to, split_convex_linear,
                       validate_sqorder)
from .generic import (GenerationConfig, OnePointType, enumerate_one_point_types,
                      extension_property_check, generate_generic,
                      homogeneity_check, realize_type)
from .permstruct import (PermStructure, cameron_enumeration, decode_relations,
                         encode_orders, profile, two_order_catalog_parameters)

__all__ = [name for name in dir() if not name.startswith("_")]
