"""strathom: exact homological algebra for stratification-poset quivers.

Layers, bottom up:

  exact_linalg    Smith normal form, kernels, solving, subquotients over
                  arbitrary-precision integers or exact rationals
  chain_complex   bounded cochain complexes, cohomology, mapping cones,
                  quasi-isomorphism tests
  quiver_rep      posets, quivers, representations, Hom and Ext
  rep_complex     complexes of representations, labeled Hom complexes,
                  endomorphism dg algebras
  dg              dg algebras with structure constants, sub-algebras,
                  ideals, quotients, formality chains
  sphere_models   the marked-sphere models, their resolutions, formality
                  witnesses, and the finite de Rham algebra
  cli             the `strathom` command
"""

from .exact_linalg import (
    QQ,
    ZZ,
    CoeffRing,
    ExactMatrix,
    SnfResult,
    SubquotientModule,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    subquotient,
)
from .chain_complex import (
    ChainComplex,
    ChainMap,
    CohomologyModule,
    CohomologyProfile,
    cohomology,
    is_quasi_iso,
    mapping_cone,
    shift,
    validate_complex,
)
from .quiver_rep import (
    Quiver,
    RepMorphism,
    Representation,
    StratPoset,
    closure_rep,
    direct_sum,
    ext,
    hom_rank,
    hom_space,
    indecomposable_projective,
    injective_coresolution,
    projective_resolution,
    validate_representation,
)
from .rep_complex import (
    ComplexOfReps,
    HomComplex,
    end_dg_algebra,
    validate_resolution,
)
from .dg import (
    DgAlgebra,
    DgMorphism,
    FormalityChain,
    cohomology_algebra,
    ideal_from_span,
    is_quasi_iso_dg,
    quotient,
    subalgebra_from_span,
    validate_dg_algebra,
    verify_formality_chain,
)
from .sphere_models import (
    DeRhamModel,
    SphereModel,
    de_rham_model,
    formality_chain_n_points,
    formality_witness_one_point,
    formality_witness_trivial,
)

__version__ = "0.1.0"
