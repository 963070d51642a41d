"""hayd: exact structure-constant toolkit for Hopf-algebra module checks.

Everything is computed over an exact field (rationals or F_p) so that each
verified identity is a strict equality on structure constants.
"""

from .algebra import AlgebraModule, FinAlgebra
from .ayd import (
    EntwiningData,
    TwoSidedStructure,
    check_ayd,
    check_entwined_module,
    check_entwining,
    check_modular_pair,
    check_pi_stability,
    check_stability,
    check_yd,
    entwining_map,
    group_graded_module,
    one_dim_module,
    tensor_product,
)
from .double import (
    ah_double_coaction,
    ah_module_to_ayd,
    ayd_to_ah_module,
    build_ah,
    build_double,
    build_double_hopf,
    yd_to_double_module,
)
from .fields import Field, prime_field, rationals
from .galois import (
    ComoduleAlgebra,
    GaloisData,
    canonical_map,
    centralizer,
    check_comodule_algebra,
    check_sandwich,
    coinvariants,
    comodule_algebra_from_hopf,
    make_sayd_prop5,
    mu_action,
    relative_tensor,
    restrict_coaction,
    translation_map,
)
from .groups import Group, cyclic, symmetric
from .hopf import (
    FinHopfAlgebra,
    antipode_inverse,
    check_element,
    dual_hopf,
    find_characters,
    find_group_likes,
    function_algebra,
    group_algebra,
    iterated_coproduct,
    sweedler,
    taft,
    variant,
    verify_hopf_axioms,
)
from .report import Report
from .reps import (
    ActionStructure,
    CoactionStructure,
    comodule_to_dual_action,
    dual_action_to_comodule,
    verify_action,
    verify_coaction,
)
from .tensor import Tensor, invert_matrix

__version__ = "0.1.0"
