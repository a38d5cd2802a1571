"""Witworld: classical, quantum, and box systems under the max tensor product.

The composite state cone admits every bipartite entanglement witness as a
state, every positive map as a transformation, and all no-signalling
correlations; the package provides exact and search-based membership
tests plus the steering and remote-state-preparation constructions built
on top of them.
"""

from .compose import (
    SearchConfig,
    box_pair_state,
    composite_effect_check,
    composite_state_check,
    cone_generators,
    hermitian_tensor_to_vector,
    pr_state,
    probe_states,
    reduced_state,
    steer,
    tensor,
    tensor_all,
    vector_to_hermitian_tensor,
)
from .protocols import (
    PrBoxKit,
    RspRun,
    best_deterministic_chsh,
    bloch_state,
    builtin_state,
    chsh_value,
    haar_random_states,
    pr_box_kit,
    pr_box_probability,
    rsp_as_assemblage,
    rsp_run,
    singlet_vector,
    trace_distance,
)
from .steering import (
    Assemblage,
    LhsConfig,
    LhsModel,
    SteeringInequality,
    StrategyCapError,
    assemblage_from_realization,
    lhs_check,
    ns_check,
    paper_assemblage,
    wire_instrumental,
)
from .systems import (
    AtomicSystem,
    Boxworld,
    Classical,
    GptVector,
    Quantum,
    SystemType,
    atomic_effect_check,
    atomic_state_check,
    dimension,
    effect_cone_rays,
    hermitian_basis,
    hermitian_to_vector,
    pair,
    state_vertices,
    system,
    unit_effect,
    vector_to_hermitian,
)
from .transforms import (
    LinearMap,
    apply,
    builtin_map,
    choi_matrix,
    compose_par,
    compose_seq,
    controlled_map,
    copy_map,
    identity_map,
    measurement_map,
    positivity_check,
    preparation_map,
    quantum_cp_check,
    trace_condition_check,
    transpose_map,
    unitary_conjugation_map,
    unot_map,
)
from .verdict import MembershipVerdict

__version__ = "0.1.0"
