"""Numerical toolkit for non-cooperative games with classical or quantum strategies.

The package covers finite games in normal form, games whose strategies are
pure qudit states routed through a referee unitary, equilibrium search and
verification for both, the sphere picture of the qubit strategy space with
its convex-geometry tooling, and ready-made games built from state
preparation, search, and annealing tasks.
"""
from .config import DEFAULT_TOLS, Tolerances
from .linalg import (
    HermitianOperator,
    ProductPlay,
    PureState,
    UnitaryOperator,
    canonicalize_phase,
    fubini_study_distance,
    haar_random_state,
    haar_random_unitary,
    matrix_exponential_unitary,
    partial_contraction,
    tensor_product,
)
from .classical import (
    ConvexityReport,
    EquilibriumCertificate,
    FiniteGame,
    MixedProfile,
    counters,
    deviation_gains,
    expected_payoff,
    is_epsilon_nash,
    pure_deviation_payoffs,
    random_profile,
    support_enumeration_nash,
    verify_countering_convexity,
)
from .quantum import (
    DynamicsOutcome,
    DynamicsStatus,
    GridSearchReport,
    NonlinearityWitness,
    ObservablePayoff,
    OverlapPayoff,
    QuantumEquilibriumCertificate,
    QuantumGame,
    TraceRecord,
    alignment_demo_game,
    best_response,
    best_response_observable,
    best_response_overlap,
    effective_observable,
    grid_best_response_payoff,
    grid_search_pure_nash,
    grid_states,
    iterated_best_response,
    multi_start_dynamics,
    observable_nonlinearity_witness,
    overlap_contraction,
    overlap_fixed_point_candidates,
    play_distance,
    payoff,
    prepared_vector,
    quantum_deviation_gains,
    random_play,
    verify_epsilon_nash_quantum,
)
from .geometry import (
    CoincidenceReport,
    ConvexHull3D,
    ExtremePointsReport,
    IsometryReport,
    ball_homeomorphism,
    ball_homeomorphism_inverse,
    bloch_embedding,
    boundary_coincidence_check,
    convex_hull,
    extreme_points,
    great_circle_distance,
    hemisphere_retract,
    isometry_check,
    sample_hull_boundary,
    support_radius,
)
from .builders import (
    AdiabaticSchedule,
    SweepReport,
    SweepRow,
    bell_state_preparation_demo,
    build_adiabatic_game,
    build_grover_game,
    build_state_preparation_game,
    complement_superposition,
    demo_adiabatic_schedule,
    ground_state,
    grover_iterate,
    sweep_adiabatic,
)
from .gamedoc import (
    DocumentError,
    parse_game,
    parse_play,
    parse_profile,
    parse_schedule,
    serialize_game,
    serialize_play,
    serialize_profile,
    serialize_schedule,
)

__version__ = "0.1.0"
