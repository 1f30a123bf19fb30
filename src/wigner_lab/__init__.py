"""Dense-statevector toolkit for the extended Wigner's friend protocol:
exact states and unitaries, basis/frame expansions, paradox audits,
unitary synthesis, and seeded Monte Carlo of the mistake mechanism.
"""

from .core import (
    TOL_NORM,
    TOL_RANK,
    TOL_UNITARY,
    ExpansionCoefficients,
    Frame,
    MeasurementBasis,
    OutcomeDistribution,
    SquareUnitary,
    StateVector,
    UnitarityReport,
    apply,
    born_probabilities,
    change_basis,
    computational_basis,
    expand_in_frame,
    is_separable,
    is_unitary,
    schmidt_values,
    tensor,
    tensor_frame,
)
from .montecarlo import (
    ComparisonReport,
    MistakePolicy,
    RunResult,
    TraceChunk,
    TrialConfig,
    analytic_mistake_table,
    compare_distributions,
    run_trials,
)
from .protocol import (
    AliceOutcome,
    ParadoxReport,
    WrongStateLabel,
    alice_first_qubit,
    charlie_basis,
    entangle_matrix,
    frame_view,
    initial_register,
    lookup,
    named_matrices,
    named_states,
    paradox_audit,
    prepare_second_qubit,
    reset_matrix,
    target_state,
    wrong_state,
)
from .synthesis import SynthesisResult, synthesize_from_e0, synthesize_to_e0

__version__ = "0.1.0"
