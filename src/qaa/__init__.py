"""Amplitude amplification schedules, simulation, and circuit export.

A classical toolkit for generalized amplitude amplification iterations
G(beta, gamma) = D(beta) R(gamma): exact analytic dynamics in the target
plane, a full state-vector simulator for cross-checking, schedule
generators (random amplifying sequences, optimal exact search, perturbed
and fixed-point variants, the pi/3 recursion), trajectory execution and
comparison, and OpenQASM 3 circuit export.
"""

from .engine import (
    BackendMismatchError,
    StepRecord,
    Trajectory,
    classify,
    compare,
    grover_baseline,
    run_search,
)
from .qasm import export_circuit, replay_circuit, roundtrip_deviation
from .schedules import (
    ParameterSequence,
    fixed_point_sequence,
    generate_qaao_sequence,
    k_star,
    noisy_optimal_sequence,
    optimal_sequence,
    pi3_failure_probability,
    pi3_matrix,
    pi3_queries,
    pi3_series,
)
from .statevector import OracleSpec, sample_measurements, uniform_state
from .subspace import (
    IterationParams,
    ModelConsistencyError,
    StateAngles,
    advance,
    amplification_coefficient,
    amplification_terms,
    initial_angles,
    optimal_angles,
    qaao_bound,
    qaao_region_fraction,
    region_boundary,
)

__version__ = "0.1.0"
