"""Slotted MAC coexistence simulator and analytic throughput oracles.

Models an underwater acoustic uplink: N nodes share one slotted channel to a
single access point, each with a constant whole-slot propagation delay. TDMA
and slotted-ALOHA senders coexist with model-aware nodes that know every
delay and strategy and play the provably optimal policy; closed-form optima
and brute-force enumeration certify the simulated throughputs.
"""

from .core import (Action, AlohaRole, ContractViolation, Delay, ModelAwareRole,
                   NodeId, NodeSpec, Scenario, TdmaRole, TdmaSchedule,
                   ValidationError, delay_from_distance, validate_scenario)
from .oracle import (Branch, OracleResult, expected_mixed_throughput,
                     expected_slot_throughput, optimal_aloha, optimal_mixed,
                     optimal_tdma_only, prob_all_silent,
                     success_prob_exactly_one)
from .policies import (ModelAwarePolicy, build_model_aware_policy,
                       compute_forbidden_send_slots)
from .engine import SimReport, SweepPoint, default_tolerance, node_rng, run, sweep
from .bruteforce import (ActionSequence, Certificate, HorizonLimitError,
                         certify_policy, enumerate_optimal,
                         exact_expected_throughput, policy_sequence)

__all__ = [
    "Action", "AlohaRole", "ActionSequence", "Branch", "Certificate",
    "ContractViolation", "Delay", "HorizonLimitError", "ModelAwarePolicy",
    "ModelAwareRole", "NodeId", "NodeSpec", "OracleResult", "Scenario",
    "SimReport", "SweepPoint", "TdmaRole", "TdmaSchedule", "ValidationError",
    "build_model_aware_policy", "certify_policy",
    "compute_forbidden_send_slots", "default_tolerance", "delay_from_distance",
    "enumerate_optimal", "exact_expected_throughput",
    "expected_mixed_throughput", "expected_slot_throughput", "node_rng",
    "optimal_aloha", "optimal_mixed", "optimal_tdma_only", "policy_sequence",
    "prob_all_silent", "run", "success_prob_exactly_one", "sweep",
    "validate_scenario",
]

__version__ = "0.1.0"
