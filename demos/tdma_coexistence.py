"""A model-aware node sharing the channel with a TDMA node.

The TDMA node sends in slot 0 of every 5-slot frame and sits 4 slots away
from the AP, so its packets land in AP slots 4, 9, 14, ... The model-aware
node is only 1 slot away: if it sent in slot t+3 its packet would collide
with the TDMA arrival, so those send slots are forbidden and it transmits in
every other slot. Every AP slot then carries exactly one packet and the
network saturates at throughput 1.
"""
from uwmac import (Delay, ModelAwareRole, NodeSpec, Scenario, TdmaRole,
                   TdmaSchedule, build_model_aware_policy, run)

scenario = Scenario(
    nodes=(
        NodeSpec(0, Delay(1), ModelAwareRole()),
        NodeSpec(1, Delay(4), TdmaRole(TdmaSchedule(5, frozenset({0})))),
    ),
    horizon=10_000,
    seed=1,
)

policy = build_model_aware_policy(scenario)
forbidden = policy.forbidden_send_slots[:6].tolist()
print(f"first forbidden send slots: {forbidden} (then every 5th)")
print(f"default action elsewhere:   {policy.default_action.value} (z = {policy.z_value})")

report = run(scenario)
print(f"\nmeasured slots:      {report.measured_slots}")
print(f"empirical throughput: {report.empirical_throughput}")
print(f"oracle optimal:       {report.oracle.optimal_throughput} "
      f"({report.oracle.chosen_branch.value} branch)")
print(f"collisions:           {report.collisions}  idle: {report.idle}")
