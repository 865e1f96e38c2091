#!/usr/bin/env python3
"""Tuning on a realistic (oversubscribed) GPU cluster.

Enables the cluster features the basic experiments keep fixed:

- a two-tier topology with 4:1 uplink oversubscription (cross-rack traffic
  is expensive, so PS placement matters more);
- GPU nodes, measured by the discrete-event simulator, tuned for
  time-to-accuracy.

Compare how much of the default-config gap the tuner closes per probe.

Run:  python examples/extended_space.py
"""

from repro import MLConfigTuner, TuningBudget
from repro.baselines import default_strategy
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.harness import render_table
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


def main() -> None:
    nodes = 16
    workload = get_workload("transformer-wiki")
    cluster = homogeneous(
        nodes,
        "gpu-v100",
        rack_size=4,
        oversubscription=4.0,
    )
    space = ml_config_space(nodes)
    print(
        f"Tuning {workload.name} on {nodes}x gpu-v100 "
        f"(racks of 4, 4:1 oversubscribed), {len(space)} knobs, "
        f"{space.cardinality():.2e} combinations\n"
    )

    env = TrainingEnvironment(
        workload, cluster, seed=0, objective_name="tta", fidelity="event",
        probe_iterations=12,
    )
    tuner = MLConfigTuner(seed=0)
    result = tuner.run(env, space, TuningBudget(max_trials=25), seed=0)

    default = default_strategy().run(
        TrainingEnvironment(workload, cluster, seed=0, objective_name="tta",
                            fidelity="event", probe_iterations=12),
        space,
        TuningBudget(max_trials=1),
    )

    tuned_tta = -result.best_objective / 3600
    default_tta = -default.best_objective / 3600
    print(render_table(
        ["configuration", "TTA (hours)", "speedup"],
        [
            ["default", default_tta, 1.0],
            ["tuned (25 event-fidelity probes)", tuned_tta, default_tta / tuned_tta],
        ],
    ))
    print("\nTuned configuration:")
    for knob, value in sorted(result.best_config.items()):
        print(f"  {knob:>20} = {value}")
    print(f"\nProbing cost: {result.total_cost_s / 3600:.2f} simulated machine-hours; "
          f"{tuner.probes_terminated_early} probes terminated early.")


if __name__ == "__main__":
    main()
