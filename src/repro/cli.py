"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-workloads``
    Print the workload suite with its tuning fingerprints (table T2).
``describe-space --nodes N``
    Print the configuration space for an N-node cluster (table T1).
``tune --workload W --nodes N --trials T [...]``
    Run the BO tuner (or a baseline) on a simulated cluster and print the
    best configuration found.
``serve --workloads W1,W2 [...]``
    Run one tenant tuning session per workload, multiplexed over a shared
    simulated fleet, with optional persistent warm-start history.
``experiment --id T3 [...]``
    Regenerate one of the evaluation tables/figures by id.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.baselines import (
    CherryPick,
    CoordinateDescent,
    GridSearch,
    HillClimbing,
    RandomSearch,
    SimulatedAnnealing,
    SuccessiveHalving,
    TPE,
)
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import EXECUTOR_MODES, MLConfigTuner, SCHEDULERS, TuningBudget
from repro.mlsim import TrainingEnvironment
from repro.workloads import SUITE, get_workload

STRATEGIES = {
    "bo": lambda seed: MLConfigTuner(seed=seed),
    "cherrypick": lambda seed: CherryPick(seed=seed),
    "random": lambda seed: RandomSearch(),
    "grid": lambda seed: GridSearch(seed=seed),
    "hill": lambda seed: HillClimbing(seed=seed),
    "annealing": lambda seed: SimulatedAnnealing(seed=seed),
    "coordinate": lambda seed: CoordinateDescent(seed=seed),
    "halving": lambda seed: SuccessiveHalving(seed=seed),
    "tpe": lambda seed: TPE(seed=seed),
}


def _parent_dir_ok(path: str, flag: str) -> bool:
    """Exit-2-style validation shared by every path-taking flag.

    True when ``path``'s parent directory exists; otherwise prints the
    standard error line (naming the flag) to stderr and returns False —
    the caller returns exit code 2.
    """
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        print(f"{flag}: directory {directory!r} does not exist", file=sys.stderr)
        return False
    return True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BO-based configuration tuning for distributed ML (simulated).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="print the workload suite")

    describe = sub.add_parser("describe-space", help="print the configuration space")
    describe.add_argument("--nodes", type=int, default=16)

    tune = sub.add_parser("tune", help="tune one workload on a simulated cluster")
    tune.add_argument("--workload", default="resnet50-imagenet", choices=sorted(SUITE))
    tune.add_argument("--nodes", type=int, default=16)
    tune.add_argument("--trials", type=int, default=30)
    tune.add_argument("--strategy", default="bo", choices=sorted(STRATEGIES))
    tune.add_argument("--objective", default="throughput", choices=["throughput", "tta"])
    tune.add_argument("--fidelity", default="analytic", choices=["analytic", "event"])
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--straggler-fraction", type=float, default=0.0,
        help="fraction of nodes that are persistent stragglers",
    )
    tune.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="probability in [0, 1) that any probe dies to a transient "
        "failure (billed partial cost, recorded as a failed trial)",
    )
    tune.add_argument(
        "--drift", default=None, metavar="SPEC",
        help="non-stationary environment schedule: semicolon-separated "
        "KIND:key=val,... terms with kinds step/ramp/periodic/stragglers, "
        "e.g. 'stragglers:at=3600,fraction=0.25,slowdown=2.5;"
        "step:at=3600,intensity=1.2'",
    )
    tune.add_argument(
        "--outage", default=None, metavar="SPEC",
        help="scheduled shard outages (requires --shards/--shard-spec): "
        "semicolon-separated SHARD:START-END[,START-END...] windows in "
        "simulated seconds, e.g. 'shard0:3600-5400;shard1:7200-7500'",
    )
    tune.add_argument(
        "--detect-drift", action="store_true",
        help="attach the online change-point detector (Page-Hinkley over "
        "surrogate residuals) and re-tune on alarms",
    )
    tune.add_argument(
        "--retune-mode", default="discount", choices=["evict", "discount", "off"],
        help="what --detect-drift alarms do to pre-change history: drop it "
        "from the surrogate ('evict'), keep it noise-inflated "
        "('discount'), or record events only ('off')",
    )
    tune.add_argument(
        "--workers", type=int, default=1,
        help="configurations probed concurrently (1 = serial probing)",
    )
    tune.add_argument(
        "--sparse-threshold", type=int, default=None, metavar="N",
        help="history size at which GP surrogates switch to the "
        "inducing-point sparse tier (0 = never switch; default: the "
        "strategy's own threshold, 512; BO-family strategies only)",
    )
    tune.add_argument(
        "--max-inducing", type=int, default=None, metavar="M",
        help="inducing-point cap for the sparse surrogate tier (default: "
        "the strategy's own cap, 256; BO-family strategies only)",
    )
    tune.add_argument(
        "--executor", default="sync", choices=list(EXECUTOR_MODES),
        help="multi-worker execution: 'sync' round barriers or 'async' "
        "barrier-free (each worker pulls a new proposal when it frees up)",
    )
    tune.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="fan the session across N homogeneous environment shards "
        "(replicas of the --nodes cluster, one probe slot each)",
    )
    tune.add_argument(
        "--shard-spec", default=None, metavar="SPEC",
        help="heterogeneous fleet: comma-separated shards, each "
        "NODE_TYPE:NODES[xCAPACITY][@COST_MULT], e.g. "
        "'std-cpu:16,std-cpu:16x2@1.5,gpu-v100:8@0.5' (overrides --shards)",
    )
    tune.add_argument(
        "--scheduler", default="roundrobin", choices=sorted(SCHEDULERS),
        help="shard placement policy for --shards/--shard-spec fleets",
    )
    tune.add_argument(
        "--max-wall-hours", type=float, default=None, metavar="H",
        help="additionally cap the session's simulated wall-clock at H hours",
    )
    tune.add_argument(
        "--trial-log", default=None, metavar="PATH",
        help="write the session record to PATH as JSON lines: a header, one "
        "trial record per trial (the checkpoint WAL's, without its audit "
        "state) and an end record; TrialHistory.from_payload reads it back",
    )
    tune.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint the session to PATH.wal, a write-ahead log of every "
        "probe and trial that ends with the session's end record, so a "
        "crashed run can be resumed bit-identically with --resume",
    )
    tune.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="carry the strategy's audit state on every N-th trial record "
        "of the WAL (how stale the inspectable audit state may be; never "
        "affects resume; default 1)",
    )
    tune.add_argument(
        "--resume", action="store_true",
        help="resume the session from --checkpoint instead of starting "
        "fresh (budget and seed come from the checkpoint; pass the same "
        "workload/fleet flags as the original run)",
    )

    serve = sub.add_parser(
        "serve", help="run a multi-tenant tuning service over one shared fleet"
    )
    serve.add_argument(
        "--workloads", default="resnet50-imagenet,vgg16-imagenet", metavar="W1,W2,...",
        help="comma-separated workload names, one tenant session per entry "
        "(repeats allowed)",
    )
    serve.add_argument("--nodes", type=int, default=16)
    serve.add_argument("--trials", type=int, default=20,
                       help="max trials per tenant session")
    serve.add_argument("--strategy", default="bo", choices=sorted(STRATEGIES))
    serve.add_argument(
        "--slots", type=int, default=1,
        help="guaranteed probe slots per tenant (admission reserves them)",
    )
    serve.add_argument(
        "--max-slots", type=int, default=None, metavar="N",
        help="elastic per-tenant ceiling for idle-slot reclaim "
        "(default: pinned at --slots)",
    )
    serve.add_argument(
        "--fleet", default="1.0,1.25,0.8,1.5", metavar="M1,M2,...",
        help="fleet shape: comma-separated probe-duration multipliers, one "
        "single-slot shard each",
    )
    serve.add_argument(
        "--history", default=None, metavar="PATH",
        help="persistent history repository (JSONL); completed sessions are "
        "recorded and new tenants warm-start from their nearest prior workload",
    )
    serve.add_argument(
        "--no-warm-start", action="store_true",
        help="keep recording to --history but start every tenant cold",
    )
    serve.add_argument(
        "--failure-rate", type=float, default=0.0, metavar="P",
        help="transient probe-failure probability in [0, 1) applied to "
        "every tenant environment",
    )
    serve.add_argument(
        "--detect-drift", action="store_true",
        help="attach a per-tenant change-point detector that re-tunes on "
        "alarms",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None, metavar="PATH",
        help="checkpoint every tenant session to PATH/<tenant>.ckpt.wal and "
        "restart crashed tenants from their last checkpoint",
    )
    serve.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment", help="regenerate an evaluation artefact")
    experiment.add_argument("--id", required=True, help="experiment id, e.g. T3 or F2")
    return parser


def _cmd_list_workloads() -> int:
    from repro.harness.experiments import exp_t2_workloads

    print(exp_t2_workloads().render())
    return 0


def _cmd_describe_space(nodes: int) -> int:
    from repro.harness.experiments import exp_t1_config_space

    print(exp_t1_config_space(nodes=nodes).render())
    return 0


def _env_extras(args) -> dict:
    """Drift/failure environment kwargs shared by every construction path."""
    from repro.mlsim import parse_drift_spec

    extras: dict = {}
    if args.failure_rate:
        extras["transient_failure_rate"] = args.failure_rate
    if args.drift:
        extras["drift"] = parse_drift_spec(args.drift)
    return extras


def _build_injector(args):
    """The FailureInjector for --outage, or None."""
    from repro.core.fleet import FailureInjector, parse_outage_spec

    if not args.outage:
        return None
    return FailureInjector(outages=parse_outage_spec(args.outage))


def _build_pool(args, workload, extras):
    """The EnvironmentPool for --shards / --shard-spec, or None."""
    from repro.core.fleet import (
        EnvironmentPool,
        EnvironmentShard,
        make_scheduler,
        parse_shard_spec,
    )

    env_args = dict(fidelity=args.fidelity, objective_name=args.objective, **extras)
    injector = _build_injector(args)
    if args.shard_spec:
        recipes = parse_shard_spec(args.shard_spec)
        shards = []
        for i, recipe in enumerate(recipes):
            cluster = homogeneous(
                recipe["nodes"],
                spec=recipe["node_type"],
                straggler_fraction=args.straggler_fraction,
            )
            shards.append(
                EnvironmentShard(
                    f"shard{i}-{recipe['node_type']}",
                    TrainingEnvironment(
                        workload, cluster, seed=args.seed + i, **env_args
                    ),
                    capacity=recipe["capacity"],
                    cost_multiplier=recipe["cost_multiplier"],
                )
            )
        return EnvironmentPool(
            shards, scheduler=make_scheduler(args.scheduler), injector=injector
        )
    if args.shards:
        cluster = homogeneous(
            args.nodes, straggler_fraction=args.straggler_fraction
        )
        shards = [
            EnvironmentShard(
                f"shard{i}",
                TrainingEnvironment(workload, cluster, seed=args.seed + i, **env_args),
            )
            for i in range(args.shards)
        ]
        return EnvironmentPool(
            shards, scheduler=make_scheduler(args.scheduler), injector=injector
        )
    return None


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core import Checkpoint, CheckpointConfig, CheckpointError
    from repro.core.session import JsonlTrialLog, TuningSession, executor_for

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.sparse_threshold not in (None, 0) and args.sparse_threshold < 4:
        print("--sparse-threshold must be 0 (off) or >= 4", file=sys.stderr)
        return 2
    if not 0.0 <= args.straggler_fraction <= 1.0:
        print("--straggler-fraction must be in [0, 1]", file=sys.stderr)
        return 2
    if args.max_inducing is not None and args.max_inducing < 4:
        print("--max-inducing must be >= 4", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if args.max_wall_hours is not None and not (
        math.isfinite(args.max_wall_hours) and args.max_wall_hours > 0
    ):
        print("--max-wall-hours must be positive and finite", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.trial_log and not _parent_dir_ok(args.trial_log, "--trial-log"):
        return 2
    if args.checkpoint_every < 1:
        print("--checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.checkpoint:
        if not _parent_dir_ok(args.checkpoint, "--checkpoint"):
            return 2
        if args.resume and not os.path.exists(args.checkpoint + ".wal"):
            print(
                f"--resume: no write-ahead log at {args.checkpoint + '.wal'!r} "
                f"— nothing to resume",
                file=sys.stderr,
            )
            return 2
    if not 0.0 <= args.failure_rate < 1.0:
        print("--failure-rate must be in [0, 1)", file=sys.stderr)
        return 2
    if args.outage and not (args.shards or args.shard_spec):
        print("--outage requires a fleet (--shards or --shard-spec)", file=sys.stderr)
        return 2
    try:
        extras = _env_extras(args)
    except ValueError as exc:
        print(f"--drift: {exc}", file=sys.stderr)
        return 2
    workload = get_workload(args.workload)
    try:
        pool = _build_pool(args, workload, extras)
    except (ValueError, KeyError) as exc:
        print(f"--shards/--shard-spec/--outage: {exc}", file=sys.stderr)
        return 2
    space = ml_config_space(args.nodes)
    strategy = STRATEGIES[args.strategy](args.seed)
    if args.sparse_threshold is not None or args.max_inducing is not None:
        if hasattr(strategy, "sparse_threshold"):
            if args.sparse_threshold is not None:
                # 0 disables the sparse tier outright (maps to None).
                strategy.sparse_threshold = (
                    args.sparse_threshold if args.sparse_threshold > 0 else None
                )
            if args.max_inducing is not None:
                strategy.max_inducing = args.max_inducing
        else:
            print(
                f"note: --sparse-threshold/--max-inducing only apply to "
                f"GP-based strategies; {args.strategy!r} has no surrogate",
                file=sys.stderr,
            )
    if pool is not None:
        # A fleet always fans out over the pool's slots; the session probes
        # the shards concurrently in the chosen executor mode.  Note the
        # configuration space still spans --nodes: a config too large for a
        # smaller --shard-spec shard fails there, exactly as on real
        # mismatched hardware.
        if args.workers > 1:
            print(
                f"note: fleet concurrency comes from the pool's "
                f"{pool.total_capacity} shard slot(s); --workers "
                f"{args.workers} is ignored (size shard capacities instead)",
                file=sys.stderr,
            )
        env = None
        executor = executor_for(
            pool.total_capacity, mode=args.executor, pool=pool
        )
    else:
        cluster = homogeneous(
            args.nodes, straggler_fraction=args.straggler_fraction
        )
        env = TrainingEnvironment(
            workload,
            cluster,
            seed=args.seed,
            fidelity=args.fidelity,
            objective_name=args.objective,
            **extras,
        )
        executor = executor_for(args.workers, mode=args.executor)
    callbacks = [JsonlTrialLog(args.trial_log)] if args.trial_log else []
    detector = None
    if args.detect_drift:
        from repro.core.detect import ChangePointDetector, RetuningPolicy

        detector = ChangePointDetector(policy=RetuningPolicy(mode=args.retune_mode))
        callbacks.append(detector)
    max_wall_s = (
        args.max_wall_hours * 3600.0 if args.max_wall_hours is not None else None
    )
    budget = TuningBudget(max_trials=args.trials, max_wall_clock_s=max_wall_s)
    checkpoint = (
        CheckpointConfig(args.checkpoint, every_n_trials=args.checkpoint_every)
        if args.checkpoint
        else None
    )
    session = TuningSession(strategy, executor=executor, callbacks=callbacks)
    try:
        if args.resume:
            # The env/fleet is rebuilt from the CLI flags, so the seed must
            # match the original run or the post-replay noise stream
            # diverges silently — reject a mismatch up front, from the
            # header alone (the resume parses the whole WAL).
            recorded_seed = Checkpoint.read_meta(args.checkpoint).get("seed")
            if recorded_seed is not None and recorded_seed != args.seed:
                print(
                    f"--resume: checkpoint was written with --seed "
                    f"{recorded_seed}; pass the same seed",
                    file=sys.stderr,
                )
                return 2
            result = session.resume(checkpoint, env, space)
        else:
            result = session.run(
                env, space, budget, seed=args.seed, checkpoint=checkpoint
            )
    except CheckpointError as exc:
        print(f"--checkpoint: {exc}", file=sys.stderr)
        return 2
    if result.best_trial is None:
        print("every probe failed — nothing to report", file=sys.stderr)
        return 1
    print(f"strategy : {result.strategy}")
    print(f"workload : {workload.name}  ({args.nodes} nodes, {args.fidelity} fidelity)")
    if args.objective == "throughput":
        print(f"best     : {result.best_objective:.1f} samples/s")
    else:
        print(f"best     : {-result.best_objective / 3600:.2f} hours to target accuracy")
    print(f"trials   : {result.num_trials} "
          f"({result.total_cost_s / 3600:.2f} simulated machine-hours probing)")
    slots = executor.workers
    mode = "serial" if slots == 1 else args.executor
    shape = (
        "barrier-free" if mode == "async"
        else f"{result.history.num_rounds} rounds"
    )
    print(f"wall     : {result.total_wall_clock_s / 3600:.2f} simulated hours "
          f"({slots} worker{'s' if slots != 1 else ''}, "
          f"{mode}, {shape})")
    if pool is not None:
        print(f"fleet    : {len(pool.shards)} shards "
              f"({pool.total_capacity} slots, {args.scheduler} scheduler)")
        cost_by_shard = result.history.cost_by_shard()
        for shard in pool.shards:
            cost_h = cost_by_shard.get(shard.name, 0.0) / 3600.0
            probes = sum(1 for t in result.history if t.shard == shard.name)
            print(f"  {shard.name:>20} : {probes:3d} probes, "
                  f"{cost_h:.2f} machine-hours "
                  f"(x{shard.cost_multiplier:g} probe duration, "
                  f"{shard.capacity} slot{'s' if shard.capacity != 1 else ''})")
    if detector is not None:
        if detector.events:
            for event in detector.events:
                print(f"drift    : {event.direction} detected after trial "
                      f"{event.trial_index} "
                      f"(wall {event.wall_clock_s / 3600:.2f} h, "
                      f"stat {event.statistic:.1f} > {event.threshold:.1f}); "
                      f"re-tune mode {args.retune_mode}")
        else:
            print("drift    : no change-points detected")
    if args.trial_log:
        print(f"trial log: {args.trial_log}")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint} "
              f"({'resumed' if args.resume else 'written'}, "
              f"audit state every {args.checkpoint_every} trial"
              f"{'s' if args.checkpoint_every != 1 else ''})")
    print("configuration:")
    for knob, value in sorted(result.best_config.items()):
        print(f"  {knob:>20} = {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.service import (
        AdmissionError,
        TenantSpec,
        TuningService,
        training_shard_templates,
    )
    from repro.core.transfer import HistoryRepository

    if args.trials < 1:
        print("--trials must be >= 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    if args.slots < 1:
        print("--slots must be >= 1", file=sys.stderr)
        return 2
    if args.max_slots is not None and args.max_slots < args.slots:
        print("--max-slots must be >= --slots", file=sys.stderr)
        return 2
    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    if not names:
        print("--workloads must name at least one workload", file=sys.stderr)
        return 2
    unknown = sorted(set(names) - set(SUITE))
    if unknown:
        print(
            f"--workloads: unknown {unknown}; available: {sorted(SUITE)}",
            file=sys.stderr,
        )
        return 2
    try:
        multipliers = [float(part) for part in args.fleet.split(",") if part.strip()]
    except ValueError:
        print(f"--fleet: not a comma-separated float list: {args.fleet!r}",
              file=sys.stderr)
        return 2
    if not multipliers or not all(math.isfinite(m) and m > 0 for m in multipliers):
        print("--fleet multipliers must be positive and finite", file=sys.stderr)
        return 2
    if args.history and not _parent_dir_ok(args.history, "--history"):
        return 2
    if args.checkpoint_dir:
        if not _parent_dir_ok(args.checkpoint_dir, "--checkpoint-dir"):
            return 2
        os.makedirs(args.checkpoint_dir, exist_ok=True)

    if not 0.0 <= args.failure_rate < 1.0:
        print("--failure-rate must be in [0, 1)", file=sys.stderr)
        return 2

    repository = HistoryRepository(args.history) if args.history else None
    service = TuningService(
        training_shard_templates(
            nodes=args.nodes,
            cost_multipliers=multipliers,
            transient_failure_rate=args.failure_rate,
        ),
        ml_config_space(args.nodes),
        repository=repository,
        warm_start=not args.no_warm_start,
        checkpoint_dir=args.checkpoint_dir,
    )
    detector_factory = None
    if args.detect_drift:
        from repro.core.detect import ChangePointDetector

        detector_factory = ChangePointDetector
    try:
        for index, name in enumerate(names):
            seed = args.seed + index
            service.submit(
                TenantSpec(
                    name=f"tenant{index}-{name}",
                    strategy_factory=(
                        lambda seed=seed: STRATEGIES[args.strategy](seed)
                    ),
                    budget=TuningBudget(max_trials=args.trials),
                    seed=seed,
                    slots=args.slots,
                    max_slots=args.max_slots,
                    workload=get_workload(name),
                    detector_factory=detector_factory,
                )
            )
    except AdmissionError as exc:
        print(f"admission: {exc}", file=sys.stderr)
        return 2
    result = service.run()

    print(f"fleet    : {len(multipliers)} shards ({service.total_capacity} slots), "
          f"{args.nodes} nodes each")
    if repository is not None:
        print(f"history  : {args.history} ({len(repository)} stored sessions)")
    if args.checkpoint_dir:
        print(f"checkpoints: {args.checkpoint_dir}")
    for handle in result.tenants:
        spec = handle.spec
        if handle.state == "failed":
            print(f"  {spec.name:>28} : FAILED ({handle.error})")
            continue
        tenant_result = handle.result
        start = ("warm from " + handle.mapped_from) if handle.warm else "cold start"
        if handle.recoveries:
            start += f", recovered x{handle.recoveries}"
        best = (
            f"{tenant_result.best_objective:.1f} samples/s"
            if tenant_result.best_trial is not None
            else "all probes failed"
        )
        print(f"  {spec.name:>28} : {best}, "
              f"{tenant_result.num_trials} trials, "
              f"{tenant_result.total_wall_clock_s / 3600:.2f} h wall ({start})")
    print(f"makespan : {result.makespan_s / 3600:.2f} simulated hours "
          f"({result.sessions_per_hour():.2f} sessions/hour)")
    cost_by_shard = service.cost_by_shard()
    total_cost = service.total_cost_s()
    print(f"cost     : {total_cost / 3600:.2f} machine-hours across "
          f"{len(cost_by_shard)} shards")
    if result.failed:
        return 1
    return 0


def _cmd_experiment(exp_id: str) -> int:
    from repro.harness.experiments import ALL_EXPERIMENTS

    exp_id = exp_id.upper()
    if exp_id not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {exp_id!r}; available: {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 1
    result = ALL_EXPERIMENTS[exp_id]()
    tables = result if isinstance(result, list) else [result]
    for table in tables:
        print(table.render())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "nodes", 2) < 2:
        print("--nodes must be >= 2", file=sys.stderr)
        return 2
    if args.command == "list-workloads":
        return _cmd_list_workloads()
    if args.command == "describe-space":
        return _cmd_describe_space(args.nodes)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "experiment":
        return _cmd_experiment(args.id)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
