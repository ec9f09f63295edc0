"""Command-line interface: run any paper experiment from the shell.

Usage examples::

    python -m repro table2 --combo Logistic/MNIST --iterations 300
    python -m repro run --algorithm HierAdMo --model cnn --iterations 200
    python -m repro noniid --levels 3 6 9
    python -m repro adaptive --gamma 0.6
    python -m repro timing --target 0.9
    python -m repro trace --algorithm HierAdMo --iterations 60
    python -m repro faults --algorithm HierAdMo --worker-dropout 0.1
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.algorithms import ALGORITHM_REGISTRY
from repro.experiments import (
    ExperimentConfig,
    best_fixed_gamma,
    format_results_table,
    run_adaptive_comparison,
    run_noniid_sweep,
    run_single,
    run_table2_column,
    run_time_to_accuracy,
)
from repro.experiments.table2 import TABLE2_COMBOS
from repro.faults import DEGRADATION_POLICIES, FaultPlan
from repro.metrics import save_history
from repro.telemetry import format_fault_summary

__all__ = ["main", "build_parser"]


def _dashboard_width(text: str) -> int:
    """``--width``: an integer the dashboard layout can fill."""
    from repro.monitoring.dashboard import MIN_WIDTH

    width = int(text)
    if width < MIN_WIDTH:
        raise argparse.ArgumentTypeError(
            f"must be >= {MIN_WIDTH}, got {width}"
        )
    return width


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="mnist")
    parser.add_argument("--model", default="logistic")
    parser.add_argument("--samples", type=int, default=1600)
    parser.add_argument("--edges", type=int, default=2)
    parser.add_argument("--workers-per-edge", type=int, default=2)
    parser.add_argument("--classes-per-worker", type=int, default=3)
    parser.add_argument("--eta", type=float, default=0.01)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--tau", type=int, default=10)
    parser.add_argument("--pi", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--population", type=int, default=0,
        help="registered virtual clients (0 = classic materialized "
             "federation); split evenly over the edges",
    )
    parser.add_argument(
        "--cohort-per-edge", type=int, default=0,
        help="materialized cohort slots per edge (default: "
             "--workers-per-edge)",
    )
    parser.add_argument(
        "--samples-per-client", type=int, default=64,
        help="synthetic shard size per virtual client",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=args.dataset,
        model=args.model,
        num_samples=args.samples,
        num_edges=args.edges,
        workers_per_edge=args.workers_per_edge,
        classes_per_worker=args.classes_per_worker,
        eta=args.eta,
        gamma=args.gamma,
        tau=args.tau,
        pi=args.pi,
        total_iterations=args.iterations,
        seed=args.seed,
        population=args.population,
        cohort_per_edge=args.cohort_per_edge,
        samples_per_client=args.samples_per_client,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HierAdMo reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="train one algorithm")
    run_parser.add_argument(
        "--algorithm", default="HierAdMo", choices=sorted(ALGORITHM_REGISTRY)
    )
    run_parser.add_argument("--save", help="write the history JSON here")
    run_parser.add_argument(
        "--monitor", metavar="PATH",
        help="stream run events to this JSONL file (watch it live with "
             "'repro monitor PATH') and run the default health monitors",
    )
    run_parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write durable training checkpoints into this directory",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=10, metavar="N",
        help="iterations between periodic checkpoints (default 10)",
    )
    run_parser.add_argument(
        "--resume", action="store_true",
        help="continue from the newest loadable checkpoint in "
             "--checkpoint-dir (bit-exact with an uninterrupted run); "
             "starts fresh when the directory holds none",
    )
    _add_config_arguments(run_parser)

    monitor_parser = sub.add_parser(
        "monitor", help="dashboard over a streaming run-event JSONL"
    )
    monitor_parser.add_argument(
        "stream", help="event JSONL written by 'repro run --monitor' or a "
                       "JSONLStreamSink",
    )
    monitor_parser.add_argument(
        "--once", action="store_true",
        help="render one dashboard frame and exit (default: follow the "
             "stream until its run_end record)",
    )
    monitor_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds when following",
    )
    monitor_parser.add_argument(
        "--width", type=_dashboard_width, default=64,
        help="dashboard width in columns",
    )

    table_parser = sub.add_parser("table2", help="one Table II column")
    table_parser.add_argument(
        "--combo", default="Logistic/MNIST", choices=sorted(TABLE2_COMBOS)
    )
    _add_config_arguments(table_parser)

    noniid_parser = sub.add_parser("noniid", help="Fig 2(e-g) sweep")
    noniid_parser.add_argument(
        "--levels", type=int, nargs="+", default=[3, 6, 9]
    )
    _add_config_arguments(noniid_parser)

    adaptive_parser = sub.add_parser("adaptive", help="Fig 2(i-k) panel")
    _add_config_arguments(adaptive_parser)

    timing_parser = sub.add_parser("timing", help="Fig 2(h/l) replay")
    timing_parser.add_argument("--target", type=float, default=0.9)
    _add_config_arguments(timing_parser)

    trace_parser = sub.add_parser(
        "trace", help="run one algorithm with tracing, print the profile"
    )
    trace_parser.add_argument(
        "--algorithm", default="HierAdMo", choices=sorted(ALGORITHM_REGISTRY)
    )
    trace_parser.add_argument(
        "--top", type=int, default=5, help="slowest spans to show"
    )
    trace_parser.add_argument(
        "--save-trace", help="write the full JSONL trace here"
    )
    _add_config_arguments(trace_parser)

    faults_parser = sub.add_parser(
        "faults", help="train under a fault plan, summarize survival"
    )
    faults_parser.add_argument(
        "--algorithm", default="HierAdMo", choices=sorted(ALGORITHM_REGISTRY)
    )
    faults_parser.add_argument("--worker-dropout", type=float, default=0.0)
    faults_parser.add_argument("--edge-outage", type=float, default=0.0)
    faults_parser.add_argument("--msg-loss", type=float, default=0.0)
    faults_parser.add_argument("--msg-dup", type=float, default=0.0)
    faults_parser.add_argument("--msg-stale", type=float, default=0.0)
    faults_parser.add_argument("--stale-intervals", type=int, default=1)
    faults_parser.add_argument("--max-retries", type=int, default=3)
    faults_parser.add_argument("--plan-seed", type=int, default=0)
    faults_parser.add_argument(
        "--policy", default="renormalize", choices=sorted(DEGRADATION_POLICIES)
    )
    _add_config_arguments(faults_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="grid sweep, e.g. --grid eta=0.01,0.05 tau=5,10"
    )
    sweep_parser.add_argument(
        "--algorithms", nargs="+", default=["HierAdMo", "FedAvg"]
    )
    sweep_parser.add_argument(
        "--grid", nargs="+", required=True,
        help="field=v1,v2 pairs over ExperimentConfig fields",
    )
    _add_config_arguments(sweep_parser)

    report_parser = sub.add_parser(
        "report", help="run a reproduction report (markdown)"
    )
    report_parser.add_argument("--scale", default="quick",
                               choices=["quick", "full"])
    report_parser.add_argument("--out", help="write the report here")
    report_parser.add_argument(
        "--sections", nargs="+",
        default=["table2", "noniid", "adaptive", "timing", "theory"],
    )

    sub.add_parser("list", help="list algorithms and Table II combos")
    return parser


def _monitor_command(args: argparse.Namespace) -> int:
    """Render (once) or follow a streaming run-event JSONL."""
    import time
    from pathlib import Path

    from repro.monitoring import load_events_jsonl, render_dashboard

    path = Path(args.stream)
    if args.once:
        if not path.exists():
            raise SystemExit(f"no event stream at {path}")
        print(render_dashboard(load_events_jsonl(path), width=args.width),
              end="")
        return 0
    try:
        while True:
            if path.exists():
                events = load_events_jsonl(path)
                frame = render_dashboard(events, width=args.width)
                # ANSI clear + home, so the dashboard refreshes in place.
                print("\x1b[2J\x1b[H" + frame, end="", flush=True)
                if any(event.kind == "run_end" for event in events):
                    return 0
            else:
                print(f"waiting for {path} ...", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "monitor":
        return _monitor_command(args)

    if args.command == "list":
        print("algorithms: " + ", ".join(sorted(ALGORITHM_REGISTRY)))
        print("table2 combos: " + ", ".join(sorted(TABLE2_COMBOS)))
        return 0

    if args.command == "sweep":
        from repro.experiments.grid import format_grid, run_grid

        config = _config_from_args(args)
        grid: dict[str, list] = {}
        for pair in args.grid:
            if "=" not in pair:
                raise SystemExit(f"bad --grid entry {pair!r}: want field=v1,v2")
            field, raw = pair.split("=", 1)
            values: list = []
            for token in raw.split(","):
                try:
                    values.append(int(token))
                except ValueError:
                    try:
                        values.append(float(token))
                    except ValueError:
                        values.append(token)
            grid[field] = values
        results = run_grid(
            tuple(args.algorithms), grid, base_config=config
        )
        print(format_grid(results))
        return 0

    if args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(
            args.out, scale=args.scale, sections=tuple(args.sections)
        )
        print(text)
        return 0

    config = _config_from_args(args)

    if args.command == "run":
        if args.resume and not args.checkpoint_dir:
            raise SystemExit("--resume requires --checkpoint-dir")
        checkpoint_kwargs = dict(
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        if args.monitor:
            from repro.monitoring import (
                JSONLStreamSink,
                default_monitors,
                monitoring,
            )

            with monitoring(
                sinks=[JSONLStreamSink(args.monitor)],
                monitors=default_monitors(),
            ):
                history = run_single(
                    args.algorithm, config, **checkpoint_kwargs
                )
            print(f"events streamed to {args.monitor}")
        else:
            history = run_single(args.algorithm, config, **checkpoint_kwargs)
        for t, accuracy in zip(history.iterations, history.test_accuracy):
            print(f"iteration {t:6d}: accuracy {accuracy:.4f}")
        print(f"final accuracy: {history.final_accuracy:.4f}")
        if history.aborted_by:
            print(f"run aborted by monitor: {history.aborted_by}")
        for alert in history.alerts:
            print(f"alert [{alert['monitor']}] iteration "
                  f"{alert['iteration']}: {alert['message']}")
        if args.save:
            save_history(history, args.save)
            print(f"history written to {args.save}")
        return 0

    if args.command == "table2":
        column = run_table2_column(args.combo, base_config=config)
        print(format_results_table(
            {name: {args.combo: acc} for name, acc in column.items()},
            value_format="{:.4f}",
            title=f"Table II column: {args.combo}",
        ))
        return 0

    if args.command == "noniid":
        sweep = run_noniid_sweep(
            tuple(args.levels), base_config=config
        )
        table = {
            name: {
                f"x={x}": sweep[x][name].final_accuracy
                for x in sorted(sweep)
            }
            for name in next(iter(sweep.values()))
        }
        print(format_results_table(
            table, value_format="{:.3f}",
            title="Fig 2(e-g): accuracy vs non-iid level",
        ))
        return 0

    if args.command == "adaptive":
        results = run_adaptive_comparison(args.gamma, base_config=config)
        best, best_accuracy = best_fixed_gamma(results)
        print(json.dumps(results, indent=2))
        print(f"best fixed gamma_l: {best} at {best_accuracy:.4f}")
        return 0

    if args.command == "trace":
        from repro import telemetry
        from repro.metrics import save_trace_jsonl
        from repro.telemetry import format_trace_report

        with telemetry.tracing() as tracer:
            history = run_single(args.algorithm, config)
        print(f"{args.algorithm}: final accuracy "
              f"{history.final_accuracy:.4f} over "
              f"{config.total_iterations} iterations")
        print()
        print(format_trace_report(tracer, history, top=args.top))
        if args.save_trace:
            save_trace_jsonl(tracer, args.save_trace)
            print(f"trace written to {args.save_trace}")
        return 0

    if args.command == "faults":
        plan = FaultPlan(
            seed=args.plan_seed,
            worker_dropout=args.worker_dropout,
            edge_outage=args.edge_outage,
            msg_loss=args.msg_loss,
            msg_duplication=args.msg_dup,
            msg_staleness=args.msg_stale,
            staleness_intervals=args.stale_intervals,
            max_retries=args.max_retries,
        )
        history = run_single(
            args.algorithm, config,
            fault_plan=plan, degradation=args.policy,
        )
        print(f"{args.algorithm}: final accuracy "
              f"{history.final_accuracy:.4f} under policy {args.policy}")
        print(format_fault_summary(history.fault_summary or {}))
        return 0

    if args.command == "timing":
        results = run_time_to_accuracy(
            ("HierAdMo", "HierAdMo-R", "HierFAVG", "FedNAG", "FedAvg"),
            target=args.target,
            base_config=config.with_overrides(eval_every=10),
        )
        for name, result in results.items():
            if result.seconds is None:
                print(f"{name:<12} never reached {args.target}")
            else:
                print(f"{name:<12} {result.seconds:9.1f}s "
                      f"(iteration {result.iteration})")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
