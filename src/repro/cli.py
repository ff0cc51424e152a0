"""Command-line interface: regenerate any table/figure of the paper.

Usage::

    python -m repro list                 # available experiments
    python -m repro table1               # the model inventory
    python -m repro fig6 --runs 5000     # the cost U-curve, more precision
    python -m repro all --quick          # everything, reduced replication
    python -m repro analyze model.fmt    # static analysis of a Galileo file
    python -m repro simulate model.fmt --horizon 50 --runs 2000
    python -m repro render model.fmt --dot > model.dot
    python -m repro trace model.fmt --out trace.jsonl   # JSONL event trace
    python -m repro metrics-serve metrics.json --port 9102   # /metrics
    python -m repro serve --port 8177    # the analysis HTTP service

Every command is a real argparse subcommand — ``python -m repro
simulate --help`` prints the options of *that* verb.  The historical
form with global options before the command (``python -m repro --quick
fig5``) still works but emits a :class:`DeprecationWarning`; write the
command first.

Observability flags (all verbs): ``--log-level debug|info|warning|error``
routes the library's structured logs to stderr; ``--profile`` prints a
metrics/timing report after the run; ``--metrics-out PATH`` dumps the
same registry as JSON; ``--progress`` shows a live rate/ETA/convergence
line on stderr; ``--progress-out PATH`` appends the same events as
JSONL; ``--trace-out PATH`` records the run's span tree (driver and
worker processes) as JSONL.  ``metrics-serve`` exposes a
``--metrics-out`` dump (re-read per scrape) in Prometheus text format.
See docs/observability.md.

Caching flags: every experiment obtains its simulations through a
:class:`~repro.studies.StudyRunner`, which dedupes identical studies
within one invocation.  ``--cache-dir PATH`` additionally persists the
results, so a rerun with the same configuration simulates nothing
(bit-identical output either way); ``--no-cache`` disables the disk
cache for one invocation; ``--processes N`` sizes the shared worker
pool used for large studies.  ``serve`` shares the same flags: a
service started with ``--cache-dir`` answers previously computed
studies synchronously.  See docs/api.md and docs/service.md.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.experiments import ExperimentConfig
from repro.experiments.common import timed_run
from repro.experiments.registry import experiment_ids, get_experiment, iter_experiments
from repro.observability import Instrumentation, get_logger, kv, setup_logging, use

__all__ = ["main", "build_parser"]

logger = get_logger(__name__)

#: Verbs that are not experiment ids (the registry provides those).
_VERBS = (
    "all",
    "list",
    "analyze",
    "simulate",
    "render",
    "trace",
    "metrics-serve",
    "serve",
)


def _known_commands() -> List[str]:
    return list(experiment_ids()) + list(_VERBS)


def _observability_parent() -> argparse.ArgumentParser:
    """Flags shared by every command (logging, metrics, caching)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error", "critical"],
        help="verbosity of the structured logs on stderr",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="collect simulation metrics/timers and print a profile "
        "report after the run",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the collected metrics registry as JSON",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="live progress line on stderr: completed/total, rate, ETA, "
        "and CI convergence for sequential runs",
    )
    group.add_argument(
        "--progress-out",
        default=None,
        metavar="PATH",
        help="append progress/convergence events as JSONL",
    )
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span tree (driver + worker chunks) as JSONL",
    )
    cache = parent.add_argument_group("caching")
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist simulation results here and reuse them across "
        "invocations (results are bit-identical to a fresh run)",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir for this invocation (in-process "
        "deduplication of identical studies still applies)",
    )
    cache.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="worker processes of the shared simulation pool "
        "(default 1 = serial; serve defaults to the CPU count, at "
        "most 8, and simulates every study on the pool)",
    )
    return parent


def _replication_parent() -> argparse.ArgumentParser:
    """Flags of every command that simulates."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("replication")
    group.add_argument(
        "--runs", type=int, default=None, help="Monte Carlo replications"
    )
    group.add_argument(
        "--horizon", type=float, default=None, help="simulation horizon, years"
    )
    group.add_argument("--seed", type=int, default=None, help="root RNG seed")
    group.add_argument(
        "--quick",
        action="store_true",
        help="reduced replication count (smoke-test mode)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for the test suite).

    Real subparsers: one per experiment id plus the verbs ``all``,
    ``list``, ``analyze``, ``simulate``, ``render``, ``trace``,
    ``metrics-serve`` and ``serve``, each with per-verb ``--help``.
    """
    parser = argparse.ArgumentParser(
        prog="fmt-repro",
        description="Fault-maintenance-tree analysis of the EI-joint "
        "(DSN 2016 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    obs = _observability_parent()
    runs = _replication_parent()
    sub = parser.add_subparsers(dest="command", metavar="command")

    for key in experiment_ids():
        sub.add_parser(
            key,
            parents=[obs, runs],
            help=f"regenerate {key} from the paper",
        )
    sub.add_parser(
        "all", parents=[obs, runs], help="run every experiment in paper order"
    )
    sub.add_parser("list", parents=[obs], help="list the available commands")

    analyze = sub.add_parser(
        "analyze",
        parents=[obs],
        help="static analysis (cut sets, unreliability) of a model file",
    )
    analyze.add_argument(
        "path", nargs="?", default=None, help="Galileo model file"
    )

    simulate = sub.add_parser(
        "simulate",
        parents=[obs, runs],
        help="Monte Carlo simulation of a model file",
    )
    simulate.add_argument(
        "path", nargs="?", default=None, help="Galileo model file"
    )
    simulate.add_argument(
        "--absorbing",
        action="store_true",
        help="treat the first system failure as absorbing (reliability "
        "study) instead of renewing the asset",
    )
    simulate.add_argument(
        "--kernel",
        default=None,
        choices=["object", "vectorized"],
        help="sampling kernel ('object' is the event-loop reference "
        "engine; 'vectorized' is the lockstep numpy kernel, "
        "statistically equivalent but not bit-identical)",
    )
    simulate.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="cap on the trajectories of one vectorized chunk (default "
        "16384); a study runs ceil(runs/N) near-equal chunks with one "
        "RNG stream each, so N changes the sampled trajectories and "
        "the study cache key, while --processes changes neither",
    )

    render = sub.add_parser(
        "render",
        parents=[obs],
        help="ASCII or Graphviz rendering of a model file",
    )
    render.add_argument(
        "path", nargs="?", default=None, help="Galileo model file"
    )
    render.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT instead of an ASCII outline",
    )

    trace = sub.add_parser(
        "trace",
        parents=[obs, runs],
        help="JSONL component-event trace of simulated runs",
    )
    trace.add_argument(
        "path", nargs="?", default=None, help="Galileo model file"
    )
    trace.add_argument(
        "--absorbing",
        action="store_true",
        help="treat the first system failure as absorbing",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSONL event trace here (default: stdout)",
    )

    metrics_serve = sub.add_parser(
        "metrics-serve",
        parents=[obs],
        help="serve a --metrics-out dump on /metrics (Prometheus format)",
    )
    metrics_serve.add_argument(
        "path",
        nargs="?",
        default=None,
        help="metrics JSON file (written with --metrics-out)",
    )
    metrics_serve.add_argument(
        "--port",
        type=int,
        default=9102,
        metavar="N",
        help="port to bind (0 = ephemeral)",
    )

    serve = sub.add_parser(
        "serve",
        parents=[obs],
        help="the analysis HTTP service: POST JSON studies, poll results "
        "(docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="address to bind"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8177,
        metavar="N",
        help="port to bind (0 = ephemeral)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads simulating queued studies",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="queued studies accepted before submissions get 429",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    overrides = {}
    if args.runs is not None:
        overrides["n_runs"] = args.runs
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    if args.quick:
        config = config.quick()
    return config


def _cmd_list() -> int:
    print("available experiments:")
    for key in experiment_ids():
        print(f"  {key}")
    print("  all           (run every experiment)")
    print("  analyze PATH  (static analysis of a Galileo model file)")
    print("  simulate PATH (Monte Carlo simulation of a model file)")
    print("  render PATH   (ASCII or --dot rendering of a model file)")
    print("  trace PATH    (JSONL component-event trace of simulated runs)")
    print("  metrics-serve PATH  (serve a --metrics-out dump on /metrics)")
    print("  serve         (analysis HTTP service: POST studies as JSON)")
    return 0


def _cmd_analyze(path: Optional[str]) -> int:
    if path is None:
        print("analyze: missing model file path", file=sys.stderr)
        return 2
    from repro.analysis import minimal_cut_sets, unreliability
    from repro.dsl import load_file

    tree = load_file(path)
    print(tree)
    cut_sets = minimal_cut_sets(tree, treat_pand_as_and=True)
    print(f"{len(cut_sets)} minimal cut sets:")
    for cut in cut_sets:
        print("  {" + ", ".join(sorted(cut)) + "}")
    for t in (1.0, 5.0, 10.0):
        value = unreliability(
            tree,
            t,
            ignore_maintenance=True,
            ignore_dependencies=True,
            treat_pand_as_and=True,
        )
        print(f"unreliability({t:g}y, unmaintained) = {value:.6g}")
    return 0


def _strategy_for_model_run(tree, absorbing: bool):
    from repro.maintenance.strategy import MaintenanceStrategy

    return MaintenanceStrategy(
        name=tree.name,
        inspections=tree.inspections,
        repairs=tree.repairs,
        on_system_failure="none" if absorbing else "replace",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.path is None:
        print("simulate: missing model file path", file=sys.stderr)
        return 2
    from repro.dsl import load_file
    from repro.studies import StudyRequest, get_runner

    tree = load_file(args.path)
    strategy = _strategy_for_model_run(tree, args.absorbing)
    horizon = args.horizon if args.horizon is not None else 50.0
    n_runs = args.runs if args.runs is not None else 2000
    seed = args.seed if args.seed is not None else 0
    kernel = args.kernel if args.kernel is not None else "object"
    request = {
        "tree": tree, "strategy": strategy, "horizon": horizon,
        "seed": seed, "n_runs": n_runs, "kernel": kernel,
    }
    if args.chunk_size is not None:
        request["chunk_trajectories"] = args.chunk_size
    summary = get_runner().summary(StudyRequest(**request))
    print(tree)
    print(f"strategy: {strategy}")
    print(
        f"horizon {horizon:g}y, {n_runs} trajectories, seed {seed}, "
        f"{kernel} kernel"
    )
    print(f"  unreliability : {summary.unreliability}")
    print(f"  failures/yr   : {summary.failures_per_year}")
    print(f"  availability  : {summary.availability}")
    print(f"  inspections/yr performed: {summary.inspections_per_year:.2f}")
    print(f"  preventive actions/yr   : {summary.preventive_actions_per_year:.3f}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    if args.path is None:
        print("render: missing model file path", file=sys.stderr)
        return 2
    from repro.core.visualize import ascii_tree, to_dot
    from repro.dsl import load_file

    tree = load_file(args.path)
    print(to_dot(tree) if args.dot else ascii_tree(tree))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.path is None:
        print("trace: missing model file path", file=sys.stderr)
        return 2
    from repro.dsl import load_file
    from repro.observability.tracing import write_trace, write_trace_file
    from repro.simulation.montecarlo import MonteCarlo

    tree = load_file(args.path)
    strategy = _strategy_for_model_run(tree, args.absorbing)
    horizon = args.horizon if args.horizon is not None else 50.0
    n_runs = args.runs if args.runs is not None else 100
    seed = args.seed if args.seed is not None else 0
    mc = MonteCarlo(
        tree, strategy, horizon=horizon, seed=seed, record_events=True
    )
    trajectories = mc.sample(n_runs)
    if args.out is None:
        lines = write_trace(trajectories, sys.stdout)
    else:
        lines = write_trace_file(trajectories, args.out)
        print(
            f"wrote {lines} JSONL records ({n_runs} trajectories) to {args.out}"
        )
    logger.info(
        kv("trace written", trajectories=n_runs, records=lines, out=args.out or "-")
    )
    return 0


def _cmd_metrics_serve(args: argparse.Namespace) -> int:
    if args.path is None:
        print(
            "metrics-serve: missing metrics JSON path (write one with "
            "--metrics-out)",
            file=sys.stderr,
        )
        return 2
    import json

    from repro.observability.exposition import MetricsServer

    def snapshot():
        # Re-read per scrape so a dashboard can watch a run that is
        # still writing (or a file refreshed between runs).
        with open(args.path, encoding="utf-8") as handle:
            return json.load(handle)

    try:
        snapshot()
    except (OSError, ValueError) as exc:
        print(f"metrics-serve: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    server = MetricsServer(snapshot, port=args.port)
    print(
        f"serving {args.path} on http://{server.host}:{server.port}/metrics "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace, study_runner, instrumentation) -> int:
    from repro.service.app import serve_app

    if args.workers < 1:
        print("serve: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_pending < 1:
        print("serve: --max-pending must be >= 1", file=sys.stderr)
        return 2
    server = serve_app(
        study_runner,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        instrumentation=instrumentation,
    )
    print(
        f"serving studies on {server.url} "
        "(POST /v1/studies; Ctrl-C to stop)",
        file=sys.stderr,
    )
    logger.info(
        kv(
            "service started",
            url=server.url,
            workers=args.workers,
            max_pending=args.max_pending,
        )
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "analyze":
        return _cmd_analyze(args.path)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "trace":
        return _cmd_trace(args)
    config = _config_from_args(args)
    if args.command == "all":
        for key, runner in iter_experiments():
            print(timed_run(runner, config, experiment_id=key).to_text())
            print()
        return 0
    runner = get_experiment(args.command)
    print(timed_run(runner, config, experiment_id=args.command).to_text())
    return 0


def _check_writable(path: str, flag: str) -> Optional[str]:
    """Fail fast on an unwritable output path — before the run, not after."""
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        return f"{flag}: cannot write {path}: {exc}"
    return None


def _normalize_argv(argv: Sequence[str]) -> List[str]:
    """Back-compat shim for the pre-subparser CLI.

    The historical hand-rolled parser accepted global options *before*
    the command (``repro --quick fig5``); subparsers require the
    command first.  When the first token is an option but a known
    command appears later, the command is rotated to the front and a
    :class:`DeprecationWarning` is emitted.  Command-first invocations
    (every documented form) pass through untouched.
    """
    argv = list(argv)
    if not argv or not argv[0].startswith("-"):
        return argv
    if argv[0] in ("-h", "--help", "--version"):
        return argv
    known = set(_known_commands())
    for index, token in enumerate(argv):
        if token in known:
            warnings.warn(
                "passing options before the command is deprecated; write "
                f"'python -m repro {token} [options]' instead",
                DeprecationWarning,
                stacklevel=3,
            )
            return [token] + argv[:index] + argv[index + 1:]
    return argv


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        print("error: missing command; try 'list'", file=sys.stderr)
        return 2
    if not argv[0].startswith("-") and argv[0] not in _known_commands():
        print(
            f"unknown experiment {argv[0]!r}; try 'list'",
            file=sys.stderr,
        )
        return 2
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    setup_logging(args.log_level)
    if args.command == "metrics-serve":
        # Serving needs no study runner, telemetry, or writable outputs.
        return _cmd_metrics_serve(args)
    for path, flag in (
        (args.metrics_out, "--metrics-out"),
        (getattr(args, "out", None), "--out"),
        (args.progress_out, "--progress-out"),
        (args.trace_out, "--trace-out"),
    ):
        if path is not None:
            problem = _check_writable(path, flag)
            if problem is not None:
                print(problem, file=sys.stderr)
                return 2
    if args.processes is not None and args.processes < 1:
        print("--processes: must be >= 1", file=sys.stderr)
        return 2
    instrumentation = (
        Instrumentation() if (args.profile or args.metrics_out) else None
    )
    from repro.observability import spans as _spans
    from repro.observability.progress import (
        JsonlProgressReporter,
        TerminalProgressReporter,
        tee,
    )
    from repro.observability.progress import use_progress
    from repro.observability.tracing import write_spans
    from repro.studies import StudyRunner, use_runner

    cache_dir = None if args.no_cache else args.cache_dir
    if args.command == "serve":
        # The service owns its lifecycle: it always carries an
        # instrumentation (backing /metrics) and closes the runner when
        # the server stops.  Every study simulates on the pool, so the
        # job threads never hold the interpreter lock for the kernel.
        instrumentation = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        study_runner = StudyRunner(
            cache_dir=cache_dir,
            processes=args.processes,
            parallel_threshold=1,
            instrumentation=instrumentation,
        )
        return _cmd_serve(args, study_runner, instrumentation)
    reporters = []
    if args.progress:
        reporters.append(TerminalProgressReporter())
    if args.progress_out is not None:
        reporters.append(JsonlProgressReporter(path=args.progress_out))
    reporter = tee(*reporters) if reporters else None
    collector = _spans.SpanCollector() if args.trace_out is not None else None
    study_runner = StudyRunner(
        cache_dir=cache_dir,
        processes=args.processes if args.processes is not None else 1,
        instrumentation=instrumentation,
    )
    try:
        with use(instrumentation), use_runner(study_runner), use_progress(
            reporter
        ), _spans.use(collector):
            code = _dispatch(args)
    except KeyboardInterrupt:
        # A pooled run has already cancelled its queued chunks.  130 is
        # the shell's status for a command ended by SIGINT.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        study_runner.close()
        if reporter is not None:
            reporter.close()
    if collector is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            lines = write_spans(collector.records, handle)
        print(
            f"trace: {lines} span records written to {args.trace_out}",
            file=sys.stderr,
        )
    if instrumentation is not None:
        if args.profile:
            print()
            print(instrumentation.registry.render_text(title="profile"))
        if args.metrics_out:
            instrumentation.registry.write_json(args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
