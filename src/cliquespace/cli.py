"""Command-line entry point.

One command per operation: ``run`` runs the pipeline stages (ingest,
features, bench, isa-fit, isa-project, isa-footprint, train, report),
all of them or the ``--stages`` subset; ``solve`` runs one solver on one
graph file; ``predict`` ranks the portfolio for instances in a feature CSV.

Exit codes: 0 success; 2 configuration error; 3 data error (malformed
inputs, missing artifacts, degenerate geometry); 4 campaign failure
(every benchmark run failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .artifacts import cell
from .errors import CampaignFailureError, CliquespaceError, ConfigError, PipelineError
from .graph import parse_path
from .pipeline import STAGE_ORDER, load_config, require_budget, resolve_solver, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CAMPAIGN = 4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    stages = None
    if args.stages:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    config = load_config(args.config)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    statuses = run_pipeline(config, stages, log=_log)
    ran = sum(1 for _, status in statuses if status == "ran")
    skipped = len(statuses) - ran
    print(f"{ran} stage(s) ran, {skipped} skipped; artifacts in {config.output_dir}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    require_budget("--budget", args.budget)
    try:
        solve = resolve_solver(
            args.solver, f"external {args.command}" if args.command else "builtin", args.seed
        )
    except ValueError as exc:
        flag = "--command" if args.command else f"--solver {args.solver}"
        raise ConfigError(f"{flag}: {exc}") from None
    result = solve(parse_path(args.instance).graph, args.budget)
    print(
        f"instance={Path(args.instance).stem} solver={args.solver} "
        f"clique={result.clique_size} proven={cell(bool(result.proven_optimal))} "
        f"wall={result.wall_seconds:.3f} budget_exhausted={cell(bool(result.budget_exhausted))}"
    )
    if result.clique:
        print("vertices=" + " ".join(str(v) for v in result.clique))
    return EXIT_OK


def _cmd_predict(args) -> int:
    """Rank the portfolio for each instance of a features CSV, at the (z1, z2)
    coordinates that ``projection.isa`` (``--projection``, or the file next to
    the model) gives it: the one input space the selector reads."""
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    # the model code, and numpy with it, loads here, so the other commands start without it
    from .features import FEATURE_NAMES, read_features_csv
    from .isa import project_many, read_projection_model
    from .selector import predict as selector_predict
    from .selector import read_selector_model

    model = read_selector_model(args.model)
    ids, X, _ = read_features_csv(args.features)
    if not ids:
        raise PipelineError(f"{args.features}: no instances")
    projection_path = args.projection or Path(args.model).parent / "projection.isa"
    if not Path(projection_path).exists():
        raise PipelineError(f"{projection_path} does not exist; pass --projection <file>")
    inputs = project_many(read_projection_model(projection_path), X, FEATURE_NAMES)
    top = min(args.top, len(model.solver_ids))
    for i, iid in enumerate(ids):
        ranking = selector_predict(model, inputs[i])[:top]
        print(f"{iid}: " + " ".join(f"{sid}={score:.6f}" for sid, score in ranking))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquespace",
        description="Instance-space analysis pipeline for maximum clique solvers.",
        formatter_class=argparse.RawTextHelpFormatter,  # a hyphenated stage name stays whole
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stages = ", ".join(STAGE_ORDER)
    run_p = sub.add_parser(
        "run", help=f"run the pipeline stages: {stages}", formatter_class=parser.formatter_class
    )
    run_p.add_argument("--config", required=True, help="campaign INI file")
    run_p.add_argument("--jobs", type=int, default=None, help="parallel workers, at least 1")
    run_p.add_argument("--stages", default="", help=f"comma-separated subset of: {stages}")
    run_p.set_defaults(handler=_cmd_run)

    solve_p = sub.add_parser("solve", help="run one solver on one graph file")
    solve_p.add_argument(
        "--solver", required=True, help="a builtin solver id, or a name for --command"
    )
    solve_p.add_argument("--instance", required=True, help="graph file")
    solve_p.add_argument(
        "--budget", type=float, default=60.0, help="wall seconds, positive and finite"
    )
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument(
        "--command", default="", help="external command template with {instance}"
    )
    solve_p.set_defaults(handler=_cmd_solve)

    predict_p = sub.add_parser("predict", help="rank solvers for feature-CSV instances")
    predict_p.add_argument("--model", required=True, help="selector model file")
    predict_p.add_argument("--features", required=True, help="features CSV")
    predict_p.add_argument(
        "--projection", default="", help="projection model (default: next to --model)"
    )
    predict_p.add_argument("--top", type=int, default=2, help="solvers to list, at least 1")
    predict_p.set_defaults(handler=_cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CampaignFailureError as exc:
        print(f"campaign failure: {exc}", file=sys.stderr)
        return EXIT_CAMPAIGN
    except (CliquespaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
