"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run fig4
    python -m repro run fig3 --trace-length 60000 --out fig3.txt
    python -m repro run fig3 --jobs 4 --backend vectorized
    python -m repro design A
    python -m repro all --jobs 4 --out-dir results/
    python -m repro run fig4 --profile
    python -m repro sweep --samples 200 --jobs 4 --save-json sweep.json
    python -m repro sweep --axes "size_kb=4,8,16;ule_scheme=secded,dected"
    python -m repro pareto sweep.json --objectives epi_ule:min,area_mm2:min
    python -m repro schedule --policy utilization --epoch 10000 --jobs 4
    python -m repro schedule --policy static --duty 0.05 --save-json s.json
    python -m repro schedule --policy budget --budget-mj 0.002
    python -m repro population --dies 200 --jobs 4 --save-json pop.json
    python -m repro population --dies 500 --percentiles 50,95,99.9
    python -m repro transients --scenario B --save-json due_curve.json
    python -m repro transients --acceleration 1e16 --scrub-us 100
    python -m repro population --dies 100 --transient-accel 1e16
    python -m repro schedule --policy static --transient-accel 1e16
    python -m repro serve --port 8642 --cache-dir cache/ --workers 4
    python -m repro submit --port 8642 --benchmarks adpcm_c,epic_c \
        --seeds 1,2,3 --trace-length 20000

Engine options (``run``, ``all``, ``sweep``, ``schedule``,
``population`` and ``transients``):

* ``--jobs N`` — dispatch independent work across N processes;
* ``--backend {auto,vectorized,reference}`` — simulation backend
  (bit-identical; "auto" picks the vectorized fast path where it
  applies);
* ``--cache-dir DIR`` — memoize simulation results on disk, keyed by a
  content hash of the full job description;
* ``--profile`` — print per-phase wall-clock (trace generation,
  simulation, energy accounting) after the run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _axis_value(text: str):
    """Parse one axis value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_percentiles(text: str) -> tuple[float, ...]:
    """Parse ``"50,90,95,99"`` into a percentile tuple."""
    values = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        try:
            value = float(clause)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad percentile {clause!r}"
            ) from None
        if not 0.0 <= value <= 100.0:
            raise argparse.ArgumentTypeError(
                f"percentile {clause} outside [0, 100]"
            )
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("empty --percentiles")
    return tuple(values)


def _parse_axes(text: str) -> dict[str, tuple]:
    """Parse ``"size_kb=4,8;ule_scheme=secded,dected"`` overrides."""
    axes: dict[str, tuple] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, separator, values = clause.partition("=")
        if not separator or not values:
            raise argparse.ArgumentTypeError(
                f"bad axis clause {clause!r}; expected name=v1,v2,..."
            )
        axes[name.strip()] = tuple(
            _axis_value(value.strip()) for value in values.split(",")
        )
    if not axes:
        raise argparse.ArgumentTypeError("empty --axes specification")
    return axes


def _add_scrub_option(parser: argparse.ArgumentParser) -> None:
    """The scrub-interval flag (one definition for every command)."""
    parser.add_argument(
        "--scrub-us", type=float, default=100.0,
        help=(
            "scrub interval in microseconds for injection "
            "(default: 100)"
        ),
    )


def _add_transient_options(parser: argparse.ArgumentParser) -> None:
    """Soft-error injection options shared by simulating commands."""
    parser.add_argument(
        "--transient-accel", type=float, default=None,
        help=(
            "enable soft-error injection with this upset-rate "
            "acceleration (e.g. 1e16; default: off)"
        ),
    )
    _add_scrub_option(parser)


def _transient_spec(args: argparse.Namespace, seed: int):
    """The TransientSpec of a command's flags (None = injection off)."""
    if getattr(args, "transient_accel", None) is None:
        return None
    from repro.transients import TransientSpec
    from repro.util.rng import derive_seed

    return TransientSpec(
        acceleration=args.transient_accel,
        scrub_interval_seconds=args.scrub_us * 1e-6,
        seed=derive_seed(seed, "transients"),
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every command that simulates."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for independent jobs (default: 1)",
    )
    parser.add_argument(
        "--backend", choices=("auto", "vectorized", "reference"),
        default="auto", help="simulation backend (default: auto)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help="enable the on-disk simulation result cache here",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print per-phase wall-clock after the run (forces --jobs 1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Cache Architectures for Reliable "
            "Hybrid Voltage Operation Using EDC Codes' (DATE 2013)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids")

    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see list)")
    run_parser.add_argument(
        "--trace-length", type=int, default=None,
        help="dynamic instructions per benchmark (EPI experiments)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    run_parser.add_argument(
        "--carbon", default=None,
        help=(
            "grid carbon intensity for sustainability experiments: a "
            "profile name (world, eu, renewable, coal) or g CO2/kWh"
        ),
    )
    run_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the report to this file",
    )
    run_parser.add_argument(
        "--save-json", type=pathlib.Path, default=None,
        help=(
            "write the experiment's machine-readable results "
            "(id, comparisons, data) as JSON"
        ),
    )
    _add_engine_options(run_parser)

    design_parser = commands.add_parser(
        "design", help="run the Fig. 2 methodology for a scenario"
    )
    design_parser.add_argument("scenario", choices=["A", "B"])
    design_parser.add_argument(
        "--seed", type=int, default=None,
        help=(
            "root seed: also cross-check the analytic cell Pf values "
            "with seeded importance sampling"
        ),
    )

    all_parser = commands.add_parser(
        "all", help="run every experiment and write the reports"
    )
    all_parser.add_argument(
        "--trace-length", type=int, default=None,
        help="dynamic instructions per benchmark (EPI experiments)",
    )
    all_parser.add_argument(
        "--seed", type=int, default=None,
        help=(
            "root random seed; each experiment gets a derived child "
            "seed, so batch runs are bit-reproducible"
        ),
    )
    all_parser.add_argument(
        "--out-dir", type=pathlib.Path, default=pathlib.Path("results"),
        help="directory for the rendered reports",
    )
    _add_engine_options(all_parser)

    sweep_parser = commands.add_parser(
        "sweep",
        help="explore the design space and report the Pareto frontier",
    )
    sweep_parser.add_argument(
        "--samples", type=_positive_int, default=None,
        help="candidate budget (default: the full constrained grid)",
    )
    sweep_parser.add_argument(
        "--sampler", choices=("grid", "random", "halton"),
        default=None,
        help=(
            "how to pick points from the space (default: the full "
            "grid, or a low-discrepancy halton walk when --samples "
            "bounds the budget — a truncated grid would only cover a "
            "corner of the space)"
        ),
    )
    sweep_parser.add_argument(
        "--axes", type=_parse_axes, default=None,
        help=(
            "axis overrides, e.g. "
            "\"size_kb=4,8,16;ule_scheme=secded,dected\""
        ),
    )
    sweep_parser.add_argument(
        "--suite", default=None,
        help=(
            "workload suite for every candidate: smallbench, "
            "bigbench, all, paper (mode-split default), or a "
            "multi-programmed mix mix1..mix7 (ingested components "
            "when cataloged, synthetic proxies otherwise)"
        ),
    )
    sweep_parser.add_argument(
        "--trace-length", type=int, default=20_000,
        help="dynamic instructions per benchmark (default: 20000)",
    )
    sweep_parser.add_argument(
        "--dies", type=int, default=0,
        help=(
            "evaluate each candidate across a sampled die population "
            "and rank by p95-across-die (default: 0 = nominal die)"
        ),
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    sweep_parser.add_argument(
        "--surrogate", action="store_true",
        help=(
            "surrogate-guided exploration: simulate a seeded batch, "
            "fit regressor ensembles, spend the budget on the "
            "predicted frontier + most uncertain candidates until the "
            "hypervolume converges (same reduction, fraction of the "
            "jobs)"
        ),
    )
    sweep_parser.add_argument(
        "--budget", type=_positive_int, default=None,
        help=(
            "max candidates to simulate with --surrogate (default: a "
            "third of the space, rounded up)"
        ),
    )
    sweep_parser.add_argument(
        "--seed-candidates", type=_positive_int, default=None,
        help=(
            "initial space-filling batch size with --surrogate "
            "(default: a quarter of the budget, at least 8)"
        ),
    )
    sweep_parser.add_argument(
        "--round-size", type=_positive_int, default=None,
        help=(
            "candidates simulated per acquisition round with "
            "--surrogate (default: an eighth of the budget, at "
            "least 4)"
        ),
    )
    sweep_parser.add_argument(
        "--hv-tol", type=float, default=None,
        help=(
            "relative hypervolume gain under which a surrogate round "
            "counts as converged (default: 1e-3)"
        ),
    )
    sweep_parser.add_argument(
        "--patience", type=_positive_int, default=None,
        help=(
            "consecutive quiet rounds before the surrogate loop "
            "stops (default: 2)"
        ),
    )
    sweep_parser.add_argument(
        "--resume", type=pathlib.Path, default=None,
        help=(
            "reuse candidate metrics from a saved campaign "
            "(sweep --save-json); matching candidates skip "
            "simulation, everything else runs as usual"
        ),
    )
    _add_transient_options(sweep_parser)
    sweep_parser.add_argument(
        "--carbon", default=None,
        help=(
            "price candidates on a grid carbon intensity — a profile "
            "name (world, eu, renewable, coal) or g CO2/kWh; adds a "
            "co2_per_gib_ule metric and a minimize-carbon objective"
        ),
    )
    sweep_parser.add_argument(
        "--top", type=_positive_int, default=20,
        help="ranked candidates to print (default: 20)",
    )
    sweep_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the report to this file",
    )
    sweep_parser.add_argument(
        "--save-json", type=pathlib.Path, default=None,
        help="write machine-readable campaign results to this file",
    )
    _add_engine_options(sweep_parser)

    schedule_parser = commands.add_parser(
        "schedule",
        help="simulate policy-scheduled HP/ULE operation over a trace",
    )
    schedule_parser.add_argument(
        "--policy",
        choices=("static", "utilization", "budget", "oracle"),
        default="utilization",
        help="mode-scheduling policy (default: utilization)",
    )
    schedule_parser.add_argument(
        "--epoch", type=_positive_int, default=10_000,
        help="instructions per epoch (default: 10000)",
    )
    schedule_parser.add_argument(
        "--segment", choices=("fixed", "phase"), default="fixed",
        help="epoch segmenter (default: fixed-length epochs)",
    )
    schedule_parser.add_argument(
        "--duty", type=float, default=0.1,
        help="HP epoch fraction for --policy static (default: 0.1)",
    )
    schedule_parser.add_argument(
        "--threshold", type=float, default=1.0,
        help=(
            "ULE-capacity overflow factor for --policy utilization "
            "(default: 1.0)"
        ),
    )
    schedule_parser.add_argument(
        "--budget-mj", type=float, default=None,
        help="energy budget in mJ (required by --policy budget)",
    )
    schedule_parser.add_argument(
        "--objective", choices=("energy", "time"), default="energy",
        help="what --policy oracle minimizes (default: energy)",
    )
    schedule_parser.add_argument(
        "--scenario", choices=("A", "B"), default="A",
        help="paper scenario whose chips to schedule (default: A)",
    )
    schedule_parser.add_argument(
        "--chip", choices=("proposed", "baseline"), default="proposed",
        help="which of the scenario's chips to run (default: proposed)",
    )
    schedule_parser.add_argument(
        "--workload", default="sensor",
        help=(
            "'sensor' (phased monitoring+burst trace) or a benchmark "
            "name, e.g. adpcm_c (default: sensor)"
        ),
    )
    schedule_parser.add_argument(
        "--trace-length", type=_positive_int, default=100_000,
        help="dynamic instructions of the workload (default: 100000)",
    )
    schedule_parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    _add_transient_options(schedule_parser)
    schedule_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the report to this file",
    )
    schedule_parser.add_argument(
        "--save-json", type=pathlib.Path, default=None,
        help="write the machine-readable schedule ledger to this file",
    )
    _add_engine_options(schedule_parser)

    population_parser = commands.add_parser(
        "population",
        help="simulate a die population sampled from the variation models",
    )
    population_parser.add_argument(
        "--dies", type=_positive_int, default=100,
        help="population size (default: 100; identical dies dedup)",
    )
    population_parser.add_argument(
        "--percentiles", type=_parse_percentiles, default=None,
        help="population percentiles, e.g. \"50,90,95,99\"",
    )
    population_parser.add_argument(
        "--scenario", choices=("A", "B"), default="A",
        help="paper scenario whose chip to populate (default: A)",
    )
    population_parser.add_argument(
        "--chip", choices=("proposed", "baseline"), default="proposed",
        help="which of the scenario's chips to run (default: proposed)",
    )
    population_parser.add_argument(
        "--trace-length", type=_positive_int, default=None,
        help="dynamic instructions per benchmark",
    )
    population_parser.add_argument(
        "--suite", default="paper",
        help=(
            "workload suite per die: paper (mode-split default), "
            "smallbench, bigbench, all, or a mix1..mix7 "
            "multi-programmed mix"
        ),
    )
    population_parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    _add_transient_options(population_parser)
    population_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the report to this file",
    )
    population_parser.add_argument(
        "--save-json", type=pathlib.Path, default=None,
        help="write the machine-readable population results here",
    )
    _add_engine_options(population_parser)

    transients_parser = commands.add_parser(
        "transients",
        help=(
            "soft-error injection study: DUE-vs-Vdd curve + "
            "trace-observed recovery accounting"
        ),
    )
    transients_parser.add_argument(
        "--scenario", choices=("A", "B"), default="B",
        help="paper scenario whose chips to inject (default: B)",
    )
    transients_parser.add_argument(
        "--acceleration", type=float, default=None,
        help="upset-rate acceleration (default: 1e16)",
    )
    _add_scrub_option(transients_parser)
    transients_parser.add_argument(
        "--intervals", type=_positive_int, default=400,
        help=(
            "scrub intervals the FIT enumeration covers per array "
            "(default: 400)"
        ),
    )
    transients_parser.add_argument(
        "--trace-length", type=_positive_int, default=None,
        help="dynamic instructions per benchmark",
    )
    transients_parser.add_argument(
        "--seed", type=int, default=None, help="root random seed"
    )
    transients_parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the report to this file",
    )
    transients_parser.add_argument(
        "--save-json", type=pathlib.Path, default=None,
        help=(
            "write the machine-readable results (incl. the "
            "DUE-vs-Vdd curve) to this file"
        ),
    )
    _add_engine_options(transients_parser)

    serve_parser = commands.add_parser(
        "serve",
        help=(
            "run the fleet simulation service: HTTP job API over a "
            "shared sharded result store"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port; 0 picks an ephemeral one (default: 8642)",
    )
    serve_parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=None,
        help=(
            "shared result-store root; the same directory a library "
            "session's --cache-dir uses, so service and library runs "
            "dedup against each other (default: in-memory only)"
        ),
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=2,
        help="executor threads / max in-flight simulations (default: 2)",
    )
    serve_parser.add_argument(
        "--backend", choices=("auto", "vectorized", "reference"),
        default="auto", help="simulation backend (default: auto)",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=_positive_int, default=256,
        help=(
            "admission-queue bound; beyond it submissions shed with "
            "reason 'saturated' (default: 256)"
        ),
    )
    serve_parser.add_argument(
        "--tenant-quota", type=_positive_int, default=None,
        help=(
            "max outstanding jobs per tenant; beyond it submissions "
            "shed with reason 'quota' (default: unlimited)"
        ),
    )

    submit_parser = commands.add_parser(
        "submit",
        help="submit simulation jobs to a running fleet service",
    )
    submit_parser.add_argument(
        "--host", default="127.0.0.1",
        help="service address (default: 127.0.0.1)",
    )
    submit_parser.add_argument(
        "--port", type=int, default=8642,
        help="service port (default: 8642)",
    )
    submit_parser.add_argument(
        "--tenant", default="cli",
        help="tenant id for quotas and fair-share (default: cli)",
    )
    submit_parser.add_argument(
        "--benchmarks", default="adpcm_c",
        help="comma-separated benchmark names (default: adpcm_c)",
    )
    submit_parser.add_argument(
        "--seeds", default="1",
        help="comma-separated trace seeds (default: 1)",
    )
    submit_parser.add_argument(
        "--trace-length", type=_positive_int, default=20_000,
        help="dynamic instructions per trace (default: 20000)",
    )
    submit_parser.add_argument(
        "--mode", choices=("ule", "hp"), default="ule",
        help="operating mode (default: ule)",
    )
    submit_parser.add_argument(
        "--scenario", choices=("A", "B"), default="A",
        help="paper scenario whose chips to run (default: A)",
    )
    submit_parser.add_argument(
        "--chip", choices=("proposed", "baseline"), default="proposed",
        help="which of the scenario's chips to run (default: proposed)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for completion (default: 600)",
    )

    pareto_parser = commands.add_parser(
        "pareto",
        help="re-reduce a saved sweep (from sweep --save-json)",
    )
    pareto_parser.add_argument(
        "results", type=pathlib.Path,
        help="campaign JSON written by sweep --save-json",
    )
    pareto_parser.add_argument(
        "--objectives", default=None,
        help=(
            "comma-separated metric[:min|:max] list, e.g. "
            "epi_ule:min,area_mm2:min,yield:max"
        ),
    )
    pareto_parser.add_argument(
        "--top", type=_positive_int, default=20,
        help="ranked candidates to print (default: 20)",
    )

    ingest_parser = commands.add_parser(
        "ingest",
        help=(
            "parse a real-workload trace file (DRAMSim2 k6 or "
            "Pin/DynamoRIO memtrace) into the trace store"
        ),
    )
    ingest_parser.add_argument(
        "trace_file", type=pathlib.Path,
        help="the text trace file to ingest",
    )
    ingest_parser.add_argument(
        "--format", choices=("k6", "memtrace"), default=None,
        help="input format (default: sniffed from the first line)",
    )
    ingest_parser.add_argument(
        "--name", default=None,
        help=(
            "catalog name for the trace (default: the file stem); "
            "name it after a mix component (e.g. mcf) and every mix "
            "using that component picks up the real trace"
        ),
    )
    ingest_parser.add_argument(
        "--limit", type=_positive_int, default=None,
        help="keep at most this many records",
    )
    ingest_parser.add_argument(
        "--skip", type=int, default=0,
        help="drop this many records first (windowing; default: 0)",
    )
    ingest_parser.add_argument(
        "--force", action="store_true",
        help="allow re-pointing an existing catalog name at new content",
    )
    ingest_parser.add_argument(
        "--store", type=pathlib.Path, default=None,
        help=(
            "trace store root (default: $REPRO_TRACE_STORE or the "
            "per-user store)"
        ),
    )

    traces_parser = commands.add_parser(
        "traces",
        help="inspect the ingested-trace catalog",
    )
    traces_parser.add_argument(
        "action", choices=("list", "verify"),
        help=(
            "list: the catalog with provenance; verify: re-hash "
            "stored bytes against their content addresses"
        ),
    )
    traces_parser.add_argument(
        "names", nargs="*",
        help="restrict to these catalog names (default: all)",
    )
    traces_parser.add_argument(
        "--store", type=pathlib.Path, default=None,
        help=(
            "trace store root (default: $REPRO_TRACE_STORE or the "
            "per-user store)"
        ),
    )
    return parser


def _run_kwargs(
    args: argparse.Namespace,
    experiment_id: str,
    derive_child_seed: bool = False,
) -> dict:
    """Forward only the options the chosen driver accepts.

    Batch commands set ``derive_child_seed`` so each experiment draws a
    decorrelated child of the root ``--seed`` (the same child whatever
    the batch order or parallelism — bit-reproducible).
    """
    from repro.experiments.registry import experiment_parameters

    accepted = experiment_parameters(experiment_id)
    kwargs = {}
    trace_length = getattr(args, "trace_length", None)
    if "trace_length" in accepted and trace_length is not None:
        kwargs["trace_length"] = trace_length
    seed = getattr(args, "seed", None)
    if "seed" in accepted and seed is not None:
        if derive_child_seed:
            from repro.util.rng import derive_seed

            seed = derive_seed(seed, "all", experiment_id)
        kwargs["seed"] = seed
    carbon = getattr(args, "carbon", None)
    if "carbon" in accepted and carbon is not None:
        kwargs["carbon"] = carbon
    return kwargs


def _progress_printer(tag: str):
    """A ``progress(done, total)`` callback printing ~10 stderr lines."""

    def progress(done: int, total: int) -> None:
        stride = max(1, total // 10)
        if done == total or done % stride == 0:
            print(f"[{tag}] {done}/{total} jobs", file=sys.stderr)

    return progress


def _print_session_stats(tag: str, session) -> None:
    """One stderr line: where each requested job's result came from."""
    stats = session.stats
    print(
        f"[{tag}] {stats.requested} jobs requested: "
        f"{stats.executed} executed, {stats.deduplicated} deduplicated, "
        f"{stats.memo_hits} memo hits, {stats.disk_hits} disk hits",
        file=sys.stderr,
    )


def _make_session(args: argparse.Namespace):
    """A SimulationSession configured from the engine options."""
    from repro.engine.session import SimulationSession

    jobs = args.jobs
    if args.profile and jobs > 1:
        print(
            "[note] --profile times the driving process only; "
            "forcing --jobs 1",
            file=sys.stderr,
        )
        jobs = 1
    return SimulationSession(
        jobs=jobs, backend=args.backend, cache_dir=args.cache_dir
    )


def _dispatch(args: argparse.Namespace) -> int:
    from repro.experiments import list_experiments, run_experiment

    if args.command == "run":
        result = run_experiment(
            args.experiment, **_run_kwargs(args, args.experiment)
        )
        rendered = result.render()
        print(rendered)
        if args.out:
            args.out.write_text(rendered + "\n", encoding="utf-8")
        if args.save_json:
            import dataclasses
            import json

            payload = {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "comparisons": [
                    dataclasses.asdict(comparison)
                    for comparison in result.comparisons
                ],
                "data": result.data,
            }
            args.save_json.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"[run] results saved -> {args.save_json}",
                  file=sys.stderr)
        return 0

    if args.command == "all":
        from repro.engine.session import current_session

        args.out_dir.mkdir(parents=True, exist_ok=True)
        experiment_ids = list_experiments()

        def write_report(experiment_id: str, result) -> None:
            path = args.out_dir / f"{experiment_id}.txt"
            path.write_text(result.render() + "\n", encoding="utf-8")
            print(f"[done] {experiment_id} -> {path}")

        session = current_session()
        kwargs_by_id = {
            experiment_id: _run_kwargs(
                args, experiment_id, derive_child_seed=True
            )
            for experiment_id in experiment_ids
        }
        if session.jobs > 1 and len(experiment_ids) > 1:
            # Reports are written from the completion callback, so one
            # failing experiment cannot discard the finished ones.
            session.run_experiments(
                experiment_ids, kwargs_by_id, on_result=write_report
            )
        else:
            # Serial: persist each report as its experiment completes,
            # so a late failure or interrupt keeps the finished work.
            for experiment_id in experiment_ids:
                result = run_experiment(
                    experiment_id, **kwargs_by_id[experiment_id]
                )
                write_report(experiment_id, result)
        return 0

    if args.command == "sweep":
        return _dispatch_sweep(args)

    if args.command == "schedule":
        return _dispatch_schedule(args)

    if args.command == "population":
        return _dispatch_population(args)

    if args.command == "transients":
        return _dispatch_transients(args)

    raise AssertionError("unreachable")


def _dispatch_transients(args: argparse.Namespace) -> int:
    import json

    from repro.core import calibration
    from repro.engine.session import current_session
    from repro.experiments.transients_table import (
        DEFAULT_ACCELERATION,
        run_transients,
    )

    session = current_session()
    result = run_transients(
        trace_length=(
            args.trace_length
            if args.trace_length is not None
            else calibration.DEFAULT_TRACE_LENGTH
        ),
        seed=(
            args.seed if args.seed is not None
            else calibration.DEFAULT_SEED
        ),
        scenario=args.scenario,
        acceleration=(
            args.acceleration
            if args.acceleration is not None
            else DEFAULT_ACCELERATION
        ),
        scrub_interval_us=args.scrub_us,
        intervals=args.intervals,
    )
    _print_session_stats("transients", session)
    rendered = result.render()
    print(rendered)
    if args.out:
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if args.save_json:
        args.save_json.write_text(
            json.dumps(result.data, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"[transients] results saved -> {args.save_json}",
              file=sys.stderr)
    return 0


def _dispatch_population(args: argparse.Namespace) -> int:
    import json

    from repro.core import calibration
    from repro.engine.session import current_session
    from repro.faults.population import (
        DEFAULT_PERCENTILES,
        scenario_population_study,
    )

    seed = (
        args.seed if args.seed is not None
        else calibration.DEFAULT_SEED
    )
    try:
        study = scenario_population_study(
            args.scenario,
            chip=args.chip,
            dies=args.dies,
            trace_length=(
                args.trace_length
                if args.trace_length is not None
                else calibration.DEFAULT_TRACE_LENGTH
            ),
            seed=seed,
            percentiles=args.percentiles or DEFAULT_PERCENTILES,
            transients=_transient_spec(args, seed),
            suite=str(args.suite).lower(),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = current_session()
    result = study.run(
        session=session, progress=_progress_printer("population")
    )
    _print_session_stats("population", session)
    rendered = result.render()
    print(rendered)
    if args.out:
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if args.save_json:
        from repro.cells import technology_tokens

        payload = result.to_dict()
        payload["meta"]["cell_technologies"] = list(
            technology_tokens(study.chip)
        )
        args.save_json.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"[population] results saved -> {args.save_json}",
              file=sys.stderr)
    return 0


def _schedule_trace(args: argparse.Namespace, seed: int):
    """The workload of a ``schedule`` invocation.

    ``sensor`` composes the phased monitoring+burst day-in-the-life
    trace (four 20 %-monitor / 5 %-burst periods); ``mix1..mix7``
    build the multi-programmed mix at the requested length; a name in
    the trace-store catalog schedules that ingested trace; any other
    name is a registered benchmark, generated at the requested length.
    """
    workload = args.workload.lower()
    if workload == "sensor":
        from repro.workloads.phases import sensor_node_trace

        burst = max(args.trace_length // 20, 1)
        return sensor_node_trace(
            monitor_length=4 * burst,
            burst_length=burst,
            bursts=4,
            seed=seed,
        )
    from repro.workloads.suites import MIX_SUITES

    if workload in MIX_SUITES:
        from repro.workloads.source import as_sources

        return as_sources(
            (MIX_SUITES[workload],), length=args.trace_length, seed=seed
        )[0].materialize()
    from repro.workloads.store import TraceStore

    entry = TraceStore().lookup(args.workload)
    if entry is not None:
        from repro.workloads.source import IngestedSource

        return IngestedSource(
            name=entry.name, digest=entry.digest, length=entry.length
        ).materialize()
    from repro.workloads.mediabench import generate_trace

    return generate_trace(
        args.workload, length=args.trace_length, seed=seed
    )


def _dispatch_schedule(args: argparse.Namespace) -> int:
    import json

    from repro.core import Scenario, build_chips, design_scenario
    from repro.core.calibration import DEFAULT_SEED
    from repro.engine.session import current_session
    from repro.runtime import ScheduleSimulator, policy_by_name

    try:
        policy = policy_by_name(
            args.policy,
            hp_duty=args.duty,
            threshold=args.threshold,
            budget_joules=(
                args.budget_mj * 1e-3
                if args.budget_mj is not None
                else None
            ),
            objective=args.objective,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    trace = _schedule_trace(args, seed)
    chips = build_chips(design_scenario(Scenario(args.scenario)))
    chip = getattr(chips, args.chip)

    session = current_session()
    simulator = ScheduleSimulator(
        chip,
        policy,
        epoch_length=args.epoch,
        segmenter=args.segment,
        session=session,
        transients=_transient_spec(args, seed),
    )
    result = simulator.run(trace, progress=_progress_printer("schedule"))
    _print_session_stats("schedule", session)
    rendered = result.render()
    print(rendered)
    if args.out:
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if args.save_json:
        from repro.cells import technology_tokens

        payload = result.to_dict()
        payload["meta"]["cell_technologies"] = list(
            technology_tokens(chip.config)
        )
        args.save_json.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"[schedule] ledger saved -> {args.save_json}",
              file=sys.stderr)
    return 0


def _dispatch_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.core import calibration
    from repro.engine.session import current_session
    from repro.explore import (
        ExplorationCampaign,
        SurrogateSettings,
        default_space,
    )

    if not args.surrogate:
        surrogate_only = [
            name
            for name, value in (
                ("--budget", args.budget),
                ("--seed-candidates", args.seed_candidates),
                ("--round-size", args.round_size),
                ("--hv-tol", args.hv_tol),
                ("--patience", args.patience),
            )
            if value is not None
        ]
        if surrogate_only:
            print(
                f"error: {', '.join(surrogate_only)} "
                "require(s) --surrogate",
                file=sys.stderr,
            )
            return 2

    sampler = args.sampler
    if sampler is None:
        # A budgeted default sweep must cover the space, not a
        # row-major corner of it: switch to the low-discrepancy walk.
        sampler = "halton" if args.samples is not None else "grid"
    if sampler != "grid" and args.samples is None:
        print(
            f"error: --sampler {sampler} needs --samples",
            file=sys.stderr,
        )
        return 2

    space = default_space()
    if args.suite is not None:
        from repro.workloads.suites import known_suite_names

        suite = str(args.suite).lower()
        if suite not in known_suite_names():
            print(
                f"error: unknown suite {args.suite!r}; known: "
                f"{known_suite_names()}",
                file=sys.stderr,
            )
            return 2
        space = space.with_overrides({"suite": (suite,)})
    if args.axes:
        space = space.with_overrides(args.axes)
    if args.backend == "vectorized":
        policies = next(
            (
                axis.values
                for axis in space.axes
                if axis.name == "replacement"
            ),
            ("lru",),
        )
        non_lru = sorted(
            str(p) for p in policies if str(p).lower() != "lru"
        )
        if non_lru:
            print(
                f"error: --backend {args.backend} models LRU "
                f"replacement only, but the space sweeps {non_lru}; "
                "use --backend auto (falls back per candidate)",
                file=sys.stderr,
            )
            return 2
    seed = args.seed if args.seed is not None else calibration.DEFAULT_SEED
    carbon_intensity = None
    if args.carbon is not None:
        from repro.sustainability import grid_intensity

        try:
            carbon_intensity = grid_intensity(args.carbon)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    campaign = ExplorationCampaign(
        space=space,
        sampler=sampler,
        samples=args.samples,
        trace_length=args.trace_length,
        seed=seed,
        dies=max(args.dies, 0),
        transients=_transient_spec(args, seed),
        carbon_intensity=carbon_intensity,
    )

    reuse = None
    if args.resume:
        payload = json.loads(args.resume.read_text(encoding="utf-8"))
        meta = payload.get("meta", {})
        mismatched = [
            f"{key} (saved {meta.get(key)!r}, requested {wanted!r})"
            for key, wanted in (
                ("trace_length", args.trace_length),
                ("seed", seed),
                ("dies", max(args.dies, 0)),
            )
            if meta.get(key) != wanted
        ]
        if mismatched:
            print(
                "error: --resume campaign was run with different "
                f"settings: {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return 2
        saved_cells = meta.get("cell_technologies")
        if saved_cells is not None:
            # Saved metrics embed each candidate's priced physics;
            # adopting rows measured on different cell technologies
            # would silently mix incompatible hardware — hard-error,
            # like the trace-length and seed checks above.
            wanted_cells = list(campaign.expected_technologies())
            if list(saved_cells) != wanted_cells:
                print(
                    "error: --resume campaign covers different cell "
                    f"technologies: saved {list(saved_cells)!r}, "
                    f"requested {wanted_cells!r}",
                    file=sys.stderr,
                )
                return 2
        saved_fingerprint = meta.get("engine_fingerprint")
        if saved_fingerprint is not None:
            from repro.engine.jobs import _code_fingerprint

            if saved_fingerprint != _code_fingerprint():
                # Soft warning, not an error: name-matched candidates
                # still adopt their saved metrics, but anything the
                # saved campaign does not cover gets fresh job keys —
                # the old disk-cache generation no longer applies.
                print(
                    "warning: --resume campaign was produced by a "
                    "different engine version; non-reused candidates' "
                    "results will re-simulate (engine changed)",
                    file=sys.stderr,
                )
        reuse = {
            entry["name"]: entry["metrics"]
            for entry in payload.get("candidates", [])
        }

    session = current_session()
    if args.surrogate:
        settings = SurrogateSettings(
            budget=args.budget,
            seed_candidates=args.seed_candidates,
            round_size=args.round_size,
            rel_tol=args.hv_tol if args.hv_tol is not None else 1e-3,
            patience=args.patience if args.patience is not None else 2,
        )
        result = campaign.run_surrogate(
            session=session,
            settings=settings,
            progress=_progress_printer("sweep"),
            reuse=reuse,
        )
    else:
        result = campaign.run(
            session=session,
            progress=_progress_printer("sweep"),
            reuse=reuse,
        )
    _print_session_stats("sweep", session)
    rendered = result.render_report(top=args.top)
    print(rendered)
    if args.out:
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if args.save_json:
        args.save_json.write_text(
            json.dumps(result.to_dict(), sort_keys=True, indent=2)
            + "\n",
            encoding="utf-8",
        )
        print(f"[sweep] campaign saved -> {args.save_json}",
              file=sys.stderr)
    return 0


def _dispatch_ingest(args: argparse.Namespace) -> int:
    from repro.workloads.ingest import IngestError, ingest_file
    from repro.workloads.store import TraceStore

    store = TraceStore(args.store)
    try:
        entry = ingest_file(
            args.trace_file,
            store=store,
            fmt=args.format,
            name=args.name,
            limit=args.limit,
            skip=max(args.skip, 0),
            force=args.force,
        )
    except OSError as error:
        print(f"error: cannot read {args.trace_file}: {error}",
              file=sys.stderr)
        return 2
    except (IngestError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"[ingest] {entry.name}: {entry.length} instructions "
        f"({entry.format}, parser v{entry.parser_version}) -> "
        f"{entry.digest[:12]}... in {store.root}"
    )
    return 0


def _dispatch_traces(args: argparse.Namespace) -> int:
    from repro.util.tables import Table
    from repro.workloads.store import TraceStore

    store = TraceStore(args.store)
    catalog = store.catalog()
    names = tuple(args.names) if args.names else tuple(sorted(catalog))
    unknown = sorted(set(names) - set(catalog))
    if args.action == "list":
        if unknown:
            print(f"error: not in the catalog: {unknown}",
                  file=sys.stderr)
            return 2
        if not names:
            print(f"[traces] catalog at {store.root} is empty "
                  "(run 'repro ingest')")
            return 0
        table = Table(
            ["name", "instructions", "format", "parser", "source",
             "digest"],
            title=f"Ingested traces — {store.root}",
        )
        for name in names:
            entry = catalog[name]
            table.add_row([
                entry.name,
                entry.length,
                entry.format,
                f"v{entry.parser_version}",
                f"{entry.source_name} "
                f"({entry.source_digest[:12]}...)",
                f"{entry.digest[:12]}...",
            ])
        print(table.render())
        return 0
    # verify: re-hash stored bytes against their content addresses.
    report = store.verify(names if names else None)
    status = 0
    for name, state, detail in report:
        print(f"[traces] {name}: {state} ({detail})")
        if state != "ok":
            status = 1
    if not report:
        print(f"[traces] catalog at {store.root} is empty; "
              "nothing to verify")
    return status


def _dispatch_serve(args: argparse.Namespace) -> int:
    import time

    from repro.engine.session import DiskResultCache
    from repro.service.api import serve_in_thread
    from repro.service.scheduler import ServiceScheduler

    store = None
    if args.cache_dir is not None:
        # Route through the engine's generation layer so the service
        # shares entries (and byte-identical payloads) with any library
        # session pointing --cache-dir at the same directory.
        store = DiskResultCache(args.cache_dir).store
    scheduler = ServiceScheduler(
        store,
        workers=args.workers,
        backend=args.backend,
        queue_capacity=args.queue_capacity,
        tenant_quota=args.tenant_quota,
    )
    scheduler.start()
    handle = serve_in_thread(scheduler, host=args.host, port=args.port)
    print(
        f"[serve] fleet service listening on "
        f"http://{handle.host}:{handle.port} "
        f"({args.workers} workers, queue {args.queue_capacity}"
        + (
            f", quota {args.tenant_quota}/tenant"
            if args.tenant_quota
            else ""
        )
        + ")",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(3600.0)
    except KeyboardInterrupt:
        print("[serve] shutting down", file=sys.stderr)
    finally:
        handle.close()
        scheduler.stop()
    return 0


def _dispatch_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.requests import JobRequest, RequestError
    from repro.util.tables import Table

    try:
        requests = [
            JobRequest(
                benchmark=benchmark.strip(),
                trace_length=args.trace_length,
                seed=int(seed),
                mode=args.mode,
                scenario=args.scenario,
                chip=args.chip,
            )
            for benchmark in args.benchmarks.split(",")
            if benchmark.strip()
            for seed in args.seeds.split(",")
            if seed.strip()
        ]
    except (RequestError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not requests:
        print("error: no jobs requested", file=sys.stderr)
        return 2
    client = ServiceClient(
        args.host, args.port, tenant=args.tenant, timeout=args.timeout
    )
    if not client.healthy():
        print(
            f"error: no service at http://{args.host}:{args.port} "
            "(start one with: python -m repro serve)",
            file=sys.stderr,
        )
        return 2
    try:
        keys = client.submit_all(requests)
        states = client.wait(keys, timeout=args.timeout)
    except (ServiceError, TimeoutError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    table = Table(
        ["benchmark", "seed", "mode", "state", "EPI [pJ]", "job key"],
        title=f"{len(requests)} jobs via {args.host}:{args.port} "
        f"(tenant {args.tenant})",
    )
    failed = 0
    for request, key in zip(requests, keys):
        state = states.get(key, "unknown")
        epi = ""
        if state == "done":
            metrics = client.poll(key, with_result=True).get("metrics", {})
            if "epi" in metrics:
                epi = f"{metrics['epi'] * 1e12:.3f}"
        else:
            failed += 1
        table.add_row(
            [
                request.benchmark,
                str(request.seed),
                request.mode,
                state,
                epi,
                key[:12],
            ]
        )
    print(table.render())
    stats = client.stats()["scheduler"]
    print(
        f"[submit] service totals: {stats['submitted']} submitted, "
        f"{stats['executed']} executed, "
        f"dedup {stats['dedup_fraction']:.0%}",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _design_mc_check(design, seed: int) -> str:
    """Seeded importance-sampling cross-check of the analytic Pf values.

    Child streams derive from the root seed and the quantity's label
    path, so the same ``--seed`` reproduces the same table bit-for-bit
    regardless of evaluation order.
    """
    from repro.cells import importance_sampling_pf
    from repro.tech.operating import HP_OPERATING_POINT, ULE_OPERATING_POINT
    from repro.util.rng import RngStreams
    from repro.util.tables import Table

    streams = RngStreams(seed)
    scenario = design.scenario.value
    table = Table(
        ["cell @ Vdd", "analytic Pf", "sampled Pf", "rel. err"],
        title=f"Importance-sampling cross-check (seed {seed})",
    )
    checks = (
        ("6T", design.cell_6t, HP_OPERATING_POINT.vdd, design.pf_6t_hp),
        ("10T", design.cell_10t, ULE_OPERATING_POINT.vdd,
         design.pf_10t_ule),
        ("8T", design.cell_8t, ULE_OPERATING_POINT.vdd, design.pf_8t_ule),
    )
    for name, cell, vdd, analytic in checks:
        rng = streams.fresh("design", scenario, name)
        estimate = importance_sampling_pf(cell, vdd, 20_000, rng)
        table.add_row(
            [
                f"{name} @ {vdd * 1e3:.0f} mV",
                f"{analytic:.3g}",
                f"{estimate.pf:.3g}",
                f"{estimate.relative_error:.2g}",
            ]
        )
    return table.render()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse argv, dispatch, return exit status."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments import list_experiments
        from repro.experiments.registry import experiment_parameters

        for experiment_id in list_experiments():
            parameters = ", ".join(sorted(
                experiment_parameters(experiment_id)
            ))
            print(f"{experiment_id:<20} ({parameters})")
        return 0

    if args.command == "design":
        from repro.core import Scenario, design_scenario

        design = design_scenario(Scenario(args.scenario))
        print(design.summary())
        if args.seed is not None:
            print()
            print(_design_mc_check(design, args.seed))
        return 0

    if args.command == "pareto":
        import json

        from repro.explore.pareto import Objective, render_saved_campaign

        try:
            payload = json.loads(args.results.read_text(encoding="utf-8"))
        except OSError as error:
            print(f"error: cannot read {args.results}: {error}",
                  file=sys.stderr)
            return 2
        except json.JSONDecodeError as error:
            print(f"error: {args.results} is not valid JSON: {error}",
                  file=sys.stderr)
            return 2
        objectives = None
        if args.objectives:
            try:
                objectives = tuple(
                    Objective.parse(text.strip())
                    for text in args.objectives.split(",")
                    if text.strip()
                )
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            if not objectives:
                print(
                    "error: --objectives names no metrics; use "
                    "metric[:min|:max][,...]",
                    file=sys.stderr,
                )
                return 2
        try:
            rendered = render_saved_campaign(
                payload, objectives, top=args.top
            )
        except KeyError as error:
            print(
                f"error: metric {error} not present in the saved "
                "campaign's candidates",
                file=sys.stderr,
            )
            return 2
        print(rendered)
        return 0

    if args.command == "ingest":
        return _dispatch_ingest(args)

    if args.command == "traces":
        return _dispatch_traces(args)

    if args.command == "serve":
        return _dispatch_serve(args)

    if args.command == "submit":
        return _dispatch_submit(args)

    from repro.engine.session import use_session
    from repro.util.profiling import profiled

    with _make_session(args) as session, use_session(session):
        if args.profile:
            with profiled() as profiler:
                status = _dispatch(args)
            print()
            print(profiler.render())
            return status
        return _dispatch(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro design A | head`
        sys.exit(0)
