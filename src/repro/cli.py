"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflows:

* ``census``  — Table-1-style hazard census of the standard libraries;
* ``audit``   — per-cell hazard records of one library, each confirmed
  by a replayed witness transition and cross-checked against the
  exhaustive oracle;
* ``map``     — map a benchmark (or an equation/BLIF file) onto a
  library with the sync or async mapper, optionally with hazard
  don't-cares, and verify the result;
* ``certify`` — independently re-check mapped networks against their
  source designs (BDD/truth-table equivalence + replayed hazard
  transitions) and emit ``repro-cert/v1`` certificates; ``map --verify``
  and ``batch --verify`` attach the same checker's verdict to a map;
* ``explain`` — render the per-cone decision report of a
  ``repro-explain/v1`` log (or map a catalog benchmark on the fly and
  render its log the same way);
* ``batch``   — map a whole catalog of (design, library) jobs through
  the fault-tolerant batch engine (a process pool or inline jobs,
  deadlines, retries, resumable ``repro-batch/v1`` journal);
  ``--bench-snapshot`` writes the ``BENCH_mapping.json`` snapshot that
  ``benchmarks/check_regression.py`` gates against;
* ``bench``   — list the benchmark catalog;
* ``serve``   — run the persistent mapping daemon (HTTP/JSON over the
  ``repro-api/v1`` contract, ``/v1/map`` and ``/v1/certify``):
  libraries, hazard annotations, and matching indexes stay warm across
  requests, which execute on the daemon's connection threads;
* ``cache``   — inspect or clear the on-disk caches: per-library hazard
  annotations and content-addressed whole-map results.

``map`` persists library hazard annotations to a disk cache by default
(pass ``--no-cache`` to disable, ``--cache-dir`` to relocate).
``--result-cache`` additionally replays whole map responses from the
content-addressed result cache when the exact (network, library,
options) triple was mapped before (see ``docs/caching.md``).  ``map
--trace out.json`` records the run as a span tree (``repro-trace/v1``)
and ``--metrics`` prints the run's counter/gauge/histogram snapshot;
both are also available on ``batch``.  ``map --explain [FILE]`` writes the
witness-backed decision log (``repro-explain/v1``) that ``repro
explain`` renders.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .api import (
    BATCH_OPTION_NAMES,
    ApiError,
    MapRequest,
    add_option_arguments,
    execute_map,
    netlist_blif,
    option_values_from_args,
    read_blif_text,
    run_map,
)
from .batch import (
    BACKEND_NAMES,
    BatchConfig,
    BatchJob,
    check_artifacts,
    run_batch,
    validate_journal,
)
from .burstmode.benchmarks import CATALOG, TABLE5_ORDER, synthesize_benchmark
from .library import anncache
from .library.standard import ALL_LIBRARIES, load_library
from .obs.explain import render_explain, validate_explain_payload
from .obs.export import (
    CERT_SCHEMA,
    load_explain,
    write_bench_snapshot,
    write_certificate,
    write_explain,
    write_trace,
)
from .obs.metrics import MetricsRegistry
from .obs.tracer import Tracer
from .reporting import render_table
from .testing.faults import FaultPlan


def _cmd_census(args: argparse.Namespace) -> int:
    rows = []
    for name in ALL_LIBRARIES:
        library = load_library(name)
        report = library.annotate_hazards()
        census = library.census()
        rows.append(
            (
                name,
                ",".join(census["hazardous_families"]) or "none",
                census["hazardous"],
                census["total"],
                f"{census['percent']}%",
                f"{report.elapsed:.2f}s",
            )
        )
    print(
        render_table(
            ["Library", "Families", "#", "Total", "%", "Annotation"],
            rows,
            title="Hazard census (paper Table 1)",
        )
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .hazards.oracle import classify_transition
    from .hazards.witness import analysis_witnesses, replay_witness

    library = load_library(args.library)
    report = library.annotate_hazards()
    print(
        f"{library.name}: {report.cells} cells, {report.hazardous} hazardous "
        f"({report.hazardous_fraction:.0%}), annotated in {report.elapsed:.2f}s"
    )
    mismatches = 0
    for cell in library.hazardous_cells():
        assert cell.analysis is not None
        print(f"\n{cell.name}: {cell.expression.to_string()}")
        for line in cell.analysis.describe():
            print(f"  {line}")
        # One concrete witness per hazard class: replay it on the event
        # simulator AND cross-check the exhaustive oracle's verdict for
        # the same transition, so the audit is evidence, not assertion.
        for record, witness in analysis_witnesses(cell.analysis, per_class=1):
            replay = replay_witness(cell.analysis.lsop, witness)
            verdict = classify_transition(
                cell.analysis.lsop, witness.start, witness.end
            )
            confirmed = replay.glitched and verdict.logic_hazard
            status = "confirmed" if confirmed else "MISMATCH"
            if not confirmed:
                mismatches += 1
            print(
                f"  witness [{witness.kind}] {witness.transition_string()}: "
                f"{replay.changes} output change(s), expected "
                f"{replay.expected} — eventsim "
                f"{'glitched' if replay.glitched else 'clean'}, oracle "
                f"{'hazard' if verdict.logic_hazard else 'clean'} "
                f"({status})"
            )
    if mismatches:
        print(f"\n{mismatches} witness(es) FAILED cross-check", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = []
    for name, info in CATALOG.items():
        synthesis = synthesize_benchmark(name)
        stats = synthesis.spec.stats()
        rows.append(
            (
                name,
                info.description,
                stats["states"],
                stats["transitions"],
                synthesis.total_literals(),
            )
        )
    print(
        render_table(
            ["Benchmark", "Description", "States", "Bursts", "Literals"],
            rows,
            title="Benchmark catalog (paper Table 5)",
        )
    )
    return 0


def _resolved_cache_dir(args: argparse.Namespace) -> anncache.CacheDir:
    # DISABLED (not None) so --no-cache also wins over a set
    # REPRO_ANNOTATION_CACHE environment toggle.
    return (
        anncache.DISABLED
        if args.no_cache
        else (args.cache_dir or str(anncache.default_cache_root()))
    )


def _map_request(args: argparse.Namespace, network) -> MapRequest:
    """The ``repro-api/v1`` request a ``repro map`` invocation denotes."""
    design = args.design if args.design in CATALOG else None
    payload = None if design else {"blif": netlist_blif(network)}
    return MapRequest(
        library=args.library,
        design=design,
        network=payload,
        dont_cares=args.dont_cares,
        explain=args.explain is not None,
        verify=args.verify,
        deadline_seconds=args.deadline,
        **option_values_from_args(args),
    )


def _cmd_map(args: argparse.Namespace) -> int:
    if args.design in CATALOG:
        network = synthesize_benchmark(args.design).netlist(args.design)
    else:
        from .io import read_blif, read_equations

        with open(args.design) as handle:
            if args.design.endswith(".blif"):
                network = read_blif(handle)
            else:
                network = read_equations(handle)
        if args.dont_cares:
            print("--dont-cares requires a catalog benchmark", file=sys.stderr)
            return 2

    try:
        request = _map_request(args, network)
    except ApiError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2

    cache_dir = _resolved_cache_dir(args)
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry()
    # A one-shot CLI process resolves its library directly (annotation
    # warmth comes from the disk cache); only long-lived callers — the
    # service, batch workers — go through the process-wide warm cache.
    response, result = run_map(
        request,
        library=load_library(args.library),
        network=network,
        cache_dir=cache_dir,
        metrics=metrics,
        tracer=tracer,
    )
    if result is None:
        # Result-cache hit: the stored response is replayed verbatim and
        # there are no in-memory mapping objects to print from.
        print(
            f"{response.mode} mapping of {response.design} onto "
            f"{response.library}: area={response.area:.0f} "
            f"delay={response.delay:.2f} cpu={response.map_seconds:.2f}s "
            f"(result cache: {response.cached} hit)"
        )
        print(f"cells: {response.cell_usage}")
    else:
        print(
            f"{result.mode} mapping of {network.name} onto "
            f"{result.library.name}: "
            f"area={result.area:.0f} delay={result.delay:.2f} "
            f"cpu={result.elapsed:.2f}s"
        )
        if response.fallback:
            print(
                f"deadline fallback: {response.fallback} "
                f"(budget ran out at {response.deadline_site})"
            )
        print(f"cells: {result.cell_usage()}")
        if result.annotation_report is not None:
            report = result.annotation_report
            line = (
                f"annotation: {report.source} in {report.elapsed:.2f}s "
                f"({report.hazardous}/{report.cells} cells hazardous)"
            )
            if report.warm and report.cold_elapsed is not None:
                line += f"; cold pass was {report.cold_elapsed:.2f}s"
            print(line)
        stats = result.stats
        print(f"covering: {stats.cones} cones in {stats.cone_seconds:.2f}s")
        if stats.hazardous_matches:
            print(
                f"hazard filter: {stats.hazardous_matches} screened, "
                f"{stats.hazard_rejections} rejected, "
                f"{stats.hazard_accepts} accepted, "
                f"{stats.dc_waivers} waived by don't-cares"
            )
    if tracer is not None:
        tracer.assert_well_formed()
        write_trace(args.trace, tracer, metrics=metrics)
        print(f"trace written to {args.trace}")
    if args.explain is not None and response.explain is not None:
        _write_explain(args.explain or f"{network.name}_explain.json",
                       response.explain)
    if args.metrics:
        print("metrics:")
        for line in _format_metrics(metrics):
            print(f"  {line}")
    # The certifier's verdict, computed with the map or replayed with a
    # result-cache hit.
    verdict = response.verify
    if verdict is not None:
        print(
            f"verification: equivalent={verdict['equivalent']} "
            f"hazard_safe={verdict['hazard_safe']}"
        )
        if not verdict["ok"]:
            print("  ! not certified; counterexamples: "
                  "repro certify DESIGN --mapped FILE")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(response.blif)
        print(f"mapped network written to {args.output}")
    return 0 if verdict is None or verdict["ok"] else 1


def _write_explain(path: str, payload: dict) -> None:
    """Write an explain payload (validated on write); print its summary."""
    write_explain(path, payload)
    summary = payload["summary"]
    print(
        f"explain: {summary['candidates']} decisions over "
        f"{summary['cones']} cones "
        f"({summary['rejected_hazard']} hazard-rejected, "
        f"{summary['waived_dont_care']} waived) "
        f"written to {path}"
    )


def _report_certificate(label: str, certificate) -> bool:
    """Print one certificate verdict line (plus refutations); True if ok."""
    print(
        f"  {label}: {certificate.verdict.upper()} — "
        f"{certificate.outputs_checked} output(s), "
        f"{certificate.transitions_checked} transition(s), "
        f"{certificate.replays} replay(s), "
        f"digest {certificate.evidence_digest[:12]} "
        f"({certificate.elapsed:.2f}s)"
    )
    for violation in certificate.violations[:5]:
        print(f"    ! {violation}")
    shown = 0
    for counterexample in certificate.counterexamples:
        if counterexample.source_hazard:
            continue  # allowed-hazard evidence, not a refutation
        print(f"    counterexample: {counterexample.describe()}")
        shown += 1
        if shown >= 3:
            break
    return certificate.certified


def _cmd_certify(args: argparse.Namespace) -> int:
    from .conformance.certifier import certify_mapping

    designs = args.designs or list(TABLE5_ORDER)
    unknown = sorted(set(designs) - set(CATALOG))
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.mapped and len(designs) != 1:
        print("--mapped certifies one design; name exactly one", file=sys.stderr)
        return 2

    library = load_library(args.library)
    cache_dir = _resolved_cache_dir(args)
    metrics = MetricsRegistry()
    certificates: dict[str, dict] = {}
    rejected = []
    print(
        f"certify: {len(designs)} design(s) against {args.library} "
        f"(exhaustive<= {args.exhaustive_limit} vars, "
        f"{args.samples} samples, seed {args.seed})"
    )
    for design in designs:
        source = synthesize_benchmark(design).netlist(design)
        if args.mapped:
            with open(args.mapped) as handle:
                mapped = read_blif_text(handle.read())
        else:
            request = MapRequest(
                library=args.library, design=design, max_depth=args.depth
            )
            _, result = run_map(
                request,
                library=library,
                network=source,
                cache_dir=cache_dir,
                metrics=metrics,
            )
            mapped = result.mapped
        certificate = certify_mapping(
            source,
            mapped,
            library,
            exhaustive_limit=args.exhaustive_limit,
            samples=args.samples,
            seed=args.seed,
            metrics=metrics,
        )
        certificates[design] = certificate.to_dict()
        if not _report_certificate(design, certificate):
            rejected.append(design)
    if args.json:
        if len(designs) == 1:
            write_certificate(args.json, certificates[designs[0]])
        else:
            # A multi-design run writes one stamped envelope keyed by
            # design so the file still round-trips load_certificate.
            write_certificate(
                args.json,
                {"schema": CERT_SCHEMA, "certificates": certificates},
            )
        print(f"certificate(s) written to {args.json}")
    if rejected:
        print(f"REJECTED: {', '.join(rejected)}", file=sys.stderr)
        return 1
    print(f"all {len(designs)} design(s) certified")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .batch.journal import JournalError

    designs = args.designs or list(TABLE5_ORDER)
    unknown = sorted(set(designs) - set(CATALOG))
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    options = option_values_from_args(args)
    try:
        jobs = [
            BatchJob(
                design=design,
                library=library,
                verify=args.verify,
                explain=args.explain,
                **{name: options[name] for name in BATCH_OPTION_NAMES},
            )
            for library in args.libraries
            for design in designs
        ]
        # The deadline is not part of a job's spec; check it on the
        # request every worker will execute.
        jobs[0].to_request(args.deadline)
    except ValueError as exc:
        print(f"bad request: {exc}", file=sys.stderr)
        return 2

    journal = args.journal or (
        str(args.output_dir) + "/batch_journal.jsonl" if args.output_dir else None
    )
    if args.check:
        if not journal:
            print("--check needs --journal or --output-dir", file=sys.stderr)
            return 2
        try:
            _, results = validate_journal(journal)
        except (OSError, JournalError) as exc:
            print(f"journal check FAILED: {exc}", file=sys.stderr)
            return 1
        problems = check_artifacts(results, args.output_dir)
        missing = [j.job_id for j in jobs if j.job_id not in results]
        for job_id in missing:
            problems.append(f"{job_id}: no journalled result")
        if problems:
            print(f"batch check FAILED ({len(problems)} problem(s)):")
            for problem in problems:
                print(f"  ! {problem}")
            return 1
        print(
            f"batch check passed: {len(results)} journalled job(s) verified "
            f"against {journal}"
        )
        return 0

    cache_dir = _resolved_cache_dir(args)
    try:
        fault_plan = FaultPlan.parse(args.inject) if args.inject else None
    except ValueError as exc:
        print(f"bad --inject spec: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry()

    def progress(record: dict) -> None:
        status = record.get("status")
        note = ""
        if record.get("skipped"):
            note = " (resumed from journal)"
        elif record.get("fallback"):
            note = f" (deadline fallback: {record['fallback']})"
        elif record.get("attempts", 1) > 1:
            note = f" ({record['attempts']} attempts)"
        if status == "ok":
            print(
                f"  {record['job_id']}: area={record['area']:.0f} "
                f"cells={record['cells']} "
                f"{record.get('map_seconds', 0.0):.2f}s{note}"
            )
        else:
            print(
                f"  {record['job_id']}: {status.upper()} — "
                f"{record.get('error', 'no detail')}{note}"
            )

    config = BatchConfig(
        backend=args.backend,
        workers=args.workers,
        deadline=args.deadline,
        retries=args.retries,
        backoff=args.backoff,
        cache_dir=cache_dir,
        journal=journal,
        output_dir=args.output_dir,
        resume=args.resume,
        fault_plan=fault_plan,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
        result_cache=args.result_cache,
    )
    print(
        f"batch: {len(jobs)} job(s) "
        f"({len(designs)} design(s) × {len(args.libraries)} librar"
        f"{'y' if len(args.libraries) == 1 else 'ies'}) on the "
        f"{args.backend} backend, workers={config.resolved_workers()}"
    )
    report = run_batch(jobs, config)
    counts = report.counts()
    print(
        f"batch finished in {report.elapsed:.2f}s: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v)
        + (f", pool_breaks={report.pool_breaks}" if report.pool_breaks else "")
    )
    if report.journal is not None:
        print(f"journal: {report.journal}")
    if args.bench_snapshot:
        snapshot = report.to_bench_snapshot(max_depth=args.max_depth)
        write_bench_snapshot(args.bench_snapshot, snapshot)
        print(f"bench snapshot written to {args.bench_snapshot}")
    if tracer is not None:
        tracer.assert_well_formed()
        write_trace(args.trace, tracer, metrics=metrics)
        print(f"trace written to {args.trace}")
    if args.metrics:
        print("metrics:")
        for line in _format_metrics(metrics):
            print(f"  {line}")
    failed = [r for r in report.results if r.get("status") != "ok"]
    bad_verify = [
        r
        for r in report.results
        if r.get("status") == "ok" and not r.get("verify", {}).get("ok", True)
    ]
    for record in failed:
        print(
            f"FAILED {record['job_id']}: {record.get('error')}",
            file=sys.stderr,
        )
    for record in bad_verify:
        print(f"VERIFY FAILED {record['job_id']}", file=sys.stderr)
    return 1 if failed or bad_verify else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if os.path.exists(args.source):
        payload = load_explain(args.source)
    elif args.source in CATALOG:
        payload = execute_map(
            MapRequest(library=args.library, design=args.source, explain=True)
        ).explain
    else:
        print(
            f"{args.source}: not an explain JSON file or catalog benchmark",
            file=sys.stderr,
        )
        return 2
    try:
        validate_explain_payload(payload)
    except ValueError as exc:
        print(f"invalid explain payload: {exc}", file=sys.stderr)
        return 1
    for line in render_explain(
        payload,
        cone=args.cone,
        limit=args.limit,
        rejected_only=args.rejected_only,
    ):
        print(line)
    return 0


def _format_metrics(registry: MetricsRegistry) -> list[str]:
    lines = []
    for name, snap in registry.snapshot().items():
        if snap["type"] == "histogram":
            mean = f"{snap['mean']:.6f}" if snap["mean"] is not None else "-"
            lines.append(
                f"{name} = histogram(count={snap['count']}, "
                f"sum={snap['sum']:.6f}, mean={mean})"
            )
        else:
            lines.append(f"{name} = {snap['value']}")
    return lines


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ServiceConfig, serve

    try:
        fault_plan = FaultPlan.parse(args.inject) if args.inject else None
    except ValueError as exc:
        print(f"bad --inject spec: {exc}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline_seconds=args.deadline,
        cache_dir=_resolved_cache_dir(args),
        preload=tuple(args.preload or ()),
        fault_plan=fault_plan,
        trace_path=args.trace,
        metrics_path=args.metrics_file,
    )
    return serve(config)


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.inspect import (
        critical_path,
        diff_traces,
        load_trace,
        render_critical,
        render_diff,
        render_top,
        render_tree,
        top_spans,
    )

    try:
        if args.view == "diff":
            diff = diff_traces(load_trace(args.trace), load_trace(args.other))
            lines = render_diff(diff, limit=args.limit)
        else:
            payload = load_trace(args.trace)
            if args.view == "tree":
                lines = render_tree(payload, max_depth=args.depth)
            elif args.view == "top":
                lines = render_top(top_spans(payload, limit=args.limit))
            else:  # critical
                lines = render_critical(critical_path(payload))
    except (OSError, ValueError) as exc:
        print(f"cannot inspect trace: {exc}", file=sys.stderr)
        return 1
    try:
        for line in lines:
            print(line)
    except BrokenPipeError:
        # Downstream pager/head closed early; suppress the traceback the
        # interpreter would otherwise print while flushing stdout at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import resultcache

    root = args.cache_dir or str(anncache.default_cache_root())
    if args.clear:
        removed = anncache.clear_annotation_cache(root)
        print(f"cleared {removed} cached annotation payload(s) from {root}")
        removed = resultcache.clear_result_cache(root)
        print(f"cleared {removed} cached map result(s) from {root}")
        return 0
    entries = anncache.cache_entries(root)
    print(f"annotation cache at {root}: {len(entries)} entrie(s)")
    for path in entries:
        size = path.stat().st_size
        print(f"  {path.name}  ({size} bytes)")
    results = resultcache.result_entries(root)
    total = sum(path.stat().st_size for path in results)
    print(
        f"result cache at {root}: {len(results)} entrie(s), {total} bytes"
    )
    for path in results:
        size = path.stat().st_size
        print(f"  {path.name}  ({size} bytes)")
    return 0


def _positive_int(text: str) -> int:
    """An argparse ``type`` for pool widths and queue limits."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hazard-aware technology mapping (Siegel/De Micheli/Dill, DAC'93)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("census", help="Table-1 hazard census").set_defaults(
        func=_cmd_census
    )

    audit = sub.add_parser("audit", help="per-cell hazard audit of a library")
    audit.add_argument("library", choices=sorted(ALL_LIBRARIES))
    audit.set_defaults(func=_cmd_audit)

    sub.add_parser("bench", help="list the benchmark catalog").set_defaults(
        func=_cmd_bench
    )

    map_cmd = sub.add_parser("map", help="map a design onto a library")
    map_cmd.add_argument("design", help="catalog benchmark, .eqn, or .blif file")
    map_cmd.add_argument("library", choices=sorted(ALL_LIBRARIES))
    # Option flags (--sync/--depth/--max-inputs/--objective/--filter-mode/
    # --result-cache) are derived from the repro-api/v1 declaration table.
    add_option_arguments(map_cmd)
    map_cmd.add_argument(
        "--dont-cares",
        action="store_true",
        help="waive hazards outside the specified bursts (section 6)",
    )
    map_cmd.add_argument(
        "--verify",
        action="store_true",
        help="certify the mapped network (equivalence + Theorem 3.2 "
        "hazard containment); nonzero exit on rejection",
    )
    map_cmd.add_argument("--output", help="write the mapped network as BLIF")
    map_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="budget in seconds; overruns degrade to the trivial "
        "depth-1 cover",
    )
    map_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk library-annotation cache "
        "(overrides REPRO_ANNOTATION_CACHE)",
    )
    map_cmd.add_argument(
        "--cache-dir", help="annotation cache location (default: ~/.cache/repro-tmap)"
    )
    map_cmd.add_argument(
        "--trace",
        metavar="FILE",
        help="record the run as a repro-trace/v1 span tree at FILE",
    )
    map_cmd.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics snapshot",
    )
    map_cmd.add_argument(
        "--explain",
        metavar="FILE",
        nargs="?",
        const="",
        default=None,
        help="record every covering decision as a repro-explain/v1 log "
        "(default FILE: <design>_explain.json)",
    )
    map_cmd.set_defaults(func=_cmd_map)

    batch = sub.add_parser(
        "batch",
        help="map a catalog of jobs through the fault-tolerant batch engine",
    )
    batch.add_argument(
        "designs",
        nargs="*",
        help="catalog benchmarks (default: the full Table-5 catalog)",
    )
    batch.add_argument(
        "--libraries",
        nargs="+",
        choices=sorted(ALL_LIBRARIES),
        default=["CMOS3"],
        help="target libraries; jobs are the designs × libraries product",
    )
    batch.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="processes",
        help="execution backend (default: processes)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=0,
        help="pool width (0 = one per CPU)",
    )
    batch.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job budget in seconds; overruns degrade to the "
        "trivial depth-1 cover",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per job for transient failures (default: 2)",
    )
    batch.add_argument(
        "--backoff",
        type=float,
        default=0.5,
        help="base backoff seconds, doubled per attempt (default: 0.5)",
    )
    # Shared option flags from the repro-api/v1 table.
    add_option_arguments(batch)
    batch.add_argument(
        "--verify",
        action="store_true",
        help="certify every mapped network (equivalence + Theorem 3.2 "
        "hazard containment); nonzero exit on rejection",
    )
    batch.add_argument(
        "--explain",
        action="store_true",
        help="write a repro-explain/v1 log next to each netlist artifact",
    )
    batch.add_argument(
        "--journal",
        help="repro-batch/v1 checkpoint journal path "
        "(default: <output-dir>/batch_journal.jsonl)",
    )
    batch.add_argument(
        "--output-dir",
        help="write each mapped network as BLIF (plus the journal) here",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="skip journalled jobs whose spec and artifact digests verify",
    )
    batch.add_argument(
        "--check",
        action="store_true",
        help="verify the journal and artifacts without mapping; "
        "nonzero exit on tamper/failure",
    )
    batch.add_argument(
        "--bench-snapshot",
        metavar="FILE",
        help="write a repro-bench-mapping/v1 snapshot (single-library "
        "batches; gated by benchmarks/check_regression.py --subset)",
    )
    batch.add_argument(
        "--inject",
        action="append",
        metavar="KIND@SITE[#JOB][*TIMES]",
        help="install a deterministic fault (e.g. raise@cover.cone#chu-ad-opt); "
        "repeatable, for CI smoke tests of the retry path",
    )
    batch.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk library-annotation cache",
    )
    batch.add_argument(
        "--cache-dir", help="annotation cache location (default: ~/.cache/repro-tmap)"
    )
    batch.add_argument(
        "--trace",
        metavar="FILE",
        help="record the run as a repro-trace/v1 span tree at FILE",
    )
    batch.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics snapshot",
    )
    batch.set_defaults(func=_cmd_batch)

    certify = sub.add_parser(
        "certify",
        help="independently certify mapped networks (repro-cert/v1)",
    )
    certify.add_argument(
        "designs",
        nargs="*",
        help="catalog benchmarks (default: the full Table-5 catalog)",
    )
    certify.add_argument(
        "--library",
        choices=sorted(ALL_LIBRARIES),
        default="CMOS3",
        help="target library (default: CMOS3)",
    )
    certify.add_argument(
        "--depth",
        type=int,
        default=3,
        help="cluster-enumeration depth for the mapping pass (default: 3)",
    )
    certify.add_argument(
        "--mapped",
        metavar="FILE",
        help="certify an existing mapped BLIF against one named design "
        "instead of mapping it here",
    )
    certify.add_argument(
        "--exhaustive-limit",
        type=int,
        default=6,
        help="enumerate every transition pair up to this many support "
        "variables; sample above it (default: 6)",
    )
    certify.add_argument(
        "--samples",
        type=int,
        default=150,
        help="sampled transitions per output above the exhaustive "
        "limit (default: 150)",
    )
    certify.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the sampled-transition generator (default: 0)",
    )
    certify.add_argument(
        "--json",
        metavar="FILE",
        help="write the repro-cert/v1 certificate(s) to FILE",
    )
    certify.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk library-annotation cache",
    )
    certify.add_argument(
        "--cache-dir", help="annotation cache location (default: ~/.cache/repro-tmap)"
    )
    certify.set_defaults(func=_cmd_certify)

    explain_cmd = sub.add_parser(
        "explain",
        help="render the per-cone decision report of an explain log",
    )
    explain_cmd.add_argument(
        "source",
        help="a repro-explain/v1 JSON file, or a catalog benchmark "
        "to map on the fly",
    )
    explain_cmd.add_argument(
        "--library",
        choices=sorted(ALL_LIBRARIES),
        default="CMOS3",
        help="library for on-the-fly mapping (default: CMOS3)",
    )
    explain_cmd.add_argument("--cone", help="restrict to one cone root")
    explain_cmd.add_argument(
        "--limit", type=int, help="cap candidate lines per cone"
    )
    explain_cmd.add_argument(
        "--rejected-only",
        action="store_true",
        help="show only hazard-rejected candidates",
    )
    explain_cmd.set_defaults(func=_cmd_explain)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the persistent mapping service (HTTP/JSON, repro-api/v1)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8347,
        help="listen port (0 = an ephemeral port, reported at startup)",
    )
    # Requests execute on the connection threads; the one-value flag
    # stays for command lines that still pass it (perfbench/serve.py's).
    serve_cmd.add_argument(
        "--backend",
        choices=("threads",),
        default="threads",
        help="only 'threads': requests execute on the connection threads",
    )
    serve_cmd.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="requests executing at once (default: 2)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=_positive_int,
        default=8,
        help="max requests admitted at once; beyond it clients get 429",
    )
    serve_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request budget in seconds; overruns degrade "
        "to the trivial depth-1 cover",
    )
    serve_cmd.add_argument(
        "--preload",
        nargs="*",
        choices=sorted(ALL_LIBRARIES),
        help="libraries to load, annotate, and index at boot",
    )
    serve_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk library-annotation cache",
    )
    serve_cmd.add_argument(
        "--cache-dir", help="annotation cache location (default: ~/.cache/repro-tmap)"
    )
    serve_cmd.add_argument(
        "--inject",
        action="append",
        metavar="KIND@SITE[#JOB][*TIMES]",
        help="install a deterministic fault plan (smoke tests only)",
    )
    serve_cmd.add_argument(
        "--trace",
        metavar="FILE",
        help="write the service's repro-trace/v1 span forest at shutdown",
    )
    serve_cmd.add_argument(
        "--metrics-file",
        metavar="FILE",
        help="write the repro-metrics/v1 snapshot at shutdown",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs",
        help="inspect repro-trace/v1 files: tree, hot spans, critical "
        "path, run-to-run diff",
    )
    obs_sub = obs.add_subparsers(dest="view", required=True)
    obs_tree = obs_sub.add_parser("tree", help="render the span tree")
    obs_tree.add_argument("trace", help="a repro-trace/v1 JSON file")
    obs_tree.add_argument(
        "--depth", type=int, default=None, help="clip the tree at this depth"
    )
    obs_top = obs_sub.add_parser(
        "top", help="hottest span groups by self-time"
    )
    obs_top.add_argument("trace", help="a repro-trace/v1 JSON file")
    obs_top.add_argument("--limit", type=int, default=10)
    obs_critical = obs_sub.add_parser(
        "critical", help="greedy longest-duration root-to-leaf chain"
    )
    obs_critical.add_argument("trace", help="a repro-trace/v1 JSON file")
    obs_diff = obs_sub.add_parser(
        "diff", help="span-by-span duration diff of two traces"
    )
    obs_diff.add_argument("trace", help="the before trace")
    obs_diff.add_argument("other", help="the after trace")
    obs_diff.add_argument("--limit", type=int, default=20)
    for obs_parser in (obs_tree, obs_top, obs_critical, obs_diff):
        obs_parser.set_defaults(func=_cmd_obs)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the annotation and result caches"
    )
    cache_cmd.add_argument("--clear", action="store_true", help="delete all entries")
    cache_cmd.add_argument("--cache-dir", help="cache location to operate on")
    cache_cmd.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
