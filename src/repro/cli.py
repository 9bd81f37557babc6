"""Command-line interface to the kernel fusion toolchain.

Mirrors the workflow of the Hipacc artifact: pick an application,
enable/disable fusion, inspect the generated code, run the evaluation.

::

    python -m repro list
    python -m repro fuse Harris --engine mincut --trace
    python -m repro codegen Unsharp --engine mincut
    python -m repro run Harris --exec-engine native
    python -m repro simulate Sobel
    python -m repro lint --explain
    python -m repro evaluate --runs 500
    python -m repro figure3
    python -m repro figure4
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps import ALL_APPS, APPLICATIONS, request_inputs
from repro.backend.codegen_cuda import generate_cuda_pipeline
from repro.backend.engines import ENGINE_NAMES
from repro.backend.launch import simulate_partition
from repro.eval.figures import figure3_trace, figure4_example
from repro.eval.report import (
    render_figure3,
    render_figure4,
    render_figure6,
    render_table1,
    render_table2,
)
from repro.eval.runner import DEFAULT_GPUS, run_matrix
from repro.fusion import FUSERS, partition_for
from repro.graph.partition import Partition
from repro.model.benefit import BenefitConfig, estimate_graph
from repro.model.hardware import KNOWN_GPUS

#: ``--engine`` names: the fusion versions, min-cut under its own name.
ENGINES = {
    ("mincut" if version == "optimized" else version): fuser
    for version, fuser in FUSERS.items()
}


def _resolve_app(name: str):
    try:
        return ALL_APPS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_APPS))
        raise SystemExit(f"unknown application {name!r}; known: {known}")


def _resolve_gpu(name: str):
    try:
        return KNOWN_GPUS[name]
    except KeyError:
        known = ", ".join(sorted(KNOWN_GPUS))
        raise SystemExit(f"unknown GPU {name!r}; known: {known}")


def _config(args: argparse.Namespace) -> BenefitConfig:
    return BenefitConfig(
        c_mshared=args.cmshared, epsilon=args.epsilon, gamma=args.gamma
    )


def _fusion(args: argparse.Namespace, naive_borders: bool = False):
    """The :class:`~repro.serve.plancache.FusionSettings` the model flags
    and ``--version`` name."""
    from repro.serve.plancache import FusionSettings

    return FusionSettings(
        version=args.version,
        gpu_name=_resolve_gpu(args.gpu).name,
        benefit=_config(args),
        naive_borders=naive_borders,
    )


def cmd_list(args: argparse.Namespace) -> int:
    """List the applications (paper matrix + extensions)."""
    print(f"{'application':<12}{'kernels':>8}{'geometry':>14}{'set':>12}")
    for name, spec in ALL_APPS.items():
        graph = spec.pipeline().build()
        geometry = f"{spec.width}x{spec.height}"
        if spec.channels > 1:
            geometry += f"x{spec.channels}"
        group = "paper" if name in APPLICATIONS else "extension"
        print(f"{name:<12}{len(graph):>8}{geometry:>14}{group:>12}")
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    """Fuse one application and print the weights/trace/partition."""
    spec = _resolve_app(args.app)
    gpu = _resolve_gpu(args.gpu)
    graph = spec.pipeline().build()
    weighted = estimate_graph(graph, gpu, _config(args))
    print(f"{spec.name} on {gpu.name}, engine={args.engine}")
    print()
    print("edge estimates:")
    print(weighted.describe_edges())
    print()
    result = ENGINES[args.engine](weighted)
    if args.trace:
        print("trace:")
        for event in result.trace:
            print("  " + event.describe())
        print()
    print("partition:")
    print(result.partition.describe())
    print(f"benefit beta = {result.benefit:g}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    """Print the generated source for the chosen target and engine."""
    spec = _resolve_app(args.app)
    gpu = _resolve_gpu(args.gpu)
    graph = spec.pipeline().build()
    if args.engine == "none":
        partition = Partition.singletons(graph)
    else:
        partition = ENGINES[args.engine](estimate_graph(graph, gpu)).partition
    if args.target == "c":
        from repro.backend.native_exec import lower_partition_source

        print(lower_partition_source(graph, partition))
    elif args.target == "opencl":
        from repro.backend.codegen_opencl import generate_opencl_pipeline

        print(generate_opencl_pipeline(graph, partition))
    else:
        print(generate_cuda_pipeline(graph, partition))
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    """Print the per-launch roofline analysis before and after fusion."""
    from repro.backend.roofline import render_roofline_report

    spec = _resolve_app(args.app)
    gpu = _resolve_gpu(args.gpu)
    graph = spec.pipeline().build()
    baseline = Partition.singletons(graph)
    optimized = partition_for(graph, gpu, "optimized")
    print(render_roofline_report(graph, baseline, optimized, gpu))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Print the Graphviz DOT of the DAG (and partition clusters)."""
    from repro.graph.viz import to_dot

    spec = _resolve_app(args.app)
    gpu = _resolve_gpu(args.gpu)
    graph = spec.pipeline().build()
    weighted = estimate_graph(graph, gpu, _config(args))
    partition = None
    if args.engine != "none":
        partition = ENGINES[args.engine](weighted).partition
    print(
        to_dot(
            weighted.graph,
            partition,
            epsilon=weighted.config.epsilon,
            title=f"{spec.name} ({args.engine})",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Print simulated execution times on all three devices."""
    spec = _resolve_app(args.app)
    graph = spec.pipeline().build()
    print(f"{spec.name}: simulated execution times (ms)")
    print(f"{'device':<10}{'baseline':>10}{'basic':>10}{'optimized':>11}"
          f"{'speedup':>9}")
    for gpu in DEFAULT_GPUS:
        times = {}
        for version in ("baseline", "basic", "optimized"):
            partition = partition_for(graph, gpu, version)
            times[version] = simulate_partition(graph, partition, gpu).total_ms
        print(
            f"{gpu.name:<10}{times['baseline']:>10.3f}{times['basic']:>10.3f}"
            f"{times['optimized']:>11.3f}"
            f"{times['baseline'] / times['optimized']:>8.2f}x"
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Reproduce Table I / Table II (and optionally Fig. 6 data)."""
    results = run_matrix(runs=args.runs)
    if args.figure6:
        print(render_figure6(results))
        print()
    print(render_table1(results, include_paper=not args.no_paper))
    print()
    print(render_table2(results, include_paper=not args.no_paper))
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    """Write the full artifact package to a directory."""
    from repro.eval.artifact import build_artifact

    written = build_artifact(args.out, runs=args.runs)
    for path in written:
        print(path)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the paper-conformance checklist; exit 1 on any FAIL."""
    from repro.eval.paper_check import has_failures, render_report, run_all_checks

    outcome = run_all_checks()
    print(render_report(outcome))
    return 1 if has_failures(outcome) else 0


def cmd_figure3(args: argparse.Namespace) -> int:
    """Print the Fig. 3 Harris walk-through."""
    print(render_figure3(figure3_trace()))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute one application through :func:`repro.api.run`.

    The CLI face of the canonical execution API: build the pipeline at
    the requested geometry, fuse (or not), execute on the chosen
    engine, and print a digest of every surviving image — enough to
    diff two engines or two fusion versions for bit-identity from the
    shell.
    """
    import json
    import zlib as _zlib

    import numpy as np

    from repro.api import ExecutionOptions, run
    from repro.serve.registry import DEFAULT_APP_PARAMS

    spec = _resolve_app(args.app)
    graph = spec.build(args.width, args.height).build()
    inputs = request_inputs(spec, args.width, args.height, seed=args.seed)
    options = ExecutionOptions(
        engine=args.exec_engine,
        workers=args.exec_workers,
        validate=args.validate,
        fuse=not args.no_fuse,
        fusion=_fusion(args, args.naive_borders),
    )
    env = run(graph, inputs, DEFAULT_APP_PARAMS.get(spec.name),
              options=options)
    digests = {
        name: {
            "shape": list(np.shape(array)),
            "dtype": str(np.asarray(array).dtype),
            "min": float(np.min(array)),
            "mean": float(np.mean(array)),
            "max": float(np.max(array)),
            "crc32": _zlib.crc32(np.ascontiguousarray(array).tobytes()),
        }
        for name, array in sorted(env.items())
    }
    if args.json:
        print(json.dumps(digests, indent=2, sort_keys=True))
        return 0
    print(f"{spec.name} {args.width}x{args.height} "
          f"(engine={options.engine or 'env-default'}, "
          f"fuse={'off' if args.no_fuse else args.version})")
    for name, digest in digests.items():
        shape = "x".join(str(d) for d in digest["shape"])
        print(f"  {name:<14}{shape:>12}  "
              f"min={digest['min']:<10.4g} mean={digest['mean']:<10.4g} "
              f"max={digest['max']:<10.4g} crc32={digest['crc32']:08x}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving runtime over a synthetic request stream.

    Registers the paper apps, fires ``--requests`` concurrent requests
    spread across them, and prints the metrics snapshot — a smoke of
    the plan cache, scheduler, metrics, and resilience layers in one
    command.  ``--faults`` arms deterministic fault injection
    (``REPRO_FAULTS`` grammar) so the retry / breaker / degradation
    machinery is observable from the shell.
    """
    import json
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve import (
        BreakerConfig,
        ResiliencePolicy,
        RetryPolicy,
        ServingRuntime,
        default_registry,
        faultinject,
    )

    names = args.apps or sorted(APPLICATIONS)
    for name in names:
        _resolve_app(name)
    registry = default_registry(include_extensions=True, apps=set(names))
    resilience = None
    if args.retries is not None or args.breaker_threshold is not None:
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=args.retries or 3),
            breaker=BreakerConfig(
                failure_threshold=args.breaker_threshold or 3
            ),
        )
    if args.faults:
        for rule in faultinject.parse_spec(args.faults):
            faultinject.inject(
                rule.site,
                rule.action,
                delay_s=rule.delay_s,
                times=rule.times,
                every=rule.every,
            )
    workload = [
        (name, request_inputs(ALL_APPS[name], args.width, args.height, seed=i))
        for i, name in enumerate(
            names[i % len(names)] for i in range(args.requests)
        )
    ]
    with ServingRuntime(
        registry,
        fusion=_fusion(args),
        workers=args.workers,
        engine=args.exec_engine,
        resilience=resilience,
    ) as runtime:
        with ThreadPoolExecutor(max_workers=args.clients) as clients:
            futures = [
                clients.submit(runtime.execute, name, inputs)
                for name, inputs in workload
            ]
            for future in futures:
                future.result()
        snapshot = runtime.metrics_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    cache = snapshot["plan_cache"]
    latency = snapshot["histograms"].get("total_ms", {})
    engine = snapshot["engine"]
    print(f"served {args.requests} requests over {len(names)} pipelines "
          f"({args.width}x{args.height}, version={args.version}, "
          f"engine={engine['active']})")
    if engine["active"] != engine["requested"]:
        print(f"note: engine {engine['requested']!r} unavailable "
              f"(no C compiler); served with {engine['active']!r}")
    native_ms = snapshot["histograms"].get("compile_native_compile_ms")
    if native_ms and native_ms.get("count"):
        print(f"native compile ms: mean={native_ms['mean']:.1f} "
              f"over {native_ms['count']} plans")
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.3f}, "
          f"{cache['coalesced']} coalesced; "
          f"{cache['miss_structure']} structure + "
          f"{cache['miss_shape']} shape misses)")
    print(f"latency ms: p50={latency.get('p50', 0.0):.2f} "
          f"p95={latency.get('p95', 0.0):.2f} "
          f"p99={latency.get('p99', 0.0):.2f}")
    resilience_snapshot = snapshot["resilience"]
    counters = snapshot["counters"]
    retries = counters.get("request_retries", 0)
    degraded = {
        key.removeprefix("degraded_to_"): value
        for key, value in counters.items()
        if key.startswith("degraded_to_")
    }
    open_breakers = {
        key: state["state"]
        for key, state in resilience_snapshot["breakers"].items()
        if state["state"] != "closed"
    }
    fired = resilience_snapshot["faults"]
    if retries or degraded or open_breakers or fired:
        print(f"resilience: {retries} retries, "
              f"degraded={degraded or 'none'}, "
              f"breakers={open_breakers or 'all closed'}, "
              f"faults fired={fired or 'none'}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis passes; exit 1 on any error diagnostic.

    Lints the pipeline IR, explains the legality of every fused block,
    and verifies the compiled instruction tapes of the final partition
    (see :mod:`repro.analysis`).
    """
    import json

    from repro.analysis import describe_codes, lint_app

    if args.codes:
        print(describe_codes())
        return 0
    names = args.apps or sorted(APPLICATIONS)
    for name in names:
        _resolve_app(name)
    if args.lazy:
        from repro.analysis.lint import LINT_HEIGHT, LINT_WIDTH
        from repro.lazy.apps import lazy_trace

        targets = [lazy_trace(name, LINT_WIDTH, LINT_HEIGHT)
                   for name in names]
    else:
        targets = list(names)
    reports = [
        lint_app(
            target,
            gpu=_resolve_gpu(args.gpu),
            config=_config(args),
            version=args.version,
            verify_plans=not args.no_plans,
            native=args.native,
        )
        for target in targets
    ]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        for report in reports:
            print(report.render(explain=args.explain))
    return 0 if all(r.ok for r in reports) else 1


def cmd_tiling(args: argparse.Namespace) -> int:
    """Report the native engine's 2D-tiling decisions per block.

    Prints the host cache hierarchy the model sizes scratch against
    (detected from sysfs, or micro-calibrated with ``--calibrate``) and,
    for each application, every fused block's tile shape as the lowering
    picks it (the model's, or ``REPRO_NATIVE_TILE2D``'s ``HxW``) scored
    against those caches — or the reason the block materializes nothing
    and lowers as the row band over its fused tape.
    Needs no C compiler: this reads the schedule, not the emitted code.
    The last line is the on-disk compile cache those blocks are built
    into — libraries, the per-block kernel objects they link, and the
    persisted plan records beside them.
    """
    import json

    from repro.backend.cpu_exec import compile_cache_stats
    from repro.backend.native_lower import tile2d_report
    from repro.model.hardware import calibrate_cpu_caches, detect_cpu_caches

    caches = detect_cpu_caches()
    if args.calibrate:
        caches = calibrate_cpu_caches()
    names = args.apps or sorted(APPLICATIONS)
    reports = {}
    for name in names:
        spec = _resolve_app(name)
        graph = spec.pipeline().build()
        partition = partition_for(
            graph, _resolve_gpu(args.gpu), args.version, _config(args)
        )
        reports[name] = tile2d_report(graph, partition, caches=caches)
    cache = compile_cache_stats()
    if args.json:
        print(json.dumps(
            {"caches": caches.describe(), "apps": reports,
             "compile_cache": cache},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"host caches: {caches.describe()}")
    for name in names:
        print(f"\n{name}:")
        for entry in reports[name]:
            kernels = " + ".join(entry["kernels"])
            if "choice" in entry:
                c = entry["choice"]
                tile_h, tile_w = c["tile"]
                print(
                    f"  {entry['output']:<16} tile {tile_h}x{tile_w}  "
                    f"scratch {c['scratch_bytes']}B ({c['fits']})  "
                    f"recompute {c['recompute']:.3f}  [{kernels}]"
                )
                for note in entry.get("hoisted", ()):
                    where = f"{note['kernel']}: {note['taps']} taps of {note['image']}"
                    if "stage" in note:
                        left, right, top, bottom = note["margin"]
                        print(
                            f"    hoisted {note['stage']} ({where})  margin "
                            f"{left}/{right}/{top}/{bottom}  "
                            f"recompute {note['recompute']:.3f}"
                        )
                    else:
                        print(f"    not hoisted ({where}): {note['declined']}")
            else:
                print(
                    f"  {entry['output']:<16} row band, nothing "
                    f"materialized: {entry['row_band_reason']}  [{kernels}]"
                )
    print(
        f"\ncompile cache {cache['dir']}: {cache['libraries']} libraries "
        f"({cache['bytes']}B), {cache['objects']} kernel objects "
        f"({cache['object_bytes']}B), {cache['records']} plan records "
        f"({cache['record_bytes']}B)"
    )
    return 0


def cmd_figure4(args: argparse.Namespace) -> int:
    """Print the Fig. 4 border-fusion worked example."""
    print(render_figure4(figure4_example()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Min-cut kernel fusion for image pipelines "
        "(CGO 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark applications")

    def add_model_flags(p):
        p.add_argument("--gpu", default="GTX680",
                       help="device model (GTX745, GTX680, K20c)")
        p.add_argument("--cmshared", type=float, default=2.0,
                       help="Eq. 2 shared-memory threshold")
        p.add_argument("--epsilon", type=float, default=1e-3,
                       help="illegal-edge weight (Eq. 12)")
        p.add_argument("--gamma", type=float, default=0.0,
                       help="flat additional gain (Eq. 12)")

    fuse = sub.add_parser("fuse", help="fuse an application and print "
                                       "the partition")
    fuse.add_argument("app")
    fuse.add_argument("--engine", choices=sorted(ENGINES), default="mincut")
    fuse.add_argument("--trace", action="store_true",
                      help="print the engine trace")
    add_model_flags(fuse)

    codegen = sub.add_parser("codegen", help="print generated source")
    codegen.add_argument("app")
    codegen.add_argument(
        "--engine", choices=sorted(ENGINES) + ["none"], default="mincut"
    )
    codegen.add_argument(
        "--target", choices=["cuda", "opencl", "c"], default="cuda",
        help="cuda/opencl: GPU kernels; c: the C the native engine runs",
    )
    add_model_flags(codegen)

    roofline = sub.add_parser(
        "roofline", help="arithmetic-intensity analysis per launch"
    )
    roofline.add_argument("app")
    roofline.add_argument("--gpu", default="GTX680")

    dot = sub.add_parser("dot", help="Graphviz DOT of the DAG + partition")
    dot.add_argument("app")
    dot.add_argument(
        "--engine", choices=sorted(ENGINES) + ["none"], default="mincut"
    )
    add_model_flags(dot)

    simulate = sub.add_parser("simulate",
                              help="simulated times on all devices")
    simulate.add_argument("app")

    evaluate = sub.add_parser("evaluate",
                              help="reproduce Table I / Table II / Fig. 6")
    evaluate.add_argument("--runs", type=int, default=500)
    evaluate.add_argument("--figure6", action="store_true",
                          help="also print the Fig. 6 box statistics")
    evaluate.add_argument("--no-paper", action="store_true",
                          help="omit the published values")

    sub.add_parser("figure3", help="the Harris fusion walk-through")
    sub.add_parser("figure4", help="the border-fusion worked example")
    sub.add_parser(
        "verify",
        help="run the full paper-conformance checklist (exit 1 on FAIL)",
    )

    artifact = sub.add_parser(
        "artifact", help="write every reproduced table/figure/source "
                         "to a directory"
    )
    artifact.add_argument("--out", default="artifact")
    artifact.add_argument("--runs", type=int, default=500)

    lint = sub.add_parser(
        "lint", help="run the static-analysis passes over applications "
                     "(exit 1 on any error diagnostic)"
    )
    lint.add_argument("apps", nargs="*",
                      help="applications to lint (default: the six "
                           "paper apps)")
    lint.add_argument("--version", default="optimized",
                      help="fusion engine whose partition is checked")
    lint.add_argument("--explain", action="store_true",
                      help="print the fusion trace with per-cut "
                           "legality explanations")
    lint.add_argument("--json", action="store_true",
                      help="print the reports as JSON")
    lint.add_argument("--codes", action="store_true",
                      help="print the diagnostic-code catalog and exit")
    lint.add_argument("--native", action="store_true",
                      help="lower the partition through the native C "
                      "backend and run the codegen sanitizer (NAT0xx) "
                      "over the emitted source; needs a C toolchain")
    lint.add_argument("--no-plans", action="store_true",
                      help="skip tape compilation/verification")
    lint.add_argument("--lazy", action="store_true",
                      help="lint the lazy-recorded (repro.lazy) variant "
                           "of each app: runs the LAZY0xx trace checks, "
                           "then lowers and runs the standard passes")
    add_model_flags(lint)

    serve = sub.add_parser(
        "serve", help="run the serving runtime over a synthetic "
                      "request stream and print metrics"
    )
    serve.add_argument("--requests", type=int, default=100)
    serve.add_argument("--version", default="optimized",
                       help="fusion version served (baseline, basic, "
                            "optimized, ...)")
    serve.add_argument("--json", action="store_true",
                       help="print the raw metrics snapshot as JSON")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="arm deterministic fault injection "
                            "(REPRO_FAULTS grammar, e.g. "
                            "'native.compile:error@10')")
    serve.add_argument("--retries", type=int, default=None,
                       help="max execution attempts per request "
                            "(enables a custom resilience policy)")
    serve.add_argument("--breaker-threshold", type=int, default=None,
                       help="consecutive failures tripping the "
                            "per-pipeline circuit breaker")
    serve.add_argument("--apps", nargs="*", default=None,
                       help="pipelines to serve (default: the six "
                            "paper apps)")
    serve.add_argument("--width", type=int, default=96)
    serve.add_argument("--height", type=int, default=64)
    serve.add_argument("--workers", type=int, default=2,
                       help="scheduler worker threads")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent client threads")
    serve.add_argument("--exec-engine", default="tape",
                       choices=ENGINE_NAMES,
                       help="execution engine serving requests; "
                            "'native' compiles block tapes to C and "
                            "falls back to 'tape' without a compiler")
    add_model_flags(serve)

    run_cmd = sub.add_parser(
        "run", help="execute an application via repro.api.run and "
                    "print per-image digests"
    )
    run_cmd.add_argument("app")
    run_cmd.add_argument("--width", type=int, default=96)
    run_cmd.add_argument("--height", type=int, default=64)
    run_cmd.add_argument("--seed", type=int, default=0,
                         help="deterministic input seed")
    run_cmd.add_argument("--exec-engine", default=None,
                         choices=ENGINE_NAMES,
                         help="execution engine (default: "
                              "REPRO_EXEC_ENGINE or tape)")
    run_cmd.add_argument("--exec-workers", type=int, default=None,
                         help="parallel block workers within the call "
                              "(tape plans only: the native engine "
                              "parallelises inside each kernel)")
    run_cmd.add_argument("--validate", default=None,
                         choices=("off", "standard", "strict"),
                         help="per-call validation level")
    run_cmd.add_argument("--version", default="optimized",
                         help="fusion version (baseline, basic, "
                              "optimized, ...)")
    run_cmd.add_argument("--no-fuse", action="store_true",
                         help="run staged (unfused) semantics")
    run_cmd.add_argument("--naive-borders", action="store_true",
                         help="reproduce the border-incorrect naive "
                              "composition (Fig. 4b)")
    run_cmd.add_argument("--json", action="store_true",
                         help="print the digests as JSON")
    add_model_flags(run_cmd)

    tiling = sub.add_parser(
        "tiling", help="the native engine's 2D-tiling model choices "
                       "per fused block (host caches + tile shapes)"
    )
    tiling.add_argument("apps", nargs="*",
                        help="applications to report (default: the six "
                             "paper apps)")
    tiling.add_argument("--version", default="optimized",
                        help="fusion version whose partition is tiled")
    tiling.add_argument("--calibrate", action="store_true",
                        help="micro-calibrate effective L1/L2 sizes by "
                             "timed strided traversals instead of "
                             "trusting sysfs")
    tiling.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    add_model_flags(tiling)
    return parser


COMMANDS = {
    "list": cmd_list,
    "fuse": cmd_fuse,
    "codegen": cmd_codegen,
    "dot": cmd_dot,
    "roofline": cmd_roofline,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "figure3": cmd_figure3,
    "figure4": cmd_figure4,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "artifact": cmd_artifact,
    "run": cmd_run,
    "serve": cmd_serve,
    "tiling": cmd_tiling,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
