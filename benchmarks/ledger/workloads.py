"""The four ledger workloads; one fresh worker process runs one of them.

``run.py`` spawns this module with a scrubbed environment and reads the
JSON result it writes.  The worker

1. imports ``repro`` and refuses to go on without a C compiler (timing
   the tape under the name ``native`` would be a silent lie),
2. draws one set of seeded inputs per class and computes the oracle
   outputs (:mod:`oracle`),
3. sets the system up :data:`WARMUP_REPS` times from cold caches — the
   median is the warm-up share of ``setup_s``,
4. in a traced run, probes the host ceiling and every layer's public
   entry points once per class,
5. runs the timed window, checking every output outside the timed call
   and taking a host-speed reference sample after every request (every
   burst in ``serve_mixed``),
6. writes the result (and, traced, ``out/trace_<workload>.json``).

End-to-end times are stated at the host's nominal speed
(:class:`measure.ReferenceClock`); per-layer times are wall-clock.

Layers are measured from outside: spans wrap calls into each module's
public functions, nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    ReferenceClock,
    SpanLog,
    geomean,
    geomean_of_medians,
    host_ceiling,
    host_jiffies,
    layer_self_ms,
    percentile,
)
from oracle import Checker, reference_outputs, validate_oracle  # noqa: E402

Arrays = Dict[str, np.ndarray]

APPS = ("Harris", "Sobel", "Unsharp", "ShiTomasi", "Enhance", "Night")

#: How often the system is set up from cold caches before the timed
#: window; ``setup_s`` carries the median.
WARMUP_REPS = 3

#: Every window runs at least this many rounds (a traced run needs one
#: untraced and one traced); ``--smoke`` is the window of zero seconds.
MIN_ROUNDS = 2

SMOKE_GEOMETRY = (64, 48)

#: name -> (geometries, validate level, caches cleared per round,
#: ``.so`` cache emptied per round).  Why each exists is recorded in
#: BENCHMARK.json and the README.
ROUND_WORKLOADS = {
    "steady_frames": ([(1024, 1024)], None, False, False),
    "cold_start": ([(96, 64)], "strict", True, True),
    "warm_restart": ([(96, 64)], "strict", True, False),
}
SERVE_GEOMETRIES = [(160, 120), (320, 240), (640, 480)]
SERVE_CLIENTS = 2
#: ``serve_mixed`` sends its stream in bursts of this many blocks (one
#: block = one request per class); between bursts the runtime is idle and
#: the reference sample is taken.
BURST_BLOCKS = 5
WORKLOADS = (*ROUND_WORKLOADS, "serve_mixed")

#: Span name -> per-layer metric.
SPAN_METRICS = {
    "fusion.partition": "fusion.partition_ms",
    "backend.plan.compile": "backend.plan.compile_ms",
    "analysis.verify_plan": "analysis.verify_plan_ms",
    "backend.native_exec.build": "backend.native_exec.build_ms",
    "analysis.native_check": "analysis.native_check_ms",
    "backend.native_exec.execute": "backend.native_exec.execute_ms",
    "backend.plan.execute": "backend.plan.execute_ms",
    "serve.runtime.submit": "serve.runtime.submit_ms",
}


#: Layer metrics only ``serve_mixed`` has a layer for; 0 elsewhere.
SERVE_ONLY_METRICS = (
    "serve.scheduler.queue_wait_ms_p50",
    "serve.scheduler.queue_wait_ms_p90",
    "serve.scheduler.batch_size_mean",
    "serve.runtime.execute_ms_p50",
    "serve.runtime.overhead_ms",
    "serve.plancache.hit_rate",
    "serve.plancache.misses",
    "serve.resilience.retries",
    "serve.resilience.degraded",
)


@dataclass
class RequestClass:
    """One (pipeline, geometry) pair with its seeded inputs and oracle."""

    name: str
    app: str
    width: int
    height: int
    graph: Any
    inputs: Arrays
    params: Optional[Dict[str, float]]
    checker: Checker
    #: Input plus produced plane bytes of one request, from array shapes.
    bytes_moved: int = 0


@dataclass
class Tally:
    """What the timed window saw."""

    #: class -> wall-clock ms of its requests
    untraced: Dict[str, List[float]] = field(default_factory=dict)
    traced: Dict[str, List[float]] = field(default_factory=dict)
    #: class -> the clock interval each untraced request fell in
    intervals: Dict[str, List[int]] = field(default_factory=dict)
    clock: ReferenceClock = field(default_factory=ReferenceClock)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatched: int = 0
    #: The timed window, first reference mark to last.
    wall_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    class_of_request: Dict[int, str] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def timed(
        self, cls: RequestClass, call: Callable[[], Arrays], traced: bool
    ) -> None:
        """One request: time ``call`` alone, then check what it returned."""
        env = error = None
        started = time.perf_counter()
        try:
            env = call()
        except Exception as err:  # a failed request is a datum
            error = f"{cls.name}: {type(err).__name__}: {err}"
        seconds = time.perf_counter() - started
        with self.lock:
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(error)
                return
            samples = self.traced if traced else self.untraced
            samples.setdefault(cls.name, []).append(seconds * 1e3)
            if not traced:
                self.intervals.setdefault(cls.name, []).append(
                    self.clock.interval
                )
        self.check(cls, env)

    def check(self, cls: RequestClass, env: Arrays) -> None:
        checked, mismatched = cls.checker.check(env, cls.inputs)
        if not cls.bytes_moved:
            cls.bytes_moved = sum(a.nbytes for a in env.values())
        with self.lock:
            self.checked += checked
            self.mismatched += mismatched

    def nominal_untraced(self) -> Dict[str, List[float]]:
        """The untraced requests' times at the host's nominal speed."""
        scales = self.clock.scales()
        return {
            cls: [ms * scales[i] for ms, i in zip(samples, self.intervals[cls])]
            for cls, samples in self.untraced.items()
        }


def class_blocks(seed: int, n_classes: int) -> Iterator[List[int]]:
    """The serve_mixed request stream, block by block: each block is a
    seeded permutation of the class indices, so every class gets exactly
    one request per block (a uniform draw with the mix held exact — the
    pooled p90 then does not move with the luck of the draw)."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(range(n_classes), n_classes)


def class_stream(seed: int, n_classes: int, blocks: int) -> List[int]:
    """The first ``blocks`` blocks of :func:`class_blocks`, flattened."""
    source = class_blocks(seed, n_classes)
    return [index for _ in range(blocks) for index in next(source)]


# ---------------------------------------------------------------------------
# Set-up: classes, inputs, oracle
# ---------------------------------------------------------------------------


def make_inputs(graph, channels: int, width: int, height: int, rng) -> Arrays:
    shape: Tuple[int, ...] = (height, width)
    if channels > 1:
        shape += (channels,)
    return {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in graph.pipeline_inputs()
    }


def build_classes(
    geometries: Sequence[Tuple[int, int]],
    seed: int,
    oracle_engine: str,
    clock: ReferenceClock,
) -> Tuple[List[RequestClass], float, float]:
    """Classes with inputs and verified references, plus the seconds
    spent on inputs and on the oracle (``clock`` is marked after each)."""
    from repro.apps import APPLICATIONS
    from repro.backend.native_exec import tolerance_for
    from repro.backend.plan import plan_for_partition
    from repro.serve.registry import DEFAULT_APP_PARAMS

    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    drafts = []
    for width, height in geometries:
        for app in APPS:
            spec = APPLICATIONS[app]
            graph = spec.build(width, height).build()
            inputs = make_inputs(graph, spec.channels, width, height, rng)
            drafts.append((app, width, height, graph, inputs))
    inputs_s = time.perf_counter() - started
    clock.mark()

    started = time.perf_counter()
    for app in APPS:
        channels = APPLICATIONS[app].channels
        validate_oracle(
            app,
            lambda g, w, h: make_inputs(g, channels, w, h, rng),
            DEFAULT_APP_PARAMS.get(app),
        )
    classes = []
    for app, width, height, graph, inputs in drafts:
        params = DEFAULT_APP_PARAMS.get(app)
        reference = reference_outputs(graph, inputs, params, oracle_engine)
        # The tolerance policy is a property of the fused tape's calls;
        # a throw-away graph keeps the class's own graph cache-cold.
        scratch = APPLICATIONS[app].build(width, height).build()
        tolerance = tolerance_for(
            plan_for_partition(scratch, fused_partition(scratch)).plans
        )
        classes.append(
            RequestClass(
                name=f"{app}@{width}x{height}",
                app=app,
                width=width,
                height=height,
                graph=graph,
                inputs=inputs,
                params=params,
                checker=Checker(reference, tolerance, graph.external_outputs),
            )
        )
    oracle_s = time.perf_counter() - started
    clock.mark()
    return classes, inputs_s, oracle_s


def fused_partition(graph):
    """The partition ``api.run`` and ``ServingRuntime`` fuse to by default."""
    from repro.eval.runner import partition_for
    from repro.model.benefit import BenefitConfig
    from repro.model.hardware import KNOWN_GPUS

    return partition_for(graph, KNOWN_GPUS["GTX680"], "optimized", BenefitConfig())


class CacheDirs:
    """Private ``REPRO_CC_CACHE`` directories under the worker's scratch.

    Every directory gets a name never used before in this process: the
    loader recognises an already loaded library by path, so re-using a
    path would turn a cold ``dlopen`` into a no-op.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self._counter = itertools.count()
        self.current: Optional[Path] = None

    def fresh(self) -> None:
        if self.current is not None:
            shutil.rmtree(self.current, ignore_errors=True)
        self.current = self.root / f"cc-{next(self._counter)}"
        self.current.mkdir(parents=True)
        os.environ["REPRO_CC_CACHE"] = str(self.current)


def clear_process_caches() -> None:
    from repro.backend.native_exec import clear_native_caches
    from repro.backend.plan import clear_plan_caches

    clear_native_caches()
    clear_plan_caches()


# ---------------------------------------------------------------------------
# Round workloads: steady_frames, cold_start, warm_restart
# ---------------------------------------------------------------------------


class RoundWorkload:
    """Closed loop, one client: rounds over the six apps through
    ``repro.api.run`` on the native engine."""

    def __init__(self, name: str, classes, dirs: CacheDirs):
        from repro.api import ExecutionOptions

        _, validate, self.cold, self.empty_so_cache = ROUND_WORKLOADS[name]
        self.name = name
        self.classes = classes
        self.dirs = dirs
        self.strict = validate == "strict"
        #: Diagnostics the traced requests' verifiers returned.
        self.diagnostics = 0
        self.options = ExecutionOptions(engine="native", validate=validate)

    def warm_up(self, tally: Tally, clock: ReferenceClock) -> None:
        """From cold caches to the state the timed window starts in: one
        untimed round that compiles (and checks) every class."""
        self.dirs.fresh()
        clear_process_caches()
        for cls in self.classes:
            graph = self.graph_for(cls)
            tally.check(cls, self.request(cls, graph))
            clock.mark()

    def before_round(self) -> None:
        if self.cold:
            if self.empty_so_cache:
                self.dirs.fresh()
            clear_process_caches()

    def graph_for(self, cls: RequestClass):
        if not self.cold:
            return cls.graph
        from repro.apps import APPLICATIONS

        return APPLICATIONS[cls.app].build(cls.width, cls.height).build()

    def request(self, cls: RequestClass, graph) -> Arrays:
        from repro.api import run

        return run(graph, cls.inputs, cls.params, options=self.options)

    def traced_request(
        self, cls: RequestClass, graph, log: SpanLog, rid: int
    ) -> Arrays:
        """The request as the explicit sequence of public calls that
        ``api.run`` makes for this configuration, a span around each."""
        from repro.analysis.native_check import verify_native_blocks
        from repro.analysis.verifier import enforce, verify_partition_plan
        from repro.backend.native_exec import (
            assert_native_equiv,
            native_plan_for_partition,
        )
        from repro.backend.plan import plan_for_partition
        from repro.envknobs import validate_override

        # Under strict the build calls verify for themselves; scoping
        # them to "standard" lets each verifier be called, and timed,
        # on its own.
        def unverified():
            return validate_override("standard" if self.strict else None)

        with log.span("api.request", rid):
            with log.span("fusion.partition", rid):
                partition = fused_partition(graph)
            with unverified(), log.span("backend.plan.compile", rid):
                plan = plan_for_partition(graph, partition, False)
            if self.strict:
                with log.span("analysis.verify_plan", rid):
                    found = verify_partition_plan(plan, graph=graph)
                    enforce(found, context="ledger traced request")
                self.diagnostics += len(found)
            with unverified(), log.span("backend.native_exec.build", rid):
                native = native_plan_for_partition(graph, partition, False)
            if self.strict:
                with log.span("analysis.native_check", rid):
                    found = verify_native_blocks(
                        [n for _p, n in native.blocks if n is not None]
                    )
                    enforce(found, context="ledger traced request")
                self.diagnostics += len(found)
            with unverified(), log.span("backend.native_exec.execute", rid):
                env = native.execute(cls.inputs, cls.params, None)
            if self.strict:
                # The strict first-run differential against the tape.
                with log.span("backend.plan.execute", rid):
                    expected = plan.execute(dict(cls.inputs), cls.params)
                for block_plan, block in native.blocks:
                    if block is not None:
                        out = block_plan.output_name
                        assert_native_equiv(
                            expected[out], env[out], native.tolerance, out
                        )
        return env

    def run(self, tally: Tally, seconds: float, log: Optional[SpanLog]) -> None:
        request_ids = itertools.count()
        done = 0
        tally.clock.mark()
        window = time.perf_counter()
        while done < MIN_ROUNDS or time.perf_counter() - window < seconds:
            self.before_round()
            traced = log is not None and done % 2 == 1
            for cls in self.classes:
                graph = self.graph_for(cls)
                rid = next(request_ids)
                tally.class_of_request[rid] = cls.name
                tally.attempted += 1
                if traced:
                    call = partial(self.traced_request, cls, graph, log, rid)
                else:
                    call = partial(self.request, cls, graph)
                tally.timed(cls, call, traced)
                tally.clock.mark()
            done += 1
        tally.wall_s = time.perf_counter() - window

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeWorkload:
    """Closed loop, two client threads against one ``ServingRuntime``."""

    diagnostics = 0

    def __init__(self, classes, dirs: CacheDirs, seed: int):
        self.classes = classes
        self.dirs = dirs
        self.seed = seed
        self.runtime = None
        self._cache_before: Dict[str, float] = {}

    def warm_up(self, tally: Tally, clock: ReferenceClock) -> None:
        from repro.serve.runtime import ServingRuntime

        self.close()
        self.dirs.fresh()
        clear_process_caches()
        self.runtime = ServingRuntime(engine="native")
        for cls in self.classes:
            env = self.runtime.execute(cls.app, cls.inputs)
            tally.check(cls, env)
            clock.mark()

    def run(self, tally: Tally, seconds: float, log: Optional[SpanLog]) -> None:
        runtime = self.runtime
        blocks = class_blocks(self.seed, len(self.classes))
        request_ids = itertools.count()
        lock = threading.Lock()
        self._cache_before = dict(runtime.metrics_snapshot()["plan_cache"])

        def traced_request(cls: RequestClass, rid: int) -> Arrays:
            with log.span("serve.request", rid):
                with log.span("serve.runtime.submit", rid):
                    handle = runtime.submit(cls.app, cls.inputs)
                with log.span("serve.wait", rid):
                    return handle.result()

        def client(burst: Iterator[int]) -> None:
            while True:
                with lock:
                    index = next(burst, None)
                    if index is None:
                        return
                    cls = self.classes[index]
                    rid = next(request_ids)
                    tally.class_of_request[rid] = cls.name
                    tally.attempted += 1
                traced = log is not None and rid % 2 == 1
                if traced:
                    call = partial(traced_request, cls, rid)
                else:
                    call = partial(runtime.execute, cls.app, cls.inputs)
                tally.timed(cls, call, traced)

        tally.clock.mark()
        window = time.perf_counter()
        while True:
            burst = iter(
                [index for _ in range(BURST_BLOCKS) for index in next(blocks)]
            )
            threads = [
                threading.Thread(target=client, args=(burst,), name=f"client-{slot}")
                for slot in range(SERVE_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            tally.clock.mark()
            if time.perf_counter() - window >= seconds:
                break
        tally.wall_s = time.perf_counter() - window

    def layer_counters(self) -> Dict[str, float]:
        """What ``metrics_snapshot()`` says about the timed window."""
        runtime = self.runtime
        snapshot = runtime.metrics_snapshot()
        cache, before = snapshot["plan_cache"], self._cache_before
        hits = cache["hits"] - before["hits"]
        misses = cache["misses"] - before["misses"]
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]
        queue_wait = runtime.metrics.histogram("queue_wait_ms")
        return {
            "serve.scheduler.queue_wait_ms_p50": queue_wait.percentile(50.0),
            "serve.scheduler.queue_wait_ms_p90": queue_wait.percentile(90.0),
            "serve.scheduler.batch_size_mean": histograms["batch_size"]["mean"],
            "serve.runtime.execute_ms_p50": histograms["execute_ms"]["p50"],
            "serve.plancache.hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "serve.plancache.misses": float(cache["misses"]),
            "serve.resilience.retries": float(
                counters.get("request_retries", 0)
            ),
            "serve.resilience.degraded": float(
                sum(
                    value
                    for name, value in counters.items()
                    if name.startswith("degraded_to_")
                )
            ),
        }

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None


# ---------------------------------------------------------------------------
# Layer probes (traced run only): each module's public entry points,
# called once per class outside any request
# ---------------------------------------------------------------------------


def _median_ms(fn: Callable[[], Any], reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def probe_layers(classes: Sequence[RequestClass]) -> Dict[str, Any]:
    """Per-class timings and counts of the layers no request passes
    through on its own (graph build, signatures, the benefit model, C
    lowering, the tile model, a ``.so``-cache-hit build, plan keys).
    Runs after warm-up, so the ``.so`` cache holds every class's library."""
    from repro.apps import APPLICATIONS
    from repro.backend.native_exec import (
        NativeLoweringError,
        lower_block_source,
        native_plan_for_partition,
        tile2d_report,
    )
    from repro.backend.numpy_exec import block_schedule
    from repro.backend.plan import plan_for_partition
    from repro.lazy.apps import lazy_trace
    from repro.model.benefit import BenefitConfig, estimate_graph
    from repro.model.hardware import KNOWN_GPUS
    from repro.serve.plancache import FusionSettings, plan_key

    gpu = KNOWN_GPUS["GTX680"]
    timings: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}

    def timing(metric: str, cls: RequestClass, ms: float) -> None:
        timings.setdefault(metric, {})[cls.name] = ms

    def count(metric: str, value: float) -> None:
        counts[metric] = counts.get(metric, 0.0) + value

    for cls in classes:
        spec = APPLICATIONS[cls.app]
        w, h = cls.width, cls.height

        def fresh():
            return spec.build(w, h).build()

        timing("apps.build_ms", cls, _median_ms(fresh))
        timing(
            "lazy.record_lower_ms",
            cls,
            _median_ms(lambda: lazy_trace(cls.app, w, h).graph()),
        )

        def sign():
            graph = fresh()
            started = time.perf_counter()
            graph.structural_signature()
            graph.structure_signature()
            return (time.perf_counter() - started) * 1e3

        timing(
            "graph.signature_ms",
            cls,
            statistics.median(sign() for _ in range(3)),
        )
        graph = fresh()
        count("graph.kernels", len(graph.kernel_names))
        count("graph.edges", len(graph.edges))
        timing(
            "model.benefit_ms",
            cls,
            _median_ms(lambda: estimate_graph(graph, gpu, BenefitConfig())),
        )
        partition = fused_partition(graph)
        count("fusion.blocks", len(partition.blocks))
        plan = plan_for_partition(graph, partition, False)
        count(
            "backend.plan.instructions",
            sum(p.stats.instructions for p in plan.plans),
        )
        schedule = block_schedule(graph, partition)

        def lower():
            for block_plan, block in zip(plan.plans, schedule):
                try:
                    lower_block_source(block_plan, graph=graph, block=block)
                except NativeLoweringError:
                    pass  # a tape-fallback block; counted below

        timing("backend.native_exec.lower_ms", cls, _median_ms(lower))
        timing(
            "model.tiling.report_ms",
            cls,
            _median_ms(lambda: tile2d_report(graph, partition)),
        )

        def hit_build():
            g = fresh()
            p = fused_partition(g)
            plan_for_partition(g, p, False)
            started = time.perf_counter()
            built = native_plan_for_partition(g, p, False)
            return (time.perf_counter() - started) * 1e3, built

        builds = [hit_build() for _ in range(3)]
        timing(
            "backend.cpu_exec.hit_build_ms",
            cls,
            statistics.median(ms for ms, _ in builds),
        )
        native = builds[-1][1]
        count("backend.native_exec.source_bytes", len(native.source or ""))
        count("backend.native_exec.native_blocks", native.native_block_count)
        count(
            "backend.native_exec.fallback_blocks", native.fallback_block_count
        )
        tiles = [
            block.spec.tile2d
            for _p, block in native.blocks
            if block is not None and block.spec.tile2d
        ]
        count("backend.native_exec.tile2d_blocks", len(tiles))
        count("model.tiling.tile_px", sum(th * tw for th, tw in tiles))
        signature = graph.structural_signature()
        fusion = FusionSettings()

        def keys():
            for _ in range(100):
                plan_key(signature, cls.inputs, "native", fusion)

        timing("serve.plancache.key_ms", cls, _median_ms(keys) / 100.0)
    return {"timings": timings, "counts": counts}


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def end_to_end(tally: Tally, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics, every time at the host's nominal speed."""
    return {
        "setup_s": setup_s,
        "request_ms_geomean": geomean_of_medians(tally.nominal_untraced()),
        "throughput_rps": (tally.attempted - tally.failed)
        / tally.clock.nominal_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(
    workload,
    tally: Tally,
    log: SpanLog,
    probes: Dict[str, Any],
    ceiling: Dict[str, Any],
    so_built: bool,
    oracle_s: float,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """The per-layer metrics of a traced run, and the per-class rows."""
    from repro.backend.cpu_exec import compile_cache_stats

    spans = layer_self_ms(log.spans, tally.class_of_request)
    by_class: Dict[str, Dict[str, float]] = {}
    metrics: Dict[str, float] = {}

    def from_classes(metric: str, per_class: Dict[str, float]) -> None:
        metrics[metric] = geomean(v for v in per_class.values() if v > 0.0)
        for cls, value in per_class.items():
            by_class.setdefault(cls, {})[metric] = value

    for span_name, metric in SPAN_METRICS.items():
        from_classes(
            metric,
            {
                cls: statistics.median(samples)
                for cls, samples in spans.get(span_name, {}).items()
            },
        )
    for metric, per_class in probes["timings"].items():
        from_classes(metric, per_class)
    # serve_mixed executes inside the runtime, out of a span's reach: its
    # execute figures stay 0 and serve.runtime.execute_ms_p50 speaks for it.
    metric = "backend.native_exec.execute_ms"
    execute = {c: row[metric] for c, row in by_class.items() if metric in row}
    moved = {cls.name: cls.bytes_moved for cls in workload.classes}
    from_classes(
        "backend.native_exec.gbs_computed",
        {cls: moved[cls] / (ms * 1e-3) / 1e9 for cls, ms in execute.items()},
    )
    metrics["backend.native_exec.ceiling_share"] = (
        metrics["backend.native_exec.gbs_computed"] / ceiling["memcpy_gbs"]
    )
    metrics["host.memcpy_gbs"] = ceiling["memcpy_gbs"]
    metrics["host.triad_gbs"] = ceiling["triad_gbs"]
    # cc ran in the window only if the window wrote libraries; its time
    # is the build span less what a build costs when the .so is there.
    hit = metrics["backend.cpu_exec.hit_build_ms"]
    build = metrics["backend.native_exec.build_ms"]
    metrics["backend.cpu_exec.cc_ms"] = max(0.0, build - hit) if so_built else 0.0
    metrics["backend.cpu_exec.so_bytes"] = float(compile_cache_stats()["bytes"])
    metrics.update(probes["counts"])
    metrics["analysis.diagnostics"] = float(workload.diagnostics)

    untraced = {c: statistics.median(v) for c, v in tally.untraced.items()}
    if isinstance(workload, ServeWorkload):
        metrics["api.overhead_ms"] = 0.0
        metrics.update(workload.layer_counters())
        metrics["serve.runtime.overhead_ms"] = max(
            0.0,
            statistics.median(untraced.values())
            - metrics["serve.runtime.execute_ms_p50"],
        )
    else:
        from_classes(
            "api.overhead_ms",
            {c: max(0.0, untraced[c] - execute[c]) for c in untraced if c in execute},
        )
        for name in SERVE_ONLY_METRICS:
            metrics[name] = 0.0
    traced_geomean = geomean_of_medians(tally.traced)
    untraced_geomean = geomean_of_medians(tally.untraced)
    metrics["trace_overhead_share"] = traced_geomean / untraced_geomean - 1.0
    metrics["harness.oracle_s"] = oracle_s
    pooled = [ms for samples in tally.untraced.values() for ms in samples]
    metrics["api.request_ms_p90"] = percentile(pooled, 90.0)
    metrics["api.requests_timed"] = float(len(pooled))
    metrics["failed_share"] = tally.failed / tally.attempted
    metrics["mismatch_share"] = tally.mismatched / max(1, tally.checked)
    return metrics, by_class


# ---------------------------------------------------------------------------
# Worker entry point
# ---------------------------------------------------------------------------


def run_worker(args: argparse.Namespace) -> Dict[str, Any]:
    # Set-up has a clock of its own: marked here, after the imports, after
    # the inputs, after the oracle and after every warm-up request.
    setup_clock = ReferenceClock()
    setup_clock.mark()
    scratch = Path(args.scratch)
    dirs = CacheDirs(scratch)
    dirs.fresh()  # before the first import: repro probes the compiler

    from repro.backend.cpu_exec import compile_cache_stats
    from repro.backend.native_exec import native_available

    if not native_available():
        raise SystemExit(
            "ledger: no C compiler on PATH — the native engine would fall "
            "back to the tape and the ledger would time the wrong engine"
        )
    import_s = time.monotonic() - args.t0
    setup_clock.mark()

    name = args.workload
    if name == "serve_mixed":
        geometries = SERVE_GEOMETRIES
    else:
        geometries = ROUND_WORKLOADS[name][0]
    if args.smoke:
        geometries = [SMOKE_GEOMETRY]
    # Small geometries afford the recursive walk as the reference itself.
    small = max(w * h for w, h in geometries) <= 96 * 64
    classes, inputs_s, oracle_s = build_classes(
        geometries, args.seed, "recursive" if small else "tape", setup_clock
    )
    if name == "serve_mixed":
        workload = ServeWorkload(classes, dirs, args.seed)
    else:
        workload = RoundWorkload(name, classes, dirs)

    tally = Tally()
    warmup_s = []
    nominal_warmup_s = []
    for _ in range(1 if args.smoke else WARMUP_REPS):
        opened = setup_clock.interval
        started = time.perf_counter()
        workload.warm_up(tally, setup_clock)
        warmup_s.append(time.perf_counter() - started)
        nominal_warmup_s.append(
            setup_clock.nominal_seconds(opened, setup_clock.interval)
        )
    scale = setup_clock.scales()
    setup_s = (
        import_s * scale[0]
        + inputs_s * scale[1]
        + statistics.median(nominal_warmup_s)
    )

    log = SpanLog() if args.trace else None
    probes: Dict[str, Any] = {}
    ceiling: Dict[str, Any] = {}
    if args.trace:
        ceiling = host_ceiling(max(w * h for w, h in geometries) * 8)
        probes = probe_layers(classes)
    libraries_before = compile_cache_stats()["libraries"]
    cache_dir_before = dirs.current
    stolen_before, jiffies_before = host_jiffies()
    try:
        workload.run(tally, args.seconds, log)
        stolen, jiffies = host_jiffies()
        steal_share = (stolen - stolen_before) / max(1, jiffies - jiffies_before)
        result: Dict[str, Any] = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": bool(args.smoke),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "checked": tally.checked,
            "mismatched": tally.mismatched,
            "errors": tally.errors,
            "wall_request_ms_geomean": geomean_of_medians(tally.untraced),
            "traced_request_ms_geomean": geomean_of_medians(tally.traced),
            "phases": {
                "import_s": import_s,
                "inputs_s": inputs_s,
                "oracle_s": oracle_s,
                "warmup_s": warmup_s,
                "wall_setup_s": import_s + inputs_s + statistics.median(warmup_s),
                "window_s": tally.wall_s,
                "reference_ms": tally.clock.median_sample_ms(),
                "steal_share": steal_share,
            },
            "per_class": {
                cls: {
                    "n": len(samples),
                    "median_ms": statistics.median(samples),
                    "p90_ms": percentile(samples, 90.0),
                }
                for cls, samples in tally.untraced.items()
            },
        }
        if tally.untraced and not args.trace:
            result["end_to_end"] = end_to_end(tally, setup_s)
        if args.trace and tally.untraced and tally.traced:
            so_built = (
                dirs.current != cache_dir_before
                or compile_cache_stats()["libraries"] != libraries_before
            )
            metrics, rows = per_layer(
                workload, tally, log, probes, ceiling, so_built, oracle_s
            )
            metrics["host.steal_share"] = steal_share
            metrics["host.reference_ms"] = tally.clock.median_sample_ms()
            result["per_layer"] = metrics
            result["per_layer_by_class"] = rows
            result["host_ceiling"] = ceiling
            trace_path = Path(args.out).with_name(f"trace_{name}.json")
            trace_path.write_text(
                json.dumps(
                    {
                        "workload": name,
                        "seed": args.seed,
                        "fields": ["name", "start", "end", "parent", "request_id"],
                        "class_of_request": tally.class_of_request,
                        "spans": log.spans,
                    }
                )
            )
            result["trace_file"] = trace_path.name
    finally:
        workload.close()
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_worker(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
