"""The perf ledger: one command, four workloads, every metric by name.

    python3 benchmarks/ledger/run.py                  # all four, untraced + traced
    python3 benchmarks/ledger/run.py --workload cold_start --seed 3
    python3 benchmarks/ledger/run.py --workload serve_mixed --trace 1
    python3 benchmarks/ledger/run.py --aa             # the same code against itself
    python3 benchmarks/ledger/run.py --smoke          # 2 rounds at 64x48

Each workload runs in a fresh worker process (:mod:`workloads`) with
every ``REPRO_*`` variable scrubbed, a private ``REPRO_CC_CACHE`` and
``TMPDIR``, and ``benchmarks/ledger/out/`` as the only write target.
With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  The exit code is
non-zero on any failed request or oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: ``--aa`` runs each workload this many times per side.
AA_RUNS = 3

#: A worker that has not finished by then is killed (the contract
#: allows a run 180 s).
WORKER_TIMEOUT_S = 170.0

#: Layer metrics that are counts of the program's structure: two runs of
#: one seed must agree on them exactly.  (``backend.cpu_exec.so_bytes`` is
#: not among them: the compiler embeds the source path, whose length
#: follows the worker's pid.)
EXACT_COUNTS = (
    "graph.kernels",
    "graph.edges",
    "fusion.blocks",
    "backend.plan.instructions",
    "backend.native_exec.source_bytes",
    "backend.native_exec.native_blocks",
    "backend.native_exec.fallback_blocks",
    "backend.native_exec.tile2d_blocks",
    "model.tiling.tile_px",
    "analysis.diagnostics",
    "serve.plancache.misses",
    "serve.resilience.retries",
    "serve.resilience.degraded",
)


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env(scratch: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    env["TMPDIR"] = str(scratch / "tmp")  # the C compiler's temporaries
    return env


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool = False
) -> Dict[str, Any]:
    """Run one workload in a fresh worker process; return its result."""
    tag = f"{workload}-{os.getpid()}"
    scratch = OUT / f"run-{tag}"
    result_path = OUT / f"result-{tag}.json"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--t0", repr(time.monotonic()),
        "--scratch", str(scratch),
        "--out", str(result_path),
    ]
    if smoke:
        command.append("--smoke")
    worker = subprocess.Popen(command, env=worker_env(scratch), cwd=str(ROOT))
    try:
        code = worker.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        raise SystemExit(f"ledger: {workload} worker timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or not result_path.exists():
        raise SystemExit(f"ledger: {workload} worker exited with code {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def is_correct(result: Dict[str, Any]) -> bool:
    section = "per_layer" if result["trace"] else "end_to_end"
    return (
        result["failed"] == 0
        and result["mismatched"] == 0
        and result["checked"] > 0
        and section in result
    )


def driver_line(result: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The contract's last line: ``correct``/``attempted``/``failed``/
    ``metrics`` with every metric of the run's kind."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    values = result.get(kind, {})
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in contract[kind]
        if spec["name"] in values
    }
    return json.dumps(
        {
            "correct": is_correct(result) and len(metrics) == len(contract[kind]),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def print_result(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    kind = "per_layer" if result["trace"] else "end_to_end"
    phases = result["phases"]
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  "
        f"window={phases['window_s']:.1f}s  "
        f"reference={phases['reference_ms']:.3f}ms  "
        f"stolen={phases['steal_share']:.2%}  "
        f"requests={result['attempted']} failed={result['failed']}  "
        f"outputs checked={result['checked']} "
        f"mismatched={result['mismatched']}"
    )
    for error in result["errors"]:
        print(f"   ! {error}")
    values = result.get(kind, {})
    for spec in contract[kind]:
        if spec["name"] not in values:
            continue
        note = ""
        if spec["name"] in REQUEST_SHARE_METRICS and values[spec["name"]]:
            share = values[spec["name"]] / result["traced_request_ms_geomean"]
            note = f"   ({share:.1%} of the request)"
        print(
            f"   {spec['name']:<40} {values[spec['name']]:>14.6g} "
            f"{spec['unit']}{note}"
        )
    if result["trace"]:
        print(f"   spans -> {OUT / result['trace_file']}")
    else:
        print(
            f"   set-up on the wall clock {phases['wall_setup_s']:.3f}s: "
            f"import {phases['import_s']:.2f}s, inputs "
            f"{phases['inputs_s']:.2f}s, warm-up "
            + "/".join(f"{s:.2f}" for s in phases["warmup_s"])
            + f"s (oracle {phases['oracle_s']:.2f}s is the harness's own)"
        )
        print(
            f"   wall-clock request geomean "
            f"{result['wall_request_ms_geomean']:.4g} ms (the times above "
            f"are at the host's nominal speed, reference = 1 ms)"
        )
    for cls, row in result["per_class"].items():
        layers = result.get("per_layer_by_class", {}).get(cls, {})
        shares = ""
        if layers:
            top = sorted(
                (
                    (name, ms)
                    for name, ms in layers.items()
                    if name in REQUEST_SHARE_METRICS
                ),
                key=lambda item: -item[1],
            )[:3]
            shares = "  " + ", ".join(f"{n}={ms:.3g}" for n, ms in top)
        print(
            f"     {cls:<22} n={row['n']:<5} median {row['median_ms']:9.3f} ms"
            f"  p90 {row['p90_ms']:9.3f} ms{shares}"
        )


#: Layer metrics that are time *inside* a request (the ones a share of
#: the request can be stated for).
REQUEST_SHARE_METRICS = (
    "fusion.partition_ms",
    "backend.plan.compile_ms",
    "analysis.verify_plan_ms",
    "backend.native_exec.build_ms",
    "backend.cpu_exec.cc_ms",
    "analysis.native_check_ms",
    "backend.native_exec.execute_ms",
    "backend.plan.execute_ms",
    "serve.runtime.submit_ms",
)


def machine_key() -> Dict[str, Any]:
    """What a number has to be read against: CPU, cores, caches, compiler."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    version = ""
    if cc:
        probe = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, check=False
        )
        version = probe.stdout.splitlines()[0] if probe.stdout else ""
    return {
        "cpu": model,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cc": version,
    }


def git_sha() -> str:
    probe = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return probe.stdout.strip() or "unknown"


def run_all(args, contract, names: Sequence[str]) -> Dict[str, Any]:
    """Every named workload, untraced and/or traced; prints as it goes."""
    traces = [0, 1] if args.trace is None else [args.trace]
    ledger: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "machine": machine_key(),
        "knobs": "every REPRO_* unset; REPRO_CC_CACHE private",
        "workloads": {},
    }
    for name in names:
        entry = ledger["workloads"].setdefault(name, {})
        for trace in traces:
            result = run_workload(
                name, args.seed, args.seconds, trace, args.smoke
            )
            print_result(result, contract)
            entry["traced" if trace else "untraced"] = result
    ledger["correct"] = all(
        is_correct(result)
        for entry in ledger["workloads"].values()
        for result in entry.values()
    )
    return ledger


def aa(args, contract, names: Sequence[str]) -> bool:
    """``--aa``: the same code against itself, the way a change is held
    against its parent.  Per workload, :data:`AA_RUNS` untraced runs per
    side, the sides alternating so that a slow minute of the host falls
    on both; the sides' medians must differ by less than each metric's
    bound.  One traced run per side must repeat every structural count.
    (Medians, because the acceptance procedure compares medians: single
    runs still differ by up to 15 % on the reference container.)"""
    ok = True
    rows = []
    for name in names:
        sides: List[List[Dict[str, float]]] = [[], []]
        for index in range(2 * AA_RUNS):
            result = run_workload(name, args.seed, args.seconds, 0, args.smoke)
            print_result(result, contract)
            ok &= is_correct(result)
            sides[index % 2].append(result.get("end_to_end", {}))
        for spec in contract["end_to_end"]:
            x, y = (
                statistics.median(run[spec["name"]] for run in side)
                for side in sides
            )
            worse = (y - x) / x if spec["better"] == "lower" else (x - y) / x
            inside = abs(worse) <= spec["bound"]
            ok &= inside
            rows.append(
                f"{name:<14} {spec['name']:<20} {x:>12.5g} {y:>12.5g} "
                f"{worse:>+9.2%} {spec['bound']:>6.2f}"
                + ("" if inside else "  <-- outside")
            )
        traced = [
            run_workload(name, args.seed, args.seconds, 1, args.smoke)
            for _ in range(2)
        ]
        if not all(is_correct(result) for result in traced):
            ok = False
            continue
        a, b = (result["per_layer"] for result in traced)
        for metric in EXACT_COUNTS:
            if a[metric] != b[metric]:
                ok = False
                rows.append(
                    f"{name:<14} {metric}: count did not repeat "
                    f"({a[metric]} vs {b[metric]})"
                )
    print(f"\n== A/A: medians of {AA_RUNS} alternating runs per side")
    print(
        f"{'workload':<14} {'metric':<20} {'side A':>12} {'side B':>12} "
        f"{'worse by':>9} {'bound':>6}"
    )
    print("\n".join(rows))
    print("A/A " + ("passed" if ok else "FAILED"))
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed window per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=(0, 1),
        help="1: the traced, per-layer run; 0: the untraced, end-to-end run "
        "(default: 0 with --workload, both without)",
    )
    parser.add_argument("--aa", action="store_true", help="A/A self-check")
    parser.add_argument("--smoke", action="store_true", help="2 rounds at 64x48")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    if args.smoke:
        args.seconds = 0.0  # an empty window still runs its two rounds
    elif args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    OUT.mkdir(exist_ok=True)

    if args.aa:
        return 0 if aa(args, contract, names) else 1
    if args.workload is not None:
        if args.trace is None:
            args.trace = 0
        ledger = run_all(args, contract, names)
        kind = "traced" if args.trace else "untraced"
        print(driver_line(ledger["workloads"][args.workload][kind], contract))
        return 0 if ledger["correct"] else 1
    ledger = run_all(args, contract, names)
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"ledger -> {OUT / 'ledger.json'}")
    return 0 if ledger["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
