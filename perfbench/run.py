"""Benchmark of the mcsda package: two closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ovr_train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload as a single client that issues one op at
a time (closed loop, ``--jobs`` 1, BLAS thread pools at their defaults).
It sets up at least ``SETUP_MIN_REPEATS`` times (more while set-ups
take under ``SETUP_MIN_SECONDS`` in all) and reports the median set-up
time, checks the set-up's outputs against an independent oracle, runs
whole cycles of the workload's op kinds for ``--seconds``, checks every
op's output outside its timed span, and prints every metric by name
with its unit and sample count. An untraced run also times a fixed
host probe before every op; the gated op times are in its units. The last line of standard output is
one JSON object: the gated end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The traced run alternates traced
and untraced cycles, so it also measures the tracing overhead, and at
the end writes every span to ``perfbench/spans/<workload>.npz``. The
traced ``ovr_train`` run also times the reference-size fits of
``mcsda bench`` as ungated diagnostics.

Inputs come only from ``--seed``; the package is imported from ``src/``
next to this directory and driven only through its public API and
``mcsda.cli.main``. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import DIAG_SECONDS, THREAD_VARS, WORKLOADS, BenchRef, CheckFailed, time_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 6.0
SETUP_MAX_REPEATS = 9

# The host probe: fixed work of the kind the ops do (small matrix
# products and interpreted Python), about 40 ms on a 2-vCPU Xeon.
PROBE_PRODUCTS = 3000
PROBE_LOOP = 150_000
PROBE_IDLE_WAIT_MAX = 0.5  # seconds
_probe_rng = np.random.default_rng(0)
PROBE_X = _probe_rng.standard_normal((20, 15))
PROBE_U = _probe_rng.standard_normal((20, 5))
PROBE_V = _probe_rng.standard_normal((15, 5))

# Gated end-to-end metrics, emitted by every workload. "csda_op" and
# "mcsda_op" are the workload's ops of that method (one-vs-rest train or
# eval); work counts the workload's unit of work (models, scores). The
# shared host runs the same code up to 1.5x slower for minutes at a
# time, so op time is gated in units of the host probe ("probe"): each
# op's time over the mean of the probes just before and just after it.
# The probe slows with the host, but no change to the package can move
# it. The op times in seconds are reported beside them, not gated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "csda_op_rel.p50": "probe",
    "mcsda_op_rel.p50": "probe",
    "work_per_probe": "1/probe",
}

PER_LAYER_UNITS = {
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_us_per_call.p50": "us",
    "linalg.solve_n3_sum": "count",
    "discriminant.fit_self_s": "s",
    "discriminant.scatters_s": "s",
    "discriminant.objective_s": "s",
    "discriminant.class_statistics_s": "s",
    "discriminant.class_statistics_calls": "count",
    "discriminant.sweeps": "count",
    "discriminant.converged_ratio": "ratio",
    "discriminant.similarity_score_s": "s",
    "discriminant.scores": "count",
    "tensor_ops.multi_project_s": "s",
    "tensor_ops.multi_project_calls": "count",
    "metrics.self_s": "s",
    "metrics.heldout_map": "ratio",
    "datasets.load_dataset_s": "s",
    "datasets.bytes_read": "bytes",
    "model_io.save_model_s": "s",
    "model_io.save_model_calls": "count",
    "model_io.load_model_s": "s",
    "model_io.load_model_calls": "count",
    "cli.self_s": "s",
    "perfbench.self_s": "s",
    "proc.cpu_per_wall": "ratio",
    "proc.threads": "count",
    "trace.cycle_s": "s",
    "trace.overhead_ratio": "ratio",
    "diag.fit_csda_s_1thread.p50": "s",
    "diag.fit_mcsda_s_1thread.p50": "s",
    "diag.cost_model_predicted": "ratio",
    "diag.cost_model_measured": "ratio",
}


def import_package():
    """Import mcsda from src/ next to this directory, and nowhere else."""
    if not (SRC / "mcsda" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'mcsda'}")
    sys.path.insert(0, str(SRC))
    import mcsda
    import mcsda.cli

    if Path(mcsda.__file__).resolve().parent != (SRC / "mcsda").resolve():
        sys.exit(f"perfbench: imported mcsda from {mcsda.__file__}, not from {SRC}")
    return mcsda


def native_threads() -> int:
    """Threads of this process, BLAS pools included (Linux /proc)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_probe() -> float:
    """Seconds the host takes for the probe's fixed work. It uses numpy
    and Python only, none of the package, so it measures the host.

    It first waits until the process's other threads are idle: BLAS
    worker threads spin for about 0.13 s after their last call, and the
    probe would otherwise measure them, not the host."""
    deadline = time.perf_counter() + PROBE_IDLE_WAIT_MAX
    while time.perf_counter() < deadline:
        cpu = time.process_time()
        time.sleep(0.01)
        if time.process_time() - cpu < 0.002:
            break
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(PROBE_PRODUCTS):
        acc += float(np.sum((PROBE_U.T @ PROBE_X @ PROBE_V) ** 2))
    table = {}
    for i in range(PROBE_LOOP):
        table[i & 1023] = i * 3 % 7
    return time.perf_counter() - t0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> dict:
        deps = config.get("Build Dependencies", {})
        return {
            lib: {
                key: deps.get(lib, {}).get(key)
                for key in ("name", "version", "openblas configuration")
            }
            for lib in ("blas", "lapack")
        }

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_build": blas(numpy.show_config(mode="dicts")),
        "scipy_build": blas(scipy.show_config(mode="dicts")),
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "native_threads": native_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Loop:
    """Results of the measured loop."""

    def __init__(self, kinds):
        self.times = {k: [] for k in kinds}  # untraced ops only
        self.op_times: dict[int, float] = {}  # untraced ops by op id
        self.traced_times = {k: [] for k in kinds}
        self.work = 0
        self.work_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_kind: dict[int, str] = {}
        self.traced_cycles = 0
        self.cpu_per_wall = 0.0
        # untraced runs: probe i runs just before op i, one more after the last
        self.probe_times: list[float] = []
        self.rel_times: dict[str, list[float]] = {k: [] for k in kinds}
        self.rel_work_time = 0.0


def measure(wl, seconds: float, tracer) -> Loop:
    """Run whole cycles until ops, probes and checks have taken `seconds`.
    Without a tracer, the host probe runs before every op; with one,
    every other cycle is traced and no probe runs."""
    loop = Loop(wl.kinds)
    min_cycles = 2 if tracer else 1
    busy = cpu = 0.0
    cycle = 0
    while cycle < min_cycles or busy < seconds:
        traced = tracer is not None and cycle % 2 == 0
        loop.traced_cycles += traced
        t_cpu = os.times()
        t_cycle = time.perf_counter()
        for kind in wl.cycle:
            op_id = loop.attempted
            loop.attempted += 1
            loop.op_kind[op_id] = kind
            if tracer is None:
                loop.probe_times.append(host_probe())
            try:
                if traced:
                    # wrappers only around the op itself, not its check
                    tracer.install()
                    try:
                        with tracer.span(f"perfbench.op.{kind}", "perfbench.op", op_id):
                            t0 = time.perf_counter()
                            result = wl.run(kind)
                            dt = time.perf_counter() - t0
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter()
                    result = wl.run(kind)
                    dt = time.perf_counter() - t0
                wl.check(kind, result)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                loop.failed += 1
                loop.errors.append(f"op {op_id} {kind}: {traceback.format_exc(limit=3)}")
                continue
            if traced:
                loop.traced_times[kind].append(dt)
            else:
                loop.times[kind].append(dt)
                loop.op_times[op_id] = dt
                loop.work += wl.work(kind)
                loop.work_time += dt
        busy += time.perf_counter() - t_cycle
        t_end = os.times()
        cpu += (t_end.user - t_cpu.user) + (t_end.system - t_cpu.system)
        cycle += 1
    loop.cpu_per_wall = cpu / busy
    if tracer is None:
        loop.probe_times.append(host_probe())
        for op_id, dt in loop.op_times.items():
            rel = dt / ((loop.probe_times[op_id] + loop.probe_times[op_id + 1]) / 2)
            loop.rel_times[loop.op_kind[op_id]].append(rel)
            loop.rel_work_time += rel
    return loop


def end_to_end(wl, loop: Loop, setup_times, attempted: int, failed: int) -> tuple[dict, list]:
    """Gated metrics plus the full list of report lines (name, value, unit, n)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        ("setup_s", statistics.median(setup_times), "s", len(setup_times)),
        ("fail_ratio", failed / attempted, "ratio", attempted),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
    for kind, xs in loop.times.items():
        if not xs:
            continue
        lines.append((f"{kind}_s.p50", statistics.median(xs), "s", len(xs)))
        lines.append((f"{kind}_s.p90", float(np.percentile(xs, 90)), "s", len(xs)))
    rate = loop.work / loop.work_time if loop.work_time > 0 else 0.0
    lines.append((wl.rate_name, rate, "1/s", loop.work))
    for name, value in wl.extra().items():
        lines.append((name, value, "ratio", 1))

    rel = {
        role: next(xs for kind, xs in loop.rel_times.items() if kind.endswith(suffix))
        for role, suffix in (("csda_op_rel.p50", "_csda"), ("mcsda_op_rel.p50", "_mcsda"))
    }
    gated = {
        "setup_s": lines[0][1],
        "peak_rss_mb": peak_rss_mb,
        **{role: statistics.median(xs) if xs else 0.0 for role, xs in rel.items()},
        "work_per_probe": loop.work / loop.rel_work_time if loop.rel_work_time else 0.0,
    }
    if loop.probe_times:
        probes = loop.probe_times
        lines.append(("host_probe_s.p50", statistics.median(probes), "s", len(probes)))
        lines += [(role, gated[role], "probe", len(xs)) for role, xs in rel.items()]
        lines.append(("work_per_probe", gated["work_per_probe"], "1/probe", loop.work))
    return gated, lines


def _group(layer: str) -> str:
    """Per-layer metric a function's self time is charged to."""
    module, fn = layer.split(".", 1)
    if module == "discriminant":
        if fn.endswith("_scatters"):
            return "discriminant.scatters_s"
        if fn.endswith("_objective") or fn == "convergence_metric":
            return "discriminant.objective_s"
        if fn == "class_statistics":
            return "discriminant.class_statistics_s"
        if fn in ("similarity_score", "project"):
            return "discriminant.similarity_score_s"
        return "discriminant.fit_self_s"
    return {
        "linalg": "linalg.solve_s",
        "tensor_ops": "tensor_ops.multi_project_s",
        "metrics": "metrics.self_s",
        "datasets": "datasets.load_dataset_s",
        "cli": "cli.self_s",
        "perfbench": "perfbench.self_s",
    }.get(module, f"{layer}_s")


# Calls counted per layer function (name of the count metric -> layer).
CALL_COUNTS = {
    "linalg.solve_calls": "linalg.solve_ratio_trace",
    "discriminant.class_statistics_calls": "discriminant.class_statistics",
    "discriminant.scores": "discriminant.similarity_score",
    "tensor_ops.multi_project_calls": "tensor_ops.multi_project",
    "model_io.save_model_calls": "model_io.save_model",
    "model_io.load_model_calls": "model_io.load_model",
}


def per_layer(wl, loop: Loop, tracer, diag: dict) -> tuple[dict, list]:
    """Per-layer metrics, per traced cycle (one op of each kind)."""
    s = tracer.summary()
    cycles = max(loop.traced_cycles, 1)
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    n_layers = len(s["layers"])
    idx = s["layer_idx"]
    self_sum = np.bincount(idx, weights=s["self"], minlength=n_layers)
    count_sum = np.bincount(idx, weights=s["count"], minlength=n_layers)
    calls = np.bincount(idx, minlength=n_layers)
    # calls per (op kind, layer); every traced span lies inside an op
    kind_of_op = np.array([wl.kinds.index(loop.op_kind[o]) for o in range(loop.attempted)])
    kind_idx = kind_of_op[s["op"]] if len(idx) else idx
    kind_calls = np.bincount(
        kind_idx * n_layers + idx, minlength=len(wl.kinds) * n_layers
    ).reshape(len(wl.kinds), n_layers)
    per_kind: dict[str, dict[str, float]] = {k: {} for k in wl.kinds}
    for i, layer in enumerate(s["layers"]):
        group = _group(layer)
        if group in values:
            values[group] += self_sum[i] / cycles
        for metric, counted in CALL_COUNTS.items():
            if counted == layer:
                values[metric] = int(calls[i]) / cycles
                for k, kind in enumerate(wl.kinds):
                    per_kind[kind][metric] = int(kind_calls[k, i]) / cycles
        if layer == "linalg.solve_ratio_trace" and calls[i]:
            values["linalg.solve_us_per_call.p50"] = (
                float(np.median(s["duration"][idx == i])) * 1e6
            )
            values["linalg.solve_n3_sum"] = count_sum[i] / cycles
        if layer == "datasets.load_dataset":
            values["datasets.bytes_read"] = count_sum[i] / cycles
    reports = wl.reports
    if reports:
        values["discriminant.sweeps"] = statistics.fmean(r.iterations_run for r in reports)
        values["discriminant.converged_ratio"] = sum(r.converged for r in reports) / len(
            reports
        )
    values["metrics.heldout_map"] = wl.extra().get("heldout_map", 0.0)
    values["proc.cpu_per_wall"] = loop.cpu_per_wall
    values["proc.threads"] = native_threads()
    traced = sum(sum(xs) for xs in loop.traced_times.values())
    values["trace.cycle_s"] = traced / cycles
    untraced_cycles = sum(len(xs) for xs in loop.times.values()) / len(wl.cycle)
    untraced = sum(sum(xs) for xs in loop.times.values())
    if untraced > 0 and untraced_cycles > 0:
        values["trace.overhead_ratio"] = (traced / cycles) / (untraced / untraced_cycles) - 1
    single = diag.get("single_thread")
    if single:
        values["diag.fit_csda_s_1thread.p50"] = statistics.median(single["fit_csda"])
        values["diag.fit_mcsda_s_1thread.p50"] = statistics.median(single["fit_mcsda"])
    if "cost_model_predicted" in diag:
        values["diag.cost_model_predicted"] = diag["cost_model_predicted"]
    default = diag.get("default_threads")
    if default:
        values["diag.cost_model_measured"] = statistics.median(
            default["fit_csda"]
        ) / statistics.median(default["fit_mcsda"])
    notes = bypass_checks(wl, values, per_kind)
    if diag.get("errors"):
        notes.append(("diag_errors", diag["errors"]))
    return values, [("per_kind", per_kind)] + notes


def bypass_checks(wl, values: dict, per_kind: dict) -> list:
    """The predictions of which layers each workload bypasses, as measured."""
    checks = []
    if wl.name == "ovr_train":
        checks.append(("multi_project_calls == 0", values["tensor_ops.multi_project_calls"] == 0))
        # one solve per mode per sweep; every op repeats the set-up's sweeps
        solves = per_kind["train_mcsda"].get("linalg.solve_calls", 0.0)
        expected = len(wl.dims["mcsda"]) * sum(s for _, s in wl.reference["train_mcsda"])
        checks.append(
            (
                f"solve calls per train_mcsda ({solves:g}) == modes x summed sweeps "
                f"of its fits ({expected:g})",
                solves == expected,
            )
        )
    if wl.name == "eval_ovr":
        checks.append(("solve_calls == 0", values["linalg.solve_calls"] == 0))
        mp = per_kind["eval_mcsda"].get("tensor_ops.multi_project_calls", 0.0)
        sc = per_kind["eval_mcsda"].get("discriminant.scores", 0.0)
        checks.append(
            (
                f"multi_project_calls ({values['tensor_ops.multi_project_calls']:g}) "
                f"== 2 x mcsda-set scores ({2 * sc:g})",
                values["tensor_ops.multi_project_calls"] == mp == 2 * sc,
            )
        )
    return [("bypass", {text: bool(ok) for text, ok in checks})]


def run_single_thread_child(wl, workdir: Path) -> None:
    """Body of the diagnostic child process (BLAS pools pinned to one
    thread by its environment): op times as one JSON line."""
    wl.setup(workdir)
    print(json.dumps(time_ops(wl, DIAG_SECONDS)))


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_all(argv: list[str]) -> int:
    """Every workload, each in a fresh process of its own; their reports in
    turn, then one line that merges their results as ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
            check=False,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOADS, "all"),
        help="one workload, or all of them, one process each",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    # the diagnostics' child process: time the reference-size fits instead
    parser.add_argument("--diag-1thread", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the finally below removes the work directory and
    # subprocess.run kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(
            ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--smoke"] if args.smoke else [])
        )

    mcsda = import_package()
    workload = BenchRef if args.diag_1thread else WORKLOADS[args.workload]
    wl = workload(mcsda, args.seed, args.smoke)
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.diag_1thread:
            run_single_thread_child(wl, workdir)
            return 0
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            i = len(setup_times)
            if i:
                shutil.rmtree(workdir / f"setup{i - 1}")
            (workdir / f"setup{i}").mkdir()
            t0 = time.perf_counter()
            wl.setup(workdir / f"setup{i}")
            setup_times.append(time.perf_counter() - t0)
        # the oracle checks the last set-up's outputs, which every op's
        # check compares against; a mismatch fails the run like a failed op
        try:
            wl.verify()
            verify_error = None
        except CheckFailed as exc:
            verify_error = str(exc)
        diag = {}
        tracer = None
        if args.trace:
            diag = wl.diagnostics(workdir)
            tracer = Tracer()
        loop = measure(wl, args.seconds, tracer)
        # the oracle check counts as one more checked op
        attempted = loop.attempted + 1
        failed = loop.failed + (verify_error is not None)
        gated, lines = end_to_end(wl, loop, setup_times, attempted, failed)

        print(
            f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} smoke={int(args.smoke)}: closed loop, 1 client, "
            f"jobs 1, ops per cycle {list(wl.cycle)}"
        )
        print("env " + json.dumps(environment(), sort_keys=True))
        for name, value, unit, n in lines:
            print(f"{name:28s} {fmt(value):>14s} {unit:6s} n={n}")
        errors = loop.errors[:5] + ([f"oracle: {verify_error}"] if verify_error else [])
        for error in errors:
            print("failed " + error.replace("\n", " | "))
        if tracer is not None:
            layer_values, notes = per_layer(wl, loop, tracer, diag)
            print(f"# per traced cycle, {loop.traced_cycles} traced cycles")
            for name, value in layer_values.items():
                print(f"{name:36s} {fmt(value):>14s} {PER_LAYER_UNITS[name]}")
            for title, doc in notes:
                print(f"{title} " + json.dumps(doc, sort_keys=True))
            spans = HERE / "spans" / f"{wl.name}.npz"
            spans.parent.mkdir(exist_ok=True)
            tracer.dump(spans)
            print(f"spans {len(tracer.start)} written to {spans.relative_to(ROOT)}")
            metrics = {
                name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                for name, value in layer_values.items()
            }
        else:
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in gated.items()
            }
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
