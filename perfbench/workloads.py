"""The closed-loop workloads of the benchmark.

Each workload makes its inputs from the seed, sets up once per
:meth:`setup` call, and then runs a fixed cycle of op kinds, one op at a
time. An op is timed on its own; :meth:`check` verifies its output
outside the timed span, against the output of the same op at set-up.
:meth:`verify`, run once after the timed set-ups, checks that set-up
output against an independent numpy/scipy computation (``oracle.py``).
Kind names end in ``_csda`` or ``_mcsda`` for the two kinds every
workload has, so the gated metrics can name them the same way on both.

* ``ovr_train`` runs ``mcsda train --one-vs-rest`` in process for all four
  trainers on 3-mode data: fits plus model writes; no scoring.
* ``eval_ovr`` runs ``mcsda eval`` (verify, then classify) on saved model
  sets: scoring plus model and dataset reads; no fitting.

``BenchRef`` is not a workload of its own: it holds the csda and mcsda
fits at the reference size of ``mcsda bench``, which the traced
``ovr_train`` run times as ungated diagnostics (default threads, one
BLAS thread in a child process, and the cost model's prediction).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DIAG_SECONDS = 4.0


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def run_cli(mcsda, argv: list[str]) -> int:
    """``mcsda <argv>`` in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mcsda.cli.main(argv)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_reference(what: str, got, expected, exact: bool = True) -> None:
    """(objective, sweeps) of a set-up fit against the oracle's. The
    binary mda criterion is not unique: its first sweep solves a
    rank-one numerator, so any basis of the zero eigenspace fits and the
    sweeps go on from there; for it the objective need only reach half
    the oracle's."""
    (objective, sweeps), (ref_objective, ref_sweeps) = got, expected
    close = math.isclose(objective, ref_objective, rel_tol=1e-6)
    _require(
        sweeps == ref_sweeps and (close if exact else objective >= 0.5 * ref_objective),
        f"{what}: objective {objective} after {sweeps} sweeps, "
        f"the oracle gives {ref_objective} after {ref_sweeps}",
    )


def _dims_arg(dims) -> str:
    return "x".join(str(d) for d in dims)


def time_ops(wl, seconds: float) -> dict[str, list[float]]:
    """Checked op times of `wl`'s kinds, whole cycles for at least
    `seconds` and at least 3 cycles."""
    times: dict[str, list[float]] = {k: [] for k in wl.kinds}
    start = time.perf_counter()
    while len(times[wl.kinds[0]]) < 3 or time.perf_counter() - start < seconds:
        for kind in wl.cycle:
            t0 = time.perf_counter()
            result = wl.run(kind)
            times[kind].append(time.perf_counter() - t0)
            wl.check(kind, result)
    return times


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload (tiny ones with ``--smoke``)."""

    dims: tuple[int, ...]
    n_classes: int
    per_class: int
    mean_scale: float
    sigma: float


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    rate_name = ""  # report name of the work rate, e.g. "train_models_per_s"

    def __init__(self, mcsda, seed: int, smoke: bool):
        self.mcsda = mcsda
        self.seed = seed
        self.smoke = smoke
        self.sizes: Sizes
        # fit reports of the alternating (mda/mcsda) fits seen so far
        self.reports: list = []

    @property
    def cycle(self) -> tuple[str, ...]:
        """Op kinds of one cycle of the loop, in order; by default one of each."""
        return self.kinds

    def synth(self):
        """The workload's dataset, drawn from the seed."""
        s = self.sizes
        return self.mcsda.synth_generate(
            self.mcsda.SynthSpec(
                dims=s.dims,
                n_classes=s.n_classes,
                samples_per_class=s.per_class,
                class_mean_scale=s.mean_scale,
                noise_sigma=s.sigma,
                seed=self.seed,
            )
        )

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def run(self, kind: str):
        raise NotImplementedError

    def check(self, kind: str, result) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Check the set-up's reference outputs against the oracle."""
        raise NotImplementedError

    def work(self, kind: str) -> int:
        """Units of work (fits, models or scores) one op of `kind` does."""
        raise NotImplementedError

    def extra(self) -> dict:
        """Workload-specific figures for the report, e.g. heldout_map."""
        return {}

    def diagnostics(self, workdir: Path) -> dict:
        """Ungated diagnostics run before the traced loop."""
        return {}


# ---------------------------------------------------------------------------
# reference-size fits (diagnostics of the traced ovr_train run)


class BenchRef(Workload):
    """Alternating csda and mcsda fits at the reference size, through the API."""

    name = "bench_ref"
    kinds = ("fit_csda", "fit_mcsda")
    rate_name = "fits_per_s"

    def __init__(self, mcsda, seed, smoke):
        super().__init__(mcsda, seed, smoke)
        if smoke:
            self.sizes = Sizes((8, 6), 2, 20, 5.0, 1.0)
            self.sub = (3, 3)
        else:
            self.sizes = Sizes((40, 30), 2, 100, 5.0, 1.0)
            self.sub = (7, 7)
        self.max_iter = 20
        self.vec_cfg = mcsda.TrainConfig(
            subspace_dims=math.prod(self.sub), reg_lambda=0.01, max_iter=20, eps=1e-5
        )
        self.ten_cfg = mcsda.TrainConfig(
            subspace_dims=self.sub, reg_lambda=0.01, max_iter=20, eps=1e-5
        )

    def setup(self, root: Path) -> None:
        self.data = self.synth()
        # warm-up: lazy imports and BLAS pools start before timing; the
        # fits also give the reference (objective, sweeps) of each kind
        self.reference = {}
        for kind in self.kinds:
            self.check(kind, self.run(kind))
        self.reports.clear()

    def run(self, kind):
        if kind == "fit_csda":
            return self.mcsda.fit_csda(self.data, 1, self.vec_cfg)
        return self.mcsda.fit_mcsda(self.data, 1, self.ten_cfg)

    def check(self, kind, model) -> None:
        if kind == "fit_csda":
            shapes = [(math.prod(self.sizes.dims), math.prod(self.sub))]
        else:
            shapes = list(zip(self.sizes.dims, self.sub))
            self.reports.append(model.fit_report)
        got = [np.shape(w) for w in model.projections]
        _require(got == shapes, f"{kind}: projection shapes {got}, expected {shapes}")
        _require(
            all(np.all(np.isfinite(w)) for w in model.projections),
            f"{kind}: projections are not finite",
        )
        objective = model.fit_report.objective_trace[-1]
        _require(
            math.isfinite(objective) and objective > 0,
            f"{kind}: objective {objective} is not finite and > 0",
        )
        sweeps = model.fit_report.iterations_run
        _require(sweeps <= self.max_iter, f"{kind}: {sweeps} sweeps > max_iter")
        ref = self.reference.setdefault(kind, (objective, sweeps))
        _require(
            sweeps == ref[1] and math.isclose(objective, ref[0], rel_tol=1e-6),
            f"{kind}: objective {objective} after {sweeps} sweeps, "
            f"set-up gave {ref[0]} after {ref[1]}",
        )

    def work(self, kind) -> int:
        return 1

    def diagnostics(self, workdir: Path) -> dict:
        """Op times of these fits in this process (default BLAS threads)
        and in a fresh one with one BLAS thread, and `mcsda bench
        --repeats 1` for its cost-model prediction. These are not gated,
        so a failing one is reported and skipped."""
        diag: dict = {"errors": []}
        for key, step in (
            ("default_threads", self._default_thread_times),
            ("cost_model_predicted", self._cost_model_prediction),
            ("single_thread", self._single_thread_times),
        ):
            try:
                diag[key] = step(workdir)
            except Exception as exc:  # noqa: BLE001 - diagnostics must not stop the run
                diag["errors"].append(f"{key}: {exc!r}")
        return diag

    def _default_thread_times(self, workdir: Path) -> dict:
        self.setup(workdir)
        return time_ops(self, DIAG_SECONDS)

    def _cost_model_prediction(self, workdir: Path) -> float:
        report = workdir / "bench_report.json"
        argv = [
            "bench",
            "--dims", _dims_arg(self.sizes.dims),
            "--subspace", _dims_arg(self.sub),
            "--n", str(self.sizes.n_classes * self.sizes.per_class),
            "--repeats", "1",
            "--seed", str(self.seed),
            "--report", str(report),
        ]
        rc = run_cli(self.mcsda, argv)
        _require(rc == 0, f"mcsda bench exited with {rc}")
        return float(json.loads(report.read_text())["predicted_ratio"])

    def _single_thread_times(self, workdir: Path) -> dict:
        child_env = dict(os.environ)
        for var in THREAD_VARS:
            child_env[var] = "1"
        cmd = [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            # run.py's --workload is required; --diag-1thread runs these fits
            "--workload", OvrTrain.name,
            "--seed", str(self.seed),
            "--diag-1thread",
        ] + (["--smoke"] if self.smoke else [])
        proc = subprocess.run(
            cmd, env=child_env, capture_output=True, text=True, timeout=150, check=False
        )
        _require(
            proc.returncode == 0,
            f"single-thread baseline exited with {proc.returncode}: {proc.stderr[-500:]}",
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# ovr_train


class OvrTrain(Workload):
    """``mcsda train --one-vs-rest --force`` cycling through all four trainers."""

    name = "ovr_train"
    kinds = ("train_lda", "train_csda", "train_mda", "train_mcsda")
    rate_name = "train_models_per_s"

    def __init__(self, mcsda, seed, smoke):
        super().__init__(mcsda, seed, smoke)
        if smoke:
            self.sizes = Sizes((4, 3, 2), 3, 8, 1.0, 2.0)
            self.dims = {"lda": (1,), "csda": (6,), "mda": (2, 2, 1), "mcsda": (2, 2, 1)}
        else:
            self.sizes = Sizes((10, 8, 6), 6, 40, 1.0, 2.0)
            self.dims = {"lda": (1,), "csda": (48,), "mda": (4, 4, 3), "mcsda": (4, 4, 3)}

    def setup(self, root: Path) -> None:
        data = self.data = self.synth()
        self.root = root
        self.data_dir = root / "train_data"
        self.mcsda.save_dataset(data, self.data_dir)
        # one run per trainer: warm-up, and the reference (objective,
        # sweeps) per class
        self.reference = {}
        self.configs = {}
        for kind in self.kinds:
            self.check(kind, self.run(kind))
        self.reports.clear()

    def _out(self, kind) -> Path:
        return self.root / f"models_{kind}"

    def run(self, kind):
        method = kind.split("_", 1)[1]
        return run_cli(
            self.mcsda,
            [
                "train",
                "--data", str(self.data_dir),
                "--method", method,
                "--dims", _dims_arg(self.dims[method]),
                "--one-vs-rest",
                "--force",
                "--out", str(self._out(kind)),
            ],
        )

    def check(self, kind, rc) -> None:
        _require(rc == 0, f"{kind}: exit code {rc}")
        out = self._out(kind)
        n = self.sizes.n_classes
        expected = [f"class_{c}" for c in range(1, n + 1)]
        found = sorted(p.name for p in out.iterdir() if p.is_dir())
        _require(found == sorted(expected), f"{kind}: model dirs {found}")
        fits = []
        for c, sub in enumerate(expected, start=1):
            model = self.mcsda.load_model(out / sub)
            _require(
                model.positive_class == c and model.method == kind.split("_", 1)[1],
                f"{kind}: {sub} holds class {model.positive_class} {model.method}",
            )
            for k, w in enumerate(model.projections, start=1):
                raw = (out / sub / f"W{k}.bin").read_bytes()
                _require(
                    raw == np.asarray(w).ravel(order="F").astype("<f8").tobytes(),
                    f"{kind}: {sub}/W{k}.bin does not load back bit-exact",
                )
                _require(bool(np.all(np.isfinite(w))), f"{kind}: {sub} W{k} not finite")
            if kind in ("train_mda", "train_mcsda"):
                self.reports.append(model.fit_report)
            fits.append((model.fit_report.objective_trace[-1], model.fit_report.iterations_run))
            if kind not in self.reference:
                self.configs[kind] = model.config
        # cmd_train writes fit_report.json after the last model; removing
        # it makes the next op's check see only that op's output
        report = out / "fit_report.json"
        _require(report.is_file(), f"{kind}: no fit_report.json written")
        report.unlink()
        ref = self.reference.setdefault(kind, fits)
        _require(
            [s for _, s in fits] == [s for _, s in ref]
            and np.allclose([o for o, _ in fits], [o for o, _ in ref], rtol=1e-6, atol=0.0),
            f"{kind}: final (objective, sweeps) {fits} differ from set-up {ref}",
        )

    def verify(self) -> None:
        x, labels = self.data.samples, self.data.labels
        for kind in self.kinds:
            method = kind.split("_", 1)[1]
            for c, got in enumerate(self.reference[kind], start=1):
                expected = oracle.reference_fit(x, labels, method, c, self.configs[kind])
                _check_reference(f"{kind} class {c}", got, expected, exact=method != "mda")

    def work(self, kind) -> int:
        return self.sizes.n_classes

    def diagnostics(self, workdir: Path) -> dict:
        return BenchRef(self.mcsda, self.seed, self.smoke).diagnostics(workdir)


# ---------------------------------------------------------------------------
# eval_ovr


class EvalOvr(Workload):
    """``mcsda eval`` verify + classify of an mcsda and a csda model set."""

    name = "eval_ovr"
    kinds = ("eval_mcsda", "eval_csda")
    # a csda op takes about a seventh of an mcsda op: six of them per
    # mcsda op give both kinds a similar share of the run, and the csda
    # median six times the samples
    cycle = ("eval_mcsda",) + ("eval_csda",) * 6
    rate_name = "eval_scores_per_s"
    tasks = ("verify", "classify")

    def __init__(self, mcsda, seed, smoke):
        super().__init__(mcsda, seed, smoke)
        if smoke:
            self.sizes = Sizes((6, 5), 3, 30, 1.0, 2.0)
            self.dims = {"mcsda": (2, 2), "csda": (4,)}
        else:
            self.sizes = Sizes((20, 15), 10, 150, 1.0, 2.0)
            self.dims = {"mcsda": (5, 5), "csda": (25,)}
        self.train_fraction = 0.2  # 30 training and 120 test samples per class

    def setup(self, root: Path) -> None:
        data = self.synth()
        train, test = self.mcsda.stratified_split(data, self.train_fraction, self.seed)
        self.n_test = test.count
        self.root = root
        self.train_dir = root / "train"
        self.test_dir = root / "test"
        self.mcsda.save_dataset(train, self.train_dir)
        self.mcsda.save_dataset(test, self.test_dir)
        for method, dims in self.dims.items():
            rc = run_cli(
                self.mcsda,
                [
                    "train",
                    "--data", str(self.train_dir),
                    "--method", method,
                    "--dims", _dims_arg(dims),
                    "--one-vs-rest",
                    "--out", str(root / f"models_{method}"),
                ],
            )
            _require(rc == 0, f"training the {method} model set exited with {rc}")
        self.reports = [
            self.mcsda.load_model(p).fit_report
            for p in sorted((root / "models_mcsda").iterdir())
            if p.is_dir()
        ]
        self.test = test
        # reference reports; also the warm-up
        self.reference = {}
        for kind in self.kinds:
            self.check(kind, self.run(kind))

    def verify(self) -> None:
        for kind in self.kinds:
            verify = json.loads(self.reference[kind]["verify"])
            classify = json.loads(self.reference[kind]["classify"])
            mean_ap, accuracy = self._oracle(kind.split("_", 1)[1], self.test)
            _require(
                abs(verify["map"] - mean_ap) <= 1e-9
                and abs(classify["accuracy"] - accuracy) <= 1e-9,
                f"{kind}: report mAP {verify['map']} / accuracy {classify['accuracy']}, "
                f"recomputed {mean_ap} / {accuracy}",
            )

    def _oracle(self, method: str, test) -> tuple[float, float]:
        """mAP and accuracy of one model set, recomputed from the saved
        matrices with numpy alone, not with the package's scoring code."""
        n = self.sizes.n_classes
        x = test.samples  # (count, I1, I2)
        scores = np.empty((n, test.count))
        for c in range(n):
            model = self.mcsda.load_model(self.root / f"models_{method}" / f"class_{c + 1}")
            ws, mean = model.projections, model.reference_mean
            if len(ws) == 1:
                flat = np.stack([s.ravel(order="F") for s in x])
                diff = flat @ ws[0] - mean.ravel(order="F") @ ws[0]
            else:
                proj = np.einsum("nij,ia,jb->nab", x, ws[0], ws[1])
                diff = (proj - ws[0].T @ mean @ ws[1]).reshape(test.count, -1)
            scores[c] = 1.0 / (1.0 + np.linalg.norm(diff, axis=1))
        aps = []
        for c in range(n):
            hits = (test.labels == c + 1)[np.argsort(-scores[c], kind="stable")]
            ranks = np.arange(1, hits.size + 1)
            aps.append(np.mean(np.cumsum(hits)[hits] / ranks[hits]))
        # argmax takes the first maximum: ties go to the lowest class id
        accuracy = np.mean(np.argmax(scores, axis=0) + 1 == test.labels)
        return float(np.mean(aps)), float(accuracy)

    def _report(self, kind, task) -> Path:
        return self.root / f"report_{kind}_{task}.json"

    def run(self, kind):
        method = kind.split("_", 1)[1]
        return [
            run_cli(
                self.mcsda,
                [
                    "eval",
                    "--models", str(self.root / f"models_{method}"),
                    "--data", str(self.test_dir),
                    "--task", task,
                    "--report", str(self._report(kind, task)),
                ],
            )
            for task in self.tasks
        ]

    def check(self, kind, rcs) -> None:
        _require(rcs == [0, 0], f"{kind}: exit codes {rcs}")
        texts = {task: self._report(kind, task).read_text() for task in self.tasks}
        for task in self.tasks:
            os.remove(self._report(kind, task))
        ref = self.reference.get(kind)
        if ref is None:
            self.reference[kind] = texts
        else:
            _require(texts == ref, f"{kind}: report differs from the setup report")

    def work(self, kind) -> int:
        return len(self.tasks) * self.sizes.n_classes * self.n_test

    def extra(self) -> dict:
        verify = json.loads(self.reference["eval_mcsda"]["verify"])
        return {"heldout_map": float(verify["map"])}


WORKLOADS = {w.name: w for w in (OvrTrain, EvalOvr)}
