"""Ranking and classification metrics for one-vs-rest evaluation.

Average precision follows the rank-enumeration definition: sort by score
descending (stable, so ties keep input order), then average precision@r
over the ranks r that hold a positive. Classification reports use the
0/0 -> 0 convention for precision, recall and F1, and macro averages are
unweighted means over all classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discriminant import DiscriminantModel, _score_matrix

__all__ = [
    "MetricReport",
    "average_precision",
    "mean_average_precision",
    "classification_report",
    "verification_report",
    "predict_class",
    "summarize_folds",
]


@dataclass
class MetricReport:
    """Metrics of one evaluation run; which fields are set depends on the
    task (`verify` carries AP fields, `classify` the confusion-derived
    ones)."""

    task: str
    per_class_ap: dict[int, float] | None = None
    mean_ap: float | None = None
    per_class_support: dict[int, int] | None = None
    accuracy: float | None = None
    per_class_precision: list[float] | None = None
    per_class_recall: list[float] | None = None
    per_class_f1: list[float] | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    macro_f1: float | None = None
    confusion: list[list[int]] | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        if self.task == "verify":
            return {
                "version": 1,
                "task": "verify",
                "per_class": [
                    {
                        "class": c,
                        "ap": self.per_class_ap[c],
                        "positives": (
                            None
                            if self.per_class_support is None
                            else self.per_class_support.get(c)
                        ),
                    }
                    for c in sorted(self.per_class_ap)
                ],
                "map": self.mean_ap,
            }
        return {
            "version": 1,
            "task": "classify",
            "accuracy": self.accuracy,
            "per_class": [
                {
                    "class": i + 1,
                    "precision": self.per_class_precision[i],
                    "recall": self.per_class_recall[i],
                    "f1": self.per_class_f1[i],
                }
                for i in range(len(self.per_class_precision))
            ],
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion,
        }


def average_precision(scores, positives) -> float:
    """Average of precision@r over the ranks holding positives.

    `scores` must be finite; `positives` marks relevant samples and must
    contain at least one. Sorting is stable descending, so tied scores
    keep their input order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(positives, dtype=bool)
    if scores.ndim != 1 or flags.shape != scores.shape:
        raise ValueError(
            f"scores and positives must be equal-length 1-d, got "
            f"{scores.shape} and {flags.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not flags.any():
        raise ValueError("need at least one positive sample")
    order = np.argsort(-scores, kind="stable")
    hits = flags[order]
    ranks = np.arange(1, scores.size + 1)
    precisions = np.cumsum(hits)[hits] / ranks[hits]
    return float(precisions.mean())


def mean_average_precision(aps) -> float:
    """Arithmetic mean of per-class average precisions."""
    values = list(aps)
    if not values:
        raise ValueError("need at least one average precision value")
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def classification_report(true_labels, predicted_labels, n_classes: int) -> MetricReport:
    """Confusion-matrix metrics over classes 1..n_classes.

    Per-class precision, recall and F1 use the 0/0 -> 0 convention; the
    macro averages are unweighted over all classes, including classes
    never predicted or never present.
    """
    true = np.asarray(true_labels, dtype=np.int64)
    pred = np.asarray(predicted_labels, dtype=np.int64)
    if true.ndim != 1 or true.shape != pred.shape:
        raise ValueError(
            f"label arrays must be equal-length 1-d, got {true.shape} "
            f"and {pred.shape}"
        )
    if true.size == 0:
        raise ValueError("need at least one labeled sample")
    for name, arr in (("true", true), ("predicted", pred)):
        if arr.min() < 1 or arr.max() > n_classes:
            raise ValueError(
                f"{name} labels must lie in 1..{n_classes}, found range "
                f"{arr.min()}..{arr.max()}"
            )
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true - 1, pred - 1), 1)
    tp = np.diag(confusion).astype(np.float64)
    predicted_count = confusion.sum(axis=0).astype(np.float64)
    actual_count = confusion.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted_count > 0, tp / predicted_count, 0.0)
        recall = np.where(actual_count > 0, tp / actual_count, 0.0)
        pr_sum = precision + recall
        f1 = np.where(pr_sum > 0, 2.0 * precision * recall / pr_sum, 0.0)
    return MetricReport(
        task="classify",
        accuracy=float(tp.sum() / true.size),
        per_class_precision=[float(v) for v in precision],
        per_class_recall=[float(v) for v in recall],
        per_class_f1=[float(v) for v in f1],
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        confusion=confusion.tolist(),
    )


def verification_report(
    per_class_ap: dict[int, float], per_class_support: dict[int, int] | None = None
) -> MetricReport:
    """Bundle per-class APs and their mean into a report."""
    aps = dict(per_class_ap)
    return MetricReport(
        task="verify",
        per_class_ap=aps,
        mean_ap=mean_average_precision(aps.values()),
        per_class_support=None if per_class_support is None else dict(per_class_support),
    )


def predict_class(models: list[DiscriminantModel], sample) -> int:
    """Class of the highest-scoring one-vs-rest model; ties go to the
    lowest class id regardless of input order."""
    if not models:
        raise ValueError("need at least one model")
    if any(model.positive_class is None for model in models):
        raise ValueError("every one-vs-rest model needs a positive_class")
    ordered = sorted(models, key=lambda m: m.positive_class)
    scores = _score_matrix(ordered, np.asarray(sample)[np.newaxis])[:, 0]
    return int(ordered[np.argmax(scores)].positive_class)


def summarize_folds(values) -> dict[str, float]:
    """Mean and sample standard deviation across fold/repeat values."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one fold value")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}
