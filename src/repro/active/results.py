"""Result containers for active-learning experiments.

``ExperimentResult`` stores one accuracy curve (one strategy, one trial);
``AggregateResult`` summarizes several trials with mean ± std, which is how
the paper reports the stochastic baselines (Random and K-Means are averaged
over 10 trials in § IV-A).

Both containers round-trip through plain JSON-compatible dictionaries
(``to_dict``/``from_dict``) and files (``save``/``load``) so long multi-round
runs can be checkpointed and plotted offline.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.utils.io import atomic_write_json, read_json
from repro.utils.validation import require

__all__ = ["RoundRecord", "ExperimentResult", "AggregateResult"]


@dataclass
class RoundRecord:
    """Accuracy snapshot after retraining on a given number of labels.

    ``selection_seconds`` times the strategy's ``select`` call only;
    ``setup_seconds`` times the per-round work the driver performs *before*
    handing over — materializing the pool view and running ``predict_proba``
    over pool and labeled points, a real cost for FIRAL whose inputs are
    those probabilities.  The round's full selection-side wall clock is the
    sum of the two.
    """

    num_labeled: int
    pool_accuracy: float
    eval_accuracy: float
    balanced_eval_accuracy: float
    selection_seconds: float = 0.0
    setup_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_labeled": float(self.num_labeled),
            "pool_accuracy": self.pool_accuracy,
            "eval_accuracy": self.eval_accuracy,
            "balanced_eval_accuracy": self.balanced_eval_accuracy,
            "selection_seconds": self.selection_seconds,
            "setup_seconds": self.setup_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RoundRecord":
        return cls(
            num_labeled=int(data["num_labeled"]),
            pool_accuracy=float(data["pool_accuracy"]),
            eval_accuracy=float(data["eval_accuracy"]),
            balanced_eval_accuracy=float(data["balanced_eval_accuracy"]),
            selection_seconds=float(data.get("selection_seconds", 0.0)),
            setup_seconds=float(data.get("setup_seconds", 0.0)),
        )


@dataclass
class ExperimentResult:
    """One strategy's accuracy curve across active-learning rounds."""

    strategy_name: str
    dataset_name: str
    records: List[RoundRecord] = field(default_factory=list)

    def num_labeled(self) -> np.ndarray:
        return np.asarray([r.num_labeled for r in self.records], dtype=np.int64)

    def pool_accuracy(self) -> np.ndarray:
        return np.asarray([r.pool_accuracy for r in self.records], dtype=np.float64)

    def eval_accuracy(self) -> np.ndarray:
        return np.asarray([r.eval_accuracy for r in self.records], dtype=np.float64)

    def balanced_eval_accuracy(self) -> np.ndarray:
        return np.asarray([r.balanced_eval_accuracy for r in self.records], dtype=np.float64)

    def final_eval_accuracy(self) -> float:
        require(len(self.records) > 0, "experiment has no records")
        return self.records[-1].eval_accuracy

    def final_pool_accuracy(self) -> float:
        require(len(self.records) > 0, "experiment has no records")
        return self.records[-1].pool_accuracy

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""

        return {
            "strategy_name": self.strategy_name,
            "dataset_name": self.dataset_name,
            "records": [r.as_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            strategy_name=str(data["strategy_name"]),
            dataset_name=str(data["dataset_name"]),
            records=[RoundRecord.from_dict(r) for r in data.get("records", [])],
        )

    def save(self, path) -> pathlib.Path:
        """Write the result as JSON to ``path`` (checkpointing long runs).

        The write is atomic (temp file + ``os.replace``), so a crash
        mid-save cannot leave a truncated checkpoint behind.
        """

        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        return cls.from_dict(read_json(path, description="experiment result"))

    def to_table(self) -> str:
        """Format the curve as an aligned text table (one row per round)."""

        lines = [f"# {self.strategy_name} on {self.dataset_name}"]
        lines.append(f"{'labels':>8} {'pool_acc':>10} {'eval_acc':>10} {'bal_acc':>10}")
        for r in self.records:
            lines.append(
                f"{r.num_labeled:>8d} {r.pool_accuracy:>10.4f} "
                f"{r.eval_accuracy:>10.4f} {r.balanced_eval_accuracy:>10.4f}"
            )
        return "\n".join(lines)


@dataclass
class AggregateResult:
    """Mean ± std of several trials of the same strategy on the same dataset."""

    strategy_name: str
    dataset_name: str
    trials: List[ExperimentResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        require(len(self.trials) > 0, "at least one trial is required")
        lengths = {len(t.records) for t in self.trials}
        require(len(lengths) == 1, "all trials must have the same number of rounds")

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def num_labeled(self) -> np.ndarray:
        return self.trials[0].num_labeled()

    def _stack(self, getter) -> np.ndarray:
        return np.stack([getter(t) for t in self.trials], axis=0)

    def mean_eval_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.eval_accuracy).mean(axis=0)

    def std_eval_accuracy(self) -> np.ndarray:
        stacked = self._stack(ExperimentResult.eval_accuracy)
        return stacked.std(axis=0, ddof=1) if self.num_trials > 1 else np.zeros(stacked.shape[1])

    def mean_pool_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.pool_accuracy).mean(axis=0)

    def std_pool_accuracy(self) -> np.ndarray:
        stacked = self._stack(ExperimentResult.pool_accuracy)
        return stacked.std(axis=0, ddof=1) if self.num_trials > 1 else np.zeros(stacked.shape[1])

    def mean_balanced_eval_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.balanced_eval_accuracy).mean(axis=0)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""

        return {
            "strategy_name": self.strategy_name,
            "dataset_name": self.dataset_name,
            "trials": [t.to_dict() for t in self.trials],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AggregateResult":
        return cls(
            strategy_name=str(data["strategy_name"]),
            dataset_name=str(data["dataset_name"]),
            trials=[ExperimentResult.from_dict(t) for t in data.get("trials", [])],
        )

    def save(self, path) -> pathlib.Path:
        """Write the aggregate (all trials) as JSON to ``path``, atomically."""

        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "AggregateResult":
        return cls.from_dict(read_json(path, description="aggregate result"))

    def to_table(self) -> str:
        """Aligned text table of mean ± std accuracy per label count."""

        labels = self.num_labeled()
        pool_mean, pool_std = self.mean_pool_accuracy(), self.std_pool_accuracy()
        eval_mean, eval_std = self.mean_eval_accuracy(), self.std_eval_accuracy()
        lines = [
            f"# {self.strategy_name} on {self.dataset_name} ({self.num_trials} trials)",
            f"{'labels':>8} {'pool_acc':>18} {'eval_acc':>18}",
        ]
        for i, num in enumerate(labels):
            lines.append(
                f"{int(num):>8d} {pool_mean[i]:>9.4f}±{pool_std[i]:<8.4f} "
                f"{eval_mean[i]:>9.4f}±{eval_std[i]:<8.4f}"
            )
        return "\n".join(lines)


def compare_final_accuracy(results: Sequence[AggregateResult]) -> str:
    """Small comparison table of final evaluation accuracy across strategies."""

    lines = [f"{'strategy':>16} {'final_eval_acc':>16}"]
    for result in results:
        final = float(result.mean_eval_accuracy()[-1])
        lines.append(f"{result.strategy_name:>16} {final:>16.4f}")
    return "\n".join(lines)
