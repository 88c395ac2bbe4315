"""Config names that RunConfig checks without loading the layers that use them.

`contrast` (the dual encoder) and `cascade` run only in the commands that need
them, but every command builds and checks a RunConfig, whose `train` section
is a TrainConfig and whose `strategy` and `aggregation` must name one of
STRATEGIES and AGGREGATIONS. Those three live here; `contrast` and `cascade`
re-export them as the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass

# How the dual encoder reads a long article (contrast.train).
STRATEGIES = ("truncate", "mean_chunks", "augment")
# How a cascade's per-tweet similarity rows combine into one (cascade.aggregate).
AGGREGATIONS = ("mean", "median", "max")


@dataclass(frozen=True)
class TrainConfig:
    """Dual-encoder training hyperparameters (contrast.train)."""

    neg_ratio: float = 1.0
    lr: float = 0.1
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    margin: float = 0.0
    nonlinearity: str = "none"  # "none" | "tanh"
    momentum: float = 0.0
    joint_dim: int = 64

    def __post_init__(self):
        if self.neg_ratio <= 0:
            raise ValueError("neg_ratio must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must lie in [0, 1)")
        if self.nonlinearity not in ("none", "tanh"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.joint_dim < 1:
            raise ValueError("joint_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
