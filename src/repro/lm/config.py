"""MiniBERT hyper-parameter configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class BertConfig:
    """Architecture hyper-parameters of the from-scratch encoder.

    The defaults give a ~0.5M-parameter model: large enough to absorb the
    synthetic domain corpus, small enough that a CPU-only numpy forward pass
    over tens of thousands of candidate pairs finishes in seconds.
    """

    vocab_size: int
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    intermediate_size: int = 128
    max_position: int = 64
    num_segments: int = 2
    dropout: float = 0.1
    attention_dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1: the top block is the one updates train")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the special tokens")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BertConfig":
        return cls(**payload)
