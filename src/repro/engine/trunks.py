"""The trunk store: each row's frozen-trunk output, reused across label updates.

A label update trains only MiniBERT's top block, its pooler and the
matching classifier (:meth:`repro.featurizers.bert.BertFeaturizer.update`);
the trunk below -- the embeddings and every lower block -- keeps its bits.
So the rescore after an update can read each row's trunk output back from
the rescore before it and run only the top block, the match features and
the classifier.

The store holds one float32 ``(length, hidden)`` array per row fingerprint,
cut to the row's real length.  A micro-batch whose rows all hit is rebuilt
as a zero-padded ``(B, T, H)`` block at the micro-batch's padded length.
That is exact, not approximate: padded keys get exact-zero softmax weights
in the top block's attention, and the pooler ([CLS]) and the segment sums
read no pad row, so the values at pad positions never reach a score.  The
engine plans every micro-batch at its rows' exact length, so a stored row
is always rebuilt at the width it was computed at, with no pad position.

:class:`ScoringEngine` decides when the store is read and written (see
:meth:`~repro.engine.ScoringEngine.invalidate_model`); this module keeps
the entries, the byte cap and the admission plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nn.layers import DTYPE, inference_scope

#: Byte cap on stored trunk outputs.  Customer C's 5,040-row BERT column
#: needs 22.4 MB at real length; rows past the cap run the full forward.
TRUNK_STORE_BYTES = 24 << 20


@dataclass(frozen=True)
class TrunkJob:
    """How one micro-batch gets its trunk output."""

    #: Row fingerprints, in micro-batch order.
    keys: tuple[bytes, ...]
    #: Real (non-padding) tokens of each row.
    lengths: tuple[int, ...]
    #: Positions whose freshly computed trunk is stored, or None when every
    #: row hits and the trunk is read back instead of run.
    fill: tuple[int, ...] | None

    @property
    def hit(self) -> bool:
        return self.fill is None


class TrunkStore:
    """Per-row trunk outputs under a byte cap, keyed by row fingerprint."""

    def __init__(self, capacity_bytes: int = TRUNK_STORE_BYTES) -> None:
        self.capacity_bytes = int(capacity_bytes)
        #: Written by the engine's scoring threads during a fill, each under
        #: its own key (a dict store is atomic); read and pruned between plans.
        self._rows: dict[bytes, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored arrays."""
        return sum(hidden.nbytes for hidden in self._rows.values())

    def clear(self) -> None:
        self._rows.clear()

    def retain(self, keys: Sequence[bytes]) -> None:
        """Drop every entry whose key is not in ``keys``."""
        wanted = set(keys)
        for key in [key for key in self._rows if key not in wanted]:
            del self._rows[key]

    def plan(
        self, batches: Sequence[tuple[Sequence[bytes], Sequence[int]]], hidden_size: int
    ) -> tuple[list[TrunkJob], int]:
        """A :class:`TrunkJob` per ``(keys, lengths)`` micro-batch, and the
        count of missing rows the byte cap refuses.

        Admission runs here, on the calling thread and in plan order, so
        which rows are stored does not depend on how threads interleave.
        """
        row_bytes = hidden_size * np.dtype(DTYPE).itemsize
        reserved = self.nbytes
        admitted: set[bytes] = set()
        refused = 0
        jobs: list[TrunkJob] = []
        for keys, lengths in batches:
            keys, lengths = tuple(keys), tuple(int(n) for n in lengths)
            if all(key in self._rows for key in keys):
                jobs.append(TrunkJob(keys, lengths, None))
                continue
            fill: list[int] = []
            for position, (key, length) in enumerate(zip(keys, lengths)):
                if key in self._rows or key in admitted:
                    continue
                size = length * row_bytes
                if reserved + size > self.capacity_bytes:
                    refused += 1
                    continue
                reserved += size
                admitted.add(key)
                fill.append(position)
            jobs.append(TrunkJob(keys, lengths, tuple(fill)))
        return jobs, refused

    def trunk_for(self, job: TrunkJob, model, batch) -> np.ndarray:
        """The trunk output of ``batch``: read back when every row hits,
        otherwise run, with the job's fill rows stored at real length."""
        width = batch.input_ids.shape[1]
        if job.hit:
            stored = [self._rows[key] for key in job.keys]
            trunk = np.zeros((len(stored), width, stored[0].shape[1]), dtype=DTYPE)
            for row, (hidden, length) in enumerate(zip(stored, job.lengths)):
                trunk[row, :length] = hidden
            return trunk
        with inference_scope():
            trunk = model.forward_trunk(batch)
        for position in job.fill:
            self._rows[job.keys[position]] = trunk[position, : job.lengths[position]].copy()
        return trunk
