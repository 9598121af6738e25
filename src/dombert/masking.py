"""Dynamic masked-LM corruption of packed examples.

Each visit to an example re-randomizes which positions are corrupted, so the
same row yields different prediction targets across epochs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import MASK_ID, NUM_RESERVED, PackedExample
from .errors import ConfigError


@dataclass(frozen=True)
class MaskingPolicy:
    """Per-position Bernoulli selection, then an 80/10/10 split between
    [MASK] replacement, random-token replacement, and keep-as-is."""

    select_prob: float = 0.15
    mask_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.select_prob <= 1.0:
            raise ConfigError("select_prob must be in [0, 1]")
        total = self.mask_frac + self.random_frac + self.keep_frac
        if abs(total - 1.0) > 1e-12:
            raise ConfigError("mask/random/keep fractions must sum to 1")
        if min(self.mask_frac, self.random_frac, self.keep_frac) < 0.0:
            raise ConfigError("replacement fractions must be non-negative")


@dataclass
class MaskedBatch:
    """Corrupted input rows plus per-example (position, original id) targets."""

    input_ids: np.ndarray          # (B, L) after corruption
    valid_lens: np.ndarray         # (B,)
    targets: list[list[tuple[int, int]]]
    domain_labels: np.ndarray      # (B,)

    @property
    def batch_size(self) -> int:
        return self.input_ids.shape[0]

    @property
    def n_targets(self) -> int:
        return sum(len(t) for t in self.targets)

    def flat_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(example index, position, original id) arrays over all targets."""
        ex, pos, tok = [], [], []
        for i, tlist in enumerate(self.targets):
            for p, t in tlist:
                ex.append(i)
                pos.append(p)
                tok.append(t)
        return (
            np.asarray(ex, dtype=np.int64),
            np.asarray(pos, dtype=np.int64),
            np.asarray(tok, dtype=np.int64),
        )

    def output_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The positions the two heads read, as (B, R) rows, and each
        target's slot in its example's row (flat_targets() order).

        Slot 0 is [CLS]; slots 1..n_b hold example b's targets; the rest
        repeat position 0. R is 1 + the largest per-example target count.
        """
        rows = np.zeros((self.batch_size, 1 + max(map(len, self.targets))), np.int64)
        slots = []
        for i, tlist in enumerate(self.targets):
            rows[i, 1 : 1 + len(tlist)] = [p for p, _ in tlist]
            slots.extend(range(1, 1 + len(tlist)))
        return rows, np.asarray(slots, dtype=np.int64)


def apply_dynamic_masking(
    example: PackedExample,
    policy: MaskingPolicy,
    rng: np.random.Generator,
    vocab_size: int,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Corrupt one example; returns (corrupted ids, targets).

    Candidate positions are the non-reserved tokens inside the valid region;
    [CLS], [SEP], [PAD] (and all other reserved ids) are never selected.
    Random replacements draw uniformly from the non-reserved id range.
    """
    ids = example.ids.copy()
    candidates = np.flatnonzero(
        (np.arange(ids.shape[0]) < example.valid_len) & (ids >= NUM_RESERVED)
    )
    if candidates.size == 0 or policy.select_prob == 0.0:
        return ids, []

    selected = candidates[rng.random(candidates.size) < policy.select_prob]
    if selected.size == 0:
        return ids, []

    rolls = rng.random(selected.size)
    to_mask = selected[rolls < policy.mask_frac]
    to_random = selected[
        (rolls >= policy.mask_frac) & (rolls < policy.mask_frac + policy.random_frac)
    ]
    targets = [(int(p), int(ids[p])) for p in np.sort(selected)]
    ids[to_mask] = MASK_ID
    if to_random.size:
        if vocab_size <= NUM_RESERVED:
            raise ConfigError("vocabulary has no non-reserved ids to draw from")
        ids[to_random] = rng.integers(NUM_RESERVED, vocab_size, size=to_random.size)
    return ids, targets


def make_masked_batch(
    examples: list[PackedExample],
    policy: MaskingPolicy,
    rng: np.random.Generator,
    vocab_size: int,
) -> MaskedBatch:
    """Mask a list of same-length examples into one batch."""
    rows, all_targets = [], []
    for ex in examples:
        ids, targets = apply_dynamic_masking(ex, policy, rng, vocab_size)
        rows.append(ids)
        all_targets.append(targets)
    return MaskedBatch(
        input_ids=np.stack(rows),
        valid_lens=np.array([ex.valid_len for ex in examples], dtype=np.int64),
        targets=all_targets,
        domain_labels=np.array([ex.domain_id for ex in examples], dtype=np.int64),
    )
