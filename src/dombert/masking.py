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
    """Corrupted input rows plus the prediction targets, one array entry per
    target, grouped by example in example order and by position within one."""

    input_ids: np.ndarray          # (B, L) after corruption
    valid_lens: np.ndarray         # (B,)
    target_ex: np.ndarray          # (T,) example index of each target
    target_pos: np.ndarray         # (T,) its position
    target_ids: np.ndarray         # (T,) the original id there
    domain_labels: np.ndarray      # (B,)

    @property
    def batch_size(self) -> int:
        return self.input_ids.shape[0]

    @property
    def n_targets(self) -> int:
        return len(self.target_ids)

    def flat_targets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(example index, position, original id) arrays over all targets."""
        return self.target_ex, self.target_pos, self.target_ids

    def output_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The positions the two heads read, as (B, R) rows, and each
        target's slot in its example's row (flat_targets() order).

        Slot 0 is [CLS]; slots 1..n_b hold example b's targets; the rest
        repeat position 0. R is 1 + the largest per-example target count.
        """
        counts = np.bincount(self.target_ex, minlength=self.batch_size)
        firsts = np.cumsum(counts) - counts
        slots = np.arange(1, 1 + self.n_targets) - firsts[self.target_ex]
        rows = np.zeros((self.batch_size, 1 + counts.max()), np.int64)
        rows[self.target_ex, slots] = self.target_pos
        return rows, slots


def apply_dynamic_masking(
    example: PackedExample,
    policy: MaskingPolicy,
    rng: np.random.Generator,
    vocab_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corrupt one example; returns (corrupted ids, target positions in
    increasing order, the original ids there).

    Candidate positions are the non-reserved tokens inside the valid region;
    [CLS], [SEP], [PAD] (and all other reserved ids) are never selected.
    Random replacements draw uniformly from the non-reserved id range.
    """
    ids = example.ids.copy()
    none = np.zeros(0, np.int64)
    candidates = np.flatnonzero(
        (np.arange(ids.shape[0]) < example.valid_len) & (ids >= NUM_RESERVED)
    )
    if candidates.size == 0 or policy.select_prob == 0.0:
        return ids, none, none

    selected = candidates[rng.random(candidates.size) < policy.select_prob]
    if selected.size == 0:
        return ids, none, none

    rolls = rng.random(selected.size)
    to_mask = selected[rolls < policy.mask_frac]
    to_random = selected[
        (rolls >= policy.mask_frac) & (rolls < policy.mask_frac + policy.random_frac)
    ]
    ids[to_mask] = MASK_ID
    if to_random.size:
        if vocab_size <= NUM_RESERVED:
            raise ConfigError("vocabulary has no non-reserved ids to draw from")
        ids[to_random] = rng.integers(NUM_RESERVED, vocab_size, size=to_random.size)
    return ids, selected, example.ids[selected]


def make_masked_batch(
    examples: list[PackedExample],
    policy: MaskingPolicy,
    rng: np.random.Generator,
    vocab_size: int,
) -> MaskedBatch:
    """Mask a list of same-length examples into one batch."""
    rows, positions, originals = zip(
        *(apply_dynamic_masking(ex, policy, rng, vocab_size) for ex in examples))
    return MaskedBatch(
        input_ids=np.stack(rows),
        valid_lens=np.array([ex.valid_len for ex in examples], dtype=np.int64),
        target_ex=np.repeat(np.arange(len(examples)), [len(p) for p in positions]),
        target_pos=np.concatenate(positions),
        target_ids=np.concatenate(originals),
        domain_labels=np.array([ex.domain_id for ex in examples], dtype=np.int64),
    )
