import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dombert.corpus import MASK_ID, NUM_RESERVED
from dombert.errors import ConfigError
from dombert.masking import MaskingPolicy, apply_dynamic_masking, make_masked_batch
from dombert.nputil import derive_rng

from conftest import batch_with_target_counts, random_packed_example


def mask(example, policy, rng, vocab_size):
    """apply_dynamic_masking with its targets as (position, original id) pairs."""
    ids, positions, originals = apply_dynamic_masking(example, policy, rng, vocab_size)
    return ids, list(zip(positions.tolist(), originals.tolist()))


class TestPolicy:
    def test_defaults(self):
        policy = MaskingPolicy()
        assert policy.select_prob == 0.15
        assert (policy.mask_frac, policy.random_frac, policy.keep_frac) == (0.8, 0.1, 0.1)

    def test_fracs_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            MaskingPolicy(mask_frac=0.5, random_frac=0.1, keep_frac=0.1)

    def test_select_prob_range(self):
        with pytest.raises(ConfigError):
            MaskingPolicy(select_prob=1.5)


class TestApplyDynamicMasking:
    def test_zero_select_prob_changes_nothing(self, rng):
        ex = random_packed_example(rng)
        policy = MaskingPolicy(select_prob=0.0)
        ids, targets = mask(ex, policy, derive_rng(0, 0), 30)
        assert targets == []
        assert np.array_equal(ids, ex.ids)

    def test_special_positions_never_selected(self, rng):
        policy = MaskingPolicy(select_prob=1.0)
        for seed in range(40):
            ex = random_packed_example(rng)
            ids, targets = mask(ex, policy, derive_rng(seed, 0), 30)
            positions = {p for p, _ in targets}
            for p in positions:
                assert 0 < p < ex.valid_len
                assert ex.ids[p] >= NUM_RESERVED
            # untouched outside targets
            for p in range(ex.ids.shape[0]):
                if p not in positions:
                    assert ids[p] == ex.ids[p]

    def test_positions_strictly_increasing(self, rng):
        policy = MaskingPolicy(select_prob=0.5)
        ex = random_packed_example(rng, max_len=24)
        _, targets = mask(ex, policy, derive_rng(3, 0), 30)
        positions = [p for p, _ in targets]
        assert positions == sorted(set(positions))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_reversibility(self, seed):
        """Writing the recorded originals back restores the example exactly."""
        gen = np.random.default_rng(seed)
        ex = random_packed_example(gen, max_len=16, vocab_size=40)
        policy = MaskingPolicy(select_prob=0.4)
        ids, targets = mask(ex, policy, derive_rng(seed, 1), 40)
        for p, orig in targets:
            ids[p] = orig
        assert np.array_equal(ids, ex.ids)

    def test_same_seed_same_corruption(self, rng):
        ex = random_packed_example(rng)
        policy = MaskingPolicy()
        a = mask(ex, policy, derive_rng(9, 2), 30)
        b = mask(ex, policy, derive_rng(9, 2), 30)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_different_rng_state_differs(self, rng):
        ex = random_packed_example(rng, max_len=64, vocab_size=50)
        policy = MaskingPolicy(select_prob=0.5)
        a = mask(ex, policy, derive_rng(1, 2), 50)
        b = mask(ex, policy, derive_rng(2, 2), 50)
        assert a[1] != b[1] or not np.array_equal(a[0], b[0])

    def test_selection_and_category_statistics(self):
        """Monte-Carlo counting over >= 1e5 candidate positions.

        Selected fraction must land in [0.145, 0.155] (a >4 sigma window at
        this sample size) and the mask/random/keep split within +-1%
        absolute. Categories are counted by effect; random draws that hit
        the original token are ~1/V and absorbed by the keep tolerance.
        """
        vocab_size = 5000
        policy = MaskingPolicy()
        gen = np.random.default_rng(77)
        mask_rng = derive_rng(77, 0)
        n_candidates = 0
        n_selected = 0
        n_mask = 0
        n_keep = 0
        n_random = 0
        while n_candidates < 120_000:
            ex = random_packed_example(gen, max_len=130, vocab_size=vocab_size)
            n_candidates += max(0, ex.valid_len - 2)
            ids, targets = mask(ex, policy, mask_rng, vocab_size)
            n_selected += len(targets)
            for p, orig in targets:
                if ids[p] == MASK_ID:
                    n_mask += 1
                elif ids[p] == orig:
                    n_keep += 1
                else:
                    n_random += 1
        frac = n_selected / n_candidates
        assert 0.145 <= frac <= 0.155
        assert abs(n_mask / n_selected - 0.8) <= 0.01
        assert abs(n_random / n_selected - 0.1) <= 0.01
        assert abs(n_keep / n_selected - 0.1) <= 0.01


class TestMakeMaskedBatch:
    def test_batch_shapes_and_labels(self, rng):
        exs = [random_packed_example(rng, domain_id=d) for d in (0, 2, 1)]
        batch = make_masked_batch(exs, MaskingPolicy(), derive_rng(0, 0), 30)
        assert batch.input_ids.shape == (3, 12)
        assert list(batch.domain_labels) == [0, 2, 1]
        assert batch.batch_size == 3

    def test_flat_targets_match_lists(self, rng):
        """The batch's rows and target arrays are those of masking each
        example in turn from the same generator."""
        for select_prob in (0.0, 0.15, 0.5):
            policy = MaskingPolicy(select_prob=select_prob)
            for seed in range(10):
                exs = [random_packed_example(rng, max_len=20) for _ in range(4)]
                batch = make_masked_batch(exs, policy, derive_rng(seed, 0), 30)
                rng_again = derive_rng(seed, 0)
                per_example = [mask(ex, policy, rng_again, 30) for ex in exs]
                assert np.array_equal(batch.input_ids, [ids for ids, _ in per_example])
                ex_idx, pos, tok = batch.flat_targets()
                assert ex_idx.dtype == pos.dtype == tok.dtype == np.int64
                assert len(ex_idx) == batch.n_targets
                flat = [(int(e), int(p), int(t)) for e, p, t in zip(ex_idx, pos, tok)]
                expected = [
                    (i, p, t) for i, (_, tlist) in enumerate(per_example) for p, t in tlist
                ]
                assert flat == expected


def rows_by_loop(batch):
    """output_rows() written as a loop over examples."""
    ex_idx, pos, _ = batch.flat_targets()
    per_example = [[int(p) for e, p in zip(ex_idx, pos) if e == i]
                   for i in range(batch.batch_size)]
    rows = np.zeros((batch.batch_size, 1 + max(map(len, per_example))), np.int64)
    slots = []
    for i, positions in enumerate(per_example):
        rows[i, 1 : 1 + len(positions)] = positions
        slots.extend(range(1, 1 + len(positions)))
    return rows, np.asarray(slots, dtype=np.int64)


class TestOutputRows:
    @pytest.mark.parametrize("counts", [
        [0, 3, 1, 2], [3, 0, 2, 1], [2, 1, 3, 0], [0, 0, 5, 0, 0, 1, 0], [0, 0, 0], [4], [0],
    ], ids=["none at the start", "none in the middle", "none at the end",
            "several without", "no targets", "one example", "one example, no targets"])
    def test_matches_a_loop_over_examples(self, counts):
        batch = batch_with_target_counts(3, 50, 16, counts)
        rows, slots = batch.output_rows()
        want_rows, want_slots = rows_by_loop(batch)
        assert rows.shape == (len(counts), 1 + max(counts))
        assert rows.dtype == slots.dtype == np.int64
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(slots, want_slots)
