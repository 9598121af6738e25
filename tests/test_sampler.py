import math

import numpy as np
import pytest

from dombert.corpus import DomainTable, PackedCorpus
from dombert.errors import CheckpointError, ConfigError, DegenerateEmbeddingError
from dombert.nputil import derive_rng
from dombert.sampler import (
    SamplerState,
    build_sampler,
    domain_probabilities,
    format_top_domains,
    importance_weights,
    next_example,
    refresh_probabilities,
    report_top_domains,
    sample_batch,
    sampling_probabilities,
    state_from_json,
    state_to_json,
)

from conftest import random_packed_example


def make_corpus(rng, counts, target=0, max_len=10, vocab_size=20):
    names = [f"dom{i}" for i in range(len(counts))]
    table = DomainTable(names=names, target_index=target)
    examples = []
    for did, count in enumerate(counts):
        for _ in range(count):
            examples.append(
                random_packed_example(rng, max_len=max_len,
                                      vocab_size=vocab_size, domain_id=did)
            )
    table.counts = list(counts)
    return PackedCorpus(examples=examples, table=table, max_len=max_len,
                        vocab_size=vocab_size)


class TestDomainProbabilities:
    def test_single_domain(self):
        p = domain_probabilities(np.array([[1.0, 2.0]]), 0, 0.5)
        assert np.allclose(p, [1.0])

    def test_parallel_rows_give_uniform(self):
        d = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
        p = domain_probabilities(d, 0, 0.13)
        assert np.allclose(p, 1.0 / 3)

    def test_known_cosines_against_softmax_oracle(self):
        # rows at 0, 60 and 120 degrees from the target: cosines 1, .5, -.5
        d = np.array([[1.0, 0.0],
                      [0.5, math.sqrt(3) / 2],
                      [-0.5, math.sqrt(3) / 2]])
        p = domain_probabilities(d, 0, 1.0)
        exps = [math.exp(c) for c in (1.0, 0.5, -0.5)]
        expected = np.array(exps) / sum(exps)
        assert np.allclose(p, expected, atol=1e-12)
        assert np.round(p, 3).tolist() == [0.547, 0.331, 0.122]

    def test_sums_to_one_and_positive(self, rng):
        for _ in range(20):
            d = rng.normal(size=(6, 4))
            p = domain_probabilities(d, 2, 0.13)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)

    def test_target_always_argmax(self, rng):
        for _ in range(50):
            d = rng.normal(size=(8, 5))
            p = domain_probabilities(d, 3, 0.13)
            assert p[3] >= p.max()

    def test_temperature_validation(self):
        with pytest.raises(ConfigError):
            domain_probabilities(np.eye(2), 0, 0.0)

    def test_zero_row_is_degenerate(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEmbeddingError):
            domain_probabilities(d, 0, 1.0)


class TestExploration:
    def test_zero_floor_is_the_softmax_bit_for_bit(self, rng):
        d = rng.normal(size=(6, 4))
        assert np.array_equal(sampling_probabilities(d, 2, 0.13, 0.0),
                              domain_probabilities(d, 2, 0.13))

    def test_mixture_with_uniform(self, rng):
        d = rng.normal(size=(6, 4))
        p = domain_probabilities(d, 0, 0.13)
        q = sampling_probabilities(d, 0, 0.13, 0.2)
        np.testing.assert_allclose(q, 0.8 * p + 0.2 / 6, rtol=1e-15)
        assert math.isclose(q.sum(), 1.0, rel_tol=1e-12)
        assert q.min() >= 0.2 / 6
        assert np.array_equal(np.argsort(-q, kind="stable"),
                              np.argsort(-p, kind="stable"))

    def test_floor_range(self):
        for explore in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match="explore"):
                sampling_probabilities(np.eye(3), 0, 0.13, explore)

    def test_state_refresh_keeps_the_floor(self, rng):
        corpus = make_corpus(rng, [2, 2, 2])
        d = rng.normal(size=(3, 4))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1), explore=0.3)
        moved = rng.normal(size=(3, 4))
        refresh_probabilities(state, moved)
        assert np.array_equal(state.probs,
                              sampling_probabilities(moved, 0, 0.13, 0.3))

    def test_importance_weights(self, rng):
        corpus = make_corpus(rng, [2, 2, 2, 2])
        d = rng.normal(size=(4, 3))
        labels = np.arange(4)
        assert importance_weights(build_sampler(corpus, d, 0.13, derive_rng(0, 1)),
                                  labels) is None
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1), explore=0.2)
        w = importance_weights(state, labels)
        np.testing.assert_allclose(w, 1.0 / (4 * state.probs), rtol=1e-15)
        assert np.array_equal(importance_weights(state, np.array([2, 2, 0])),
                              w[[2, 2, 0]])
        # draws from P' weighted so average to one per domain: a uniform prior
        assert math.isclose(float(state.probs @ w), 1.0, rel_tol=1e-12)
        assert w.max() <= 1.0 / 0.2


class TestQueues:
    def _state(self, rng, counts, probs=None):
        corpus = make_corpus(rng, counts)
        d = np.eye(len(counts))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1))
        if probs is not None:
            state.probs = np.asarray(probs, dtype=np.float64)
        return state

    def test_empty_domain_rejected(self, rng):
        corpus = make_corpus(rng, [2, 0, 1])
        with pytest.raises(ConfigError, match="dom1"):
            build_sampler(corpus, np.eye(3), 0.13, derive_rng(0, 1))
        saved = state_to_json(self._state(rng, [2, 1, 1]))
        with pytest.raises(ConfigError, match="dom1"):
            state_from_json(saved, corpus)

    def test_restore_onto_another_target_rejected(self, rng):
        """A corpus re-ingested with another --target cannot take the state."""
        saved = state_to_json(self._state(rng, [2, 1, 1]))
        with pytest.raises(CheckpointError, match="domain 0, corpus targets 2"):
            state_from_json(saved, make_corpus(rng, [2, 1, 1], target=2))
        assert state_from_json(saved, make_corpus(rng, [2, 1, 1])).target == 0

    def test_each_example_once_per_refill_window(self, rng):
        state = self._state(rng, [3, 2])
        seen = [id(next_example(state, 0)) for _ in range(6)]
        # two full permutations of three distinct examples
        assert sorted(seen[:3]) == sorted(set(seen[:3]))
        assert sorted(seen[3:]) == sorted(set(seen[3:]))
        counts = {x: seen.count(x) for x in set(seen)}
        assert all(c == 2 for c in counts.values())

    def test_degenerate_p_yields_only_target(self, rng):
        state = self._state(rng, [3, 4, 2], probs=[0.0, 1.0, 0.0])
        batch = sample_batch(state, 16)
        assert all(ex.domain_id == 1 for ex in batch)

    def test_empirical_frequencies_approach_p(self, rng):
        probs = [0.4, 0.3, 0.2, 0.1]
        state = self._state(rng, [3, 3, 3, 3], probs=probs)
        counts = np.zeros(4)
        draws = 100_000
        for _ in range(100):
            for ex in sample_batch(state, draws // 100):
                counts[ex.domain_id] += 1
        l1 = np.abs(counts / draws - np.asarray(probs)).sum()
        assert l1 < 0.01

    def test_batch_size_validation(self, rng):
        state = self._state(rng, [2, 2])
        with pytest.raises(ConfigError):
            sample_batch(state, 0)


class TestRefresh:
    def test_unchanged_embeddings_leave_p_unchanged(self, rng):
        corpus = make_corpus(rng, [2, 2, 2])
        d = rng.normal(size=(3, 4))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1))
        before = state.probs.copy()
        refresh_probabilities(state, d)
        assert np.array_equal(before, state.probs)

    def test_moving_toward_target_raises_probability(self, rng):
        corpus = make_corpus(rng, [2, 2, 2])
        d = rng.normal(size=(3, 4))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1))
        p_before = state.probs[1]
        moved = d.copy()
        moved[1] = 0.5 * moved[1] + 0.5 * moved[0] * np.linalg.norm(moved[1]) / np.linalg.norm(moved[0])
        refresh_probabilities(state, moved)
        assert state.probs[1] > p_before

    def test_ranking_matches_cosine_ranking(self, rng):
        corpus = make_corpus(rng, [1] * 6)
        d = rng.normal(size=(6, 4))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1))
        from dombert.sampler import cosines_to_target

        cos = cosines_to_target(d, 0)
        assert np.array_equal(np.argsort(-state.probs), np.argsort(-cos))

    def test_refresh_preserves_queue_cursors(self, rng):
        corpus = make_corpus(rng, [4, 4])
        d = rng.normal(size=(2, 3))
        state = build_sampler(corpus, d, 0.13, derive_rng(0, 1))
        sample_batch(state, 5)
        cursors = [q.cursor for q in state.queues]
        orders = [q.order.copy() for q in state.queues]
        refresh_probabilities(state, rng.normal(size=(2, 3)))
        assert [q.cursor for q in state.queues] == cursors
        for q, order in zip(state.queues, orders):
            assert np.array_equal(q.order, order)


class TestReport:
    def test_k_zero_is_empty(self, rng):
        d = rng.normal(size=(4, 3))
        assert report_top_domains(d, 0, 0, ["a", "b", "c", "d"]) == []

    def test_k_equals_n_is_a_permutation(self, rng):
        names = ["t", "s1", "s2", "s3"]
        d = rng.normal(size=(4, 3))
        report = report_top_domains(d, 0, 3, names)
        assert sorted(name for name, _ in report) == ["s1", "s2", "s3"]
        cosines = [c for _, c in report]
        assert cosines == sorted(cosines, reverse=True)

    def test_k_beyond_n_rejected(self, rng):
        with pytest.raises(ConfigError):
            report_top_domains(rng.normal(size=(3, 2)), 0, 3, ["a", "b", "c"])

    def test_ties_break_by_name(self):
        d = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0]])
        report = report_top_domains(d, 0, 3, ["t", "zed", "abc", "top"])
        assert report[0][0] == "top"          # cosine 1.0
        assert [name for name, _ in report[1:]] == ["abc", "zed"]  # tie at 0.0

    def test_line_format(self):
        lines = format_top_domains([("alpha", 0.5), ("beta", -0.25)])
        assert lines == ["1\talpha\t0.500000", "2\tbeta\t-0.250000"]
