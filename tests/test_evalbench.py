import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from dombert import evalbench, model
from dombert.corpus import CLS_ID, Vocabulary, build_vocab, pack_domain, tokenize
from dombert.errors import ConfigError
from dombert.masking import MaskingPolicy, make_masked_batch
from dombert.model import ModelConfig, encode, init_params
from dombert.nputil import STREAM_EVAL, derive_rng

from conftest import failing_partway, traced_peak


def _array_bytes(obj) -> int:
    """Bytes of every array reachable from obj through dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class TestSyntheticSpec:
    def test_defaults(self):
        spec = evalbench.SyntheticSpec()
        assert spec.n_domains == 12
        assert sum(spec.mix) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            evalbench.SyntheticSpec(mix=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            evalbench.SyntheticSpec(doc_len_min=10, doc_len_max=5)


class TestGenSyntheticCorpus:
    def test_deterministic_per_seed(self):
        spec = evalbench.SyntheticSpec(docs_per_domain=5, seed=3)
        a = evalbench.gen_synthetic_corpus(spec)
        b = evalbench.gen_synthetic_corpus(spec)
        assert a == b
        c = evalbench.gen_synthetic_corpus(
            evalbench.SyntheticSpec(docs_per_domain=5, seed=4))
        assert a != c

    def test_truth_map_covers_all_domains(self):
        spec = evalbench.SyntheticSpec(docs_per_domain=2)
        records, truth = evalbench.gen_synthetic_corpus(spec)
        assert len(truth) == spec.n_domains
        assert set(truth.values()) == set(range(spec.n_clusters))
        assert {name for name, _ in records} == set(truth)

    def test_singleton_clusters_share_only_background(self):
        spec = evalbench.SyntheticSpec(n_clusters=4, domains_per_cluster=1,
                                       docs_per_domain=10, seed=0)
        records, truth = evalbench.gen_synthetic_corpus(spec)
        tokens_by_domain = {}
        for name, text in records:
            tokens_by_domain.setdefault(name, set()).update(text.split())
        names = list(tokens_by_domain)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                common = tokens_by_domain[names[i]] & tokens_by_domain[names[j]]
                assert all(t.startswith("bg") for t in common)

    def test_pure_shared_mix(self):
        spec = evalbench.SyntheticSpec(mix=(1.0, 0.0, 0.0), docs_per_domain=5)
        records, _ = evalbench.gen_synthetic_corpus(spec)
        for name, text in records:
            cluster = name.split("_")[0]
            for tok in text.split():
                assert tok.startswith(cluster + "s")

    def test_default_mix_frequencies(self):
        """Empirical token-category frequencies land within +-2% of the
        configured ratios on the default-size corpus."""
        spec = evalbench.SyntheticSpec(seed=1)
        records, _ = evalbench.gen_synthetic_corpus(spec)
        counts = {"shared": 0, "unique": 0, "background": 0}
        for name, text in records:
            for tok in text.split():
                if tok.startswith("bg"):
                    counts["background"] += 1
                elif "u" in tok and tok.startswith(name):
                    counts["unique"] += 1
                else:
                    counts["shared"] += 1
        total = sum(counts.values())
        assert abs(counts["shared"] / total - 0.5) < 0.02
        assert abs(counts["unique"] / total - 0.3) < 0.02
        assert abs(counts["background"] / total - 0.2) < 0.02

    def test_corpus_and_truth_files(self, tmp_path):
        spec = evalbench.SyntheticSpec(docs_per_domain=2)
        records, truth = evalbench.gen_synthetic_corpus(spec)
        corpus_path = tmp_path / "synth.tsv"
        truth_path = tmp_path / "synth.truth"
        evalbench.write_corpus(corpus_path, records)
        evalbench.write_truth(truth_path, truth)
        assert evalbench.read_truth(truth_path) == truth
        first = corpus_path.read_text(encoding="utf-8").splitlines()[0]
        assert "\t" in first

    def test_failed_rewrite_keeps_the_earlier_files(self, tmp_path):
        """A write that fails partway leaves the old bytes and no .tmp file."""
        records, truth = evalbench.gen_synthetic_corpus(evalbench.SyntheticSpec(docs_per_domain=2))
        corpus_path, truth_path = tmp_path / "synth.tsv", tmp_path / "synth.truth"
        evalbench.write_corpus(corpus_path, records)
        evalbench.write_truth(truth_path, truth)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(OSError, match="No space left"):
            evalbench.write_corpus(corpus_path, failing_partway(records))
        with pytest.raises(OSError, match="No space left"):
            evalbench.write_truth(truth_path,
                                  SimpleNamespace(items=lambda: failing_partway(truth.items())))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestDomainRecovery:
    def _names_truth(self):
        spec = evalbench.SyntheticSpec(docs_per_domain=1)
        _, truth = evalbench.gen_synthetic_corpus(spec)
        names = sorted(truth, key=lambda n: (truth[n], n))
        return names, truth

    def test_oracle_embeddings_score_one(self):
        names, truth = self._names_truth()
        d = np.zeros((12, 16))
        for i, name in enumerate(names):
            d[i, truth[name]] = 1.0
            d[i, 3 + i] = 0.01  # break exact ties inside clusters
        assert evalbench.eval_domain_recovery(d, 0, names, truth) == 1.0

    def test_random_embeddings_match_uniform_expectation(self):
        """Under a random ranking the expected precision@3 with 3 mates in
        11 candidates is exactly 3/11 (hypergeometric mean)."""
        names, truth = self._names_truth()
        gen = np.random.default_rng(0)
        trials = 4000
        total = 0.0
        for _ in range(trials):
            d = gen.normal(size=(12, 8))
            total += evalbench.eval_domain_recovery(d, 0, names, truth)
        mean = total / trials
        assert abs(mean - 3 / 11) < 0.02

    def test_bounds(self):
        names, truth = self._names_truth()
        gen = np.random.default_rng(1)
        for _ in range(10):
            p = evalbench.eval_domain_recovery(gen.normal(size=(12, 4)), 2,
                                               names, truth)
            assert 0.0 <= p <= 1.0


class TestPseudoPerplexity:
    def _setup(self):
        texts = [f"tok{i} tok{i+1} tok{i+2} tok{i+3} tok{i+4}" for i in range(40)]
        vocab = build_vocab(texts, min_count=1, max_size=1000)
        cfg = ModelConfig(vocab_size=vocab.size, n_domains=2, max_len=16,
                          d_hidden=8, n_layers=1, n_heads=2, d_ff=12,
                          d_domain=2, dtype="float64")
        return texts, vocab, cfg

    def test_uniform_logit_model_scores_vocab_size(self):
        texts, vocab, cfg = self._setup()
        params = init_params(cfg, derive_rng(0, 0))
        params["tok_emb"][:] = 0.0
        params["mlm_out_b"][:] = 0.0
        ppl = evalbench.eval_pseudo_perplexity(params, cfg, texts, vocab, seed=0)
        assert abs(ppl - vocab.size) < 1e-6 * vocab.size

    def test_deterministic(self):
        texts, vocab, cfg = self._setup()
        params = init_params(cfg, derive_rng(1, 0))
        a = evalbench.eval_pseudo_perplexity(params, cfg, texts, vocab, seed=5)
        b = evalbench.eval_pseudo_perplexity(params, cfg, texts, vocab, seed=5)
        assert a == b

    def test_a_second_batch_keeps_no_cache_of_the_first(self, monkeypatch):
        """Every batch's caches go when its loss is taken: scoring two batches
        peaks within half of one head cache's T x V of scoring one (the
        second batch may hold a few more targets)."""
        vocab = Vocabulary([f"w{i}" for i in range(782)])
        cfg = ModelConfig(vocab_size=vocab.size, n_domains=2)
        gen = np.random.default_rng(0)
        # A text of max_len - 2 words and its [SEP] fill one row.
        texts = [" ".join(f"w{j}" for j in gen.integers(0, 782, size=cfg.max_len - 2))
                 for _ in range(2 * evalbench.SCORE_BATCH)]
        first = make_masked_batch(
            pack_domain([tokenize(t, vocab) for t in texts[:evalbench.SCORE_BATCH]],
                        0, cfg.max_len),
            MaskingPolicy(), derive_rng(0, STREAM_EVAL), cfg.vocab_size)
        head_bytes = first.n_targets * cfg.vocab_size * cfg.np_dtype.itemsize
        params = init_params(cfg, derive_rng(0, 0))

        def score(n):
            return lambda: evalbench.eval_pseudo_perplexity(params, cfg, texts[:n], vocab, 0)

        one = traced_peak(monkeypatch, score(evalbench.SCORE_BATCH))
        two = traced_peak(monkeypatch, score(2 * evalbench.SCORE_BATCH))
        assert two - one < head_bytes / 2, (one, two, head_bytes)

    def test_scoring_memory_does_not_grow_with_depth(self, monkeypatch):
        """A scoring batch holds no layer's cache: one full 16x128 batch
        peaks within a quarter of one full-width layer cache at 4 layers of
        what it peaks at 2. At 2 it peaks within half of one hidden-sized
        array of the five full-width arrays that GELU's step needs: the
        layer's input and output, x1, z1 and s (GELU written over z1)."""
        vocab = Vocabulary([f"w{i}" for i in range(782)])
        gen = np.random.default_rng(0)
        texts = [" ".join(f"w{j}" for j in gen.integers(0, 782, size=126))
                 for _ in range(evalbench.SCORE_BATCH)]
        peaks = {}
        for n_layers in (2, 4):
            cfg = ModelConfig(vocab_size=vocab.size, n_domains=2, n_layers=n_layers)
            params = init_params(cfg, derive_rng(0, 0))
            peaks[n_layers] = traced_peak(monkeypatch, lambda: evalbench.eval_pseudo_perplexity(
                params, cfg, texts, vocab, 0))
        ids = np.full((evalbench.SCORE_BATCH, cfg.max_len), CLS_ID)
        layer = encode(ids, np.full(len(ids), cfg.max_len), params, cfg).layers[0]
        assert peaks[4] - peaks[2] < _array_bytes(layer) / 4, (peaks, _array_bytes(layer))
        needed = layer.a_in.nbytes + 2 * layer.x1.nbytes + layer.z1.nbytes + layer.s.nbytes
        assert peaks[2] < needed + layer.x1.nbytes / 2, (peaks, needed)

    def test_scoring_passes_encode_its_arguments_by_position(self, monkeypatch):
        """A wrapper of encode that takes no keywords sees scoring ask for
        no layer caches."""
        texts, vocab, cfg = self._setup()
        params = init_params(cfg, derive_rng(0, 0))
        seen = []

        def positional_encode(input_ids, valid_lens, params, config, *rest):
            seen.append(rest[1:])
            return encode(input_ids, valid_lens, params, config, *rest)

        monkeypatch.setattr(model, "encode", positional_encode)
        evalbench.eval_pseudo_perplexity(params, cfg, texts, vocab, seed=0)
        assert seen and all(rest == (False,) for rest in seen)

    def test_empty_heldout_rejected(self):
        texts, vocab, cfg = self._setup()
        params = init_params(cfg, derive_rng(0, 0))
        with pytest.raises(ConfigError):
            evalbench.eval_pseudo_perplexity(params, cfg, [""], vocab, seed=0)


class TestPairedTraining:
    def test_sampled_vs_target_only_comparison_recorded(self):
        """Paired runs on one synthetic corpus: similarity-driven sampling vs
        target-only sampling, scored by pseudo-perplexity on held-out target
        documents. Both values are recorded; lower for the similarity-driven
        run is the expected direction but is corpus- and budget-dependent,
        so only validity of the comparison is asserted."""
        from dombert import corpus as corpuslib, trainer

        spec = evalbench.SyntheticSpec(docs_per_domain=40, doc_len_min=12,
                                       doc_len_max=24, shared_vocab=60,
                                       unique_vocab=30, background_vocab=80,
                                       seed=7)
        records, _ = evalbench.gen_synthetic_corpus(spec)
        heldout_spec = evalbench.SyntheticSpec(docs_per_domain=10,
                                               doc_len_min=12, doc_len_max=24,
                                               shared_vocab=60, unique_vocab=30,
                                               background_vocab=80, seed=8)
        heldout_records, _ = evalbench.gen_synthetic_corpus(heldout_spec)
        target = "c0_d0"
        heldout = [t for n, t in heldout_records if n == target]
        names = []
        for n, _ in records:
            if n not in names:
                names.append(n)
        table = corpuslib.DomainTable(names=names, target_index=0)
        vocab = corpuslib.build_vocab([t for _, t in records], 1, 4000)
        packed = corpuslib.pack_corpus(table, records, vocab, 48)
        mc = ModelConfig(vocab_size=vocab.size, n_domains=12, max_len=48,
                         d_hidden=32, n_layers=1, n_heads=2, d_ff=64,
                         d_domain=8)
        results = {}
        for mode, target_only in (("sampled", False), ("target_only", True)):
            tc = trainer.TrainConfig(tau=0.65, lr=1e-3, epochs=6, seed=0,
                                     micro_batch=8, accum_steps=1,
                                     target_only=target_only,
                                     checkpoint_interval=0)
            res = trainer.train(tc, packed, mc)
            results[mode] = evalbench.eval_pseudo_perplexity(
                res.params, mc, heldout, vocab, seed=3)
        print(f"pseudo-perplexity comparison: sampled={results['sampled']:.2f} "
              f"target_only={results['target_only']:.2f}")
        for value in results.values():
            assert np.isfinite(value) and 1.0 < value < 10 * vocab.size
