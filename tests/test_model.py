import copy
import ctypes
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erf

from dombert import model, nputil
from dombert.corpus import CLS_ID, NUM_RESERVED, PAD_ID, SEP_ID
from dombert.errors import ConfigError, InputError
from dombert.masking import MaskingPolicy, make_masked_batch
from dombert.objective import loss_cls, mean_nll
from dombert.nputil import (derive_rng, gelu, gelu_grad, run_all, scatter_add_rows, softmax,
                            worker_threads)

from conftest import (batch_with_target_counts, loss_mlm, masked_batch, mlm_logits_full,
                      random_packed_example, traced_peak)


def tiny_config(**overrides):
    base = dict(vocab_size=20, n_domains=3, max_len=12, d_hidden=8, n_layers=2,
                n_heads=2, d_ff=16, d_domain=4, dtype="float64")
    base.update(overrides)
    return model.ModelConfig(**base)


def make_batch(rng, config, n=3, select_prob=0.4):
    exs = [random_packed_example(rng, max_len=config.max_len,
                                 vocab_size=config.vocab_size,
                                 domain_id=int(rng.integers(config.n_domains)))
           for _ in range(n)]
    return make_masked_batch(exs, MaskingPolicy(select_prob=select_prob),
                             rng, config.vocab_size)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(d_hidden=9, n_heads=2)

    def test_sizes_positive(self):
        with pytest.raises(ConfigError):
            tiny_config(d_domain=0)


class TestInitParams:
    def test_deterministic(self):
        cfg = tiny_config()
        p1 = model.init_params(cfg, derive_rng(3, 0))
        p2 = model.init_params(cfg, derive_rng(3, 0))
        for name in p1:
            assert np.array_equal(p1[name], p2[name])

    def test_domain_embedding_width(self):
        cfg = tiny_config(d_domain=64, n_domains=7)
        params = model.init_params(cfg, derive_rng(0, 0))
        assert params["dom_emb"].shape == (7, 64)

    def test_weight_statistics(self):
        """Sample mean of a large weight array stays within 3 sigma of zero."""
        cfg = tiny_config(vocab_size=4000, d_hidden=16, n_heads=2)
        params = model.init_params(cfg, derive_rng(11, 0))
        emb = params["tok_emb"]
        n = emb.size
        assert abs(emb.mean()) < 3 * model.INIT_STD / np.sqrt(n)
        assert abs(emb.std() - model.INIT_STD) < 0.1 * model.INIT_STD

    def test_biases_and_gains(self):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        assert np.all(params["layer0.bq"] == 0)
        assert np.all(params["mlm_out_b"] == 0)
        assert np.all(params["emb_ln_g"] == 1)
        assert np.all(params["layer1.ln2_b"] == 0)


class TestFlatLayout:
    @staticmethod
    def assert_views_in_spec_order(params, cfg):
        assert isinstance(params, model.FlatParams)
        flat = params.flat
        assert flat.ndim == 1 and flat.flags.c_contiguous and flat.dtype == cfg.np_dtype
        specs = model.param_specs(cfg)
        assert params.specs == specs
        assert [(name, arr.shape) for name, arr in params.items()] == specs
        start = 0
        for name, arr in params.items():
            assert np.shares_memory(arr, flat[start:start + arr.size]), name
            start += arr.size
        assert start == flat.size

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_params_and_grads_are_one_buffer_in_spec_order(self, dtype):
        cfg = tiny_config(dtype=dtype)
        for params in (model.init_params(cfg, derive_rng(3, 0)), model.zero_grads(cfg)):
            self.assert_views_in_spec_order(params, cfg)
        assert not model.zero_grads(cfg).flat.any()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_init_params_keeps_the_per_name_bytes(self, dtype):
        """The flat init draws and casts as one array per name did."""
        cfg = tiny_config(dtype=dtype)
        rng = derive_rng(3, 0)
        reference = {}
        for name, shape in model.param_specs(cfg):
            if model._is_gain(name):
                arr = np.ones(shape)
            elif model._is_bias(name):
                arr = np.zeros(shape)
            else:
                arr = rng.normal(0.0, model.INIT_STD, size=shape)
            reference[name] = arr.astype(cfg.np_dtype)
        params = model.init_params(cfg, derive_rng(3, 0))
        for name, arr in reference.items():
            assert params[name].dtype == arr.dtype and params[name].tobytes() == arr.tobytes()

    def test_flat_copy_owns_a_new_buffer(self):
        params = model.init_params(tiny_config(), derive_rng(3, 0))
        copies = model.flat_copy(params)
        assert isinstance(copies, model.FlatParams) and copies.specs == params.specs
        assert not np.shares_memory(copies.flat, params.flat)
        assert copies.flat.tobytes() == params.flat.tobytes()

    def test_buffers_that_do_not_tile_the_specs_are_rejected(self):
        specs = [("a", (3, 3)), ("b", (2,))]
        model.FlatParams(specs, np.zeros(11))
        for bad in (
            np.zeros(10),               # too short
            np.zeros(12),               # too long
            np.zeros((1, 11)),          # 2-D
            np.zeros(22)[::2],          # not C-contiguous
            list(np.zeros(11)),         # not an array
        ):
            with pytest.raises(ValueError):
                model.FlatParams(specs, bad)

    def test_entries_stay_views_of_the_buffer(self):
        params = model.flat_views([("a", (3, 3)), ("b", (2,))], np.float64)
        a = params["a"]
        params["a"] += 1.0                     # stores back the view it updated
        params["b"] = params["b"]
        assert params["a"] is a
        assert params.flat.tolist() == [1.0] * 9 + [0.0] * 2
        for replace in (
            lambda: params.__setitem__("a", np.ones((3, 3))),
            lambda: params.__setitem__("a", params["a"].copy()),
            lambda: params.__setitem__("c", np.ones(2)),
            lambda: params.__delitem__("a"),
            lambda: params.update(b=np.ones(2)),
            lambda: params.pop("b"),
            lambda: params.clear(),
        ):
            with pytest.raises(TypeError):
                replace()
        assert list(params) == ["a", "b"] and params["a"] is a

    def test_deepcopy_lays_views_over_a_copied_buffer(self):
        params = model.init_params(tiny_config(), derive_rng(3, 0))
        copied = copy.deepcopy(params)
        assert isinstance(copied, model.FlatParams) and copied.specs == params.specs
        assert not np.shares_memory(copied.flat, params.flat)
        assert copied.flat.tobytes() == params.flat.tobytes()
        for name, arr in copied.items():
            assert arr.base is copied.flat and np.array_equal(arr, params[name]), name
        copied["tok_emb"] += 1.0
        assert copied.flat.tobytes() != params.flat.tobytes()


class TestEncode:
    def test_identical_rows_identical_outputs(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        ex = random_packed_example(rng, max_len=cfg.max_len, vocab_size=cfg.vocab_size)
        ids = np.stack([ex.ids, ex.ids])
        lens = np.array([ex.valid_len, ex.valid_len])
        cache = model.encode(ids, lens, params, cfg)
        assert np.array_equal(cache.h[0], cache.h[1])

    def test_deterministic_without_dropout(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg)
        h1 = model.encode(batch.input_ids, batch.valid_lens, params, cfg).h
        h2 = model.encode(batch.input_ids, batch.valid_lens, params, cfg).h
        assert np.array_equal(h1, h2)

    def test_pad_contents_cannot_leak(self, rng):
        """Random rewrites of the padding region leave every non-pad output
        unchanged, bit for bit."""
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(1, 0))
        ids = np.full((1, cfg.max_len), 0, dtype=np.int64)
        ids[0, 0] = 2
        valid_len = 7
        ids[0, 1:valid_len] = rng.integers(5, cfg.vocab_size, size=valid_len - 1)
        lens = np.array([valid_len])
        h_ref = model.encode(ids, lens, params, cfg).h
        for _ in range(5):
            alt = ids.copy()
            alt[0, valid_len:] = rng.integers(0, cfg.vocab_size,
                                              size=cfg.max_len - valid_len)
            h_alt = model.encode(alt, lens, params, cfg).h
            assert np.array_equal(h_ref[0, :valid_len], h_alt[0, :valid_len])

    def test_out_of_range_ids_rejected(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        ids = np.full((1, cfg.max_len), cfg.vocab_size, dtype=np.int64)
        with pytest.raises(InputError):
            model.encode(ids, np.array([3]), params, cfg)

    def test_h_cls_is_position_zero(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg)
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        assert np.array_equal(cache.h_cls, cache.h[:, 0, :])

    @staticmethod
    def _refused_before_any_shard(monkeypatch, ids, lens, rows=None):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))

        def no_shard(*args):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(model, "_in_shards", no_shard)
        with pytest.raises(InputError):
            model.encode(ids, lens, params, cfg, rows)

    @pytest.mark.parametrize("lens", [[5], [12, 0], [12, -1], [12, 13]],
                             ids=["one length for two rows", "0", "-1", "L + 1"])
    def test_valid_lens_refused(self, monkeypatch, lens):
        """One length would broadcast over the batch; at 0 every key is
        masked and the row's outputs would follow its pad."""
        ids = np.full((2, 12), CLS_ID)
        self._refused_before_any_shard(monkeypatch, ids, np.array(lens))

    @pytest.mark.parametrize("rows", [[[0, 3], [0, 12]], [[0, 3], [0, -1]], [[0, 3]]],
                             ids=["position L", "position -1", "one row for two examples"])
    def test_rows_refused(self, monkeypatch, rows):
        ids = np.full((2, 12), CLS_ID)
        self._refused_before_any_shard(monkeypatch, ids, np.array([12, 12]), np.array(rows))


class TestEncodeBackwardInputs:
    @staticmethod
    def _instance(rng, for_backward=True):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg)
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg, None,
                             for_backward)
        return cfg, params, cache

    @pytest.mark.parametrize("shape", ["one example", "one feature"])
    def test_d_h_not_shaped_like_h_refused(self, rng, shape):
        """(1, L, d) and (B, L, 1) would broadcast into wrong gradients."""
        cfg, params, cache = self._instance(rng)
        b, l, d = cache.h.shape
        d_h = np.ones((1, l, d) if shape == "one example" else (b, l, 1))
        grads = model.zero_grads(cfg)
        with pytest.raises(InputError):
            model.encode_backward(d_h, cache, params, cfg, grads)
        assert not grads.flat.any()

    def test_a_scoring_cache_refused(self, rng):
        cfg, params, cache = self._instance(rng, for_backward=False)
        assert cache.emb_ln is None and cache.layers == []
        with pytest.raises(InputError):
            model.encode_backward(np.ones_like(cache.h), cache, params, cfg,
                                  model.zero_grads(cfg))

    def test_memory_does_not_grow_with_depth(self, monkeypatch):
        """A layer's data gradients go before the layer below starts: an
        8x128 batch's backward peaks within one layer's _LayerGrads at 4
        layers of what it peaks at 2. Holding every layer's at once adds one
        _LayerGrads a layer."""
        ids = np.random.default_rng(0).integers(NUM_RESERVED, 300, size=(8, 128))
        peaks = {}
        for n_layers in (2, 4):
            cfg = model.ModelConfig(vocab_size=300, n_domains=3, n_layers=n_layers)
            params = model.init_params(cfg, derive_rng(0, 0))
            cache = model.encode(ids, np.full(8, 128), params, cfg)
            d_h, grads = np.ones_like(cache.h), model.zero_grads(cfg)
            peaks[n_layers] = traced_peak(monkeypatch, lambda: model.encode_backward(
                d_h, cache, params, cfg, grads))
        lc = cache.layers[0]
        layer_grads = lc.z1.nbytes + 7 * lc.x1.nbytes  # dz1, and seven shaped like x1
        assert peaks[4] - peaks[2] < layer_grads, (peaks, layer_grads)


class TestPrunedLastLayer:
    """encode(..., rows) against the full-width pass it prunes."""

    @staticmethod
    def _batch(cfg):
        l = cfg.max_len
        ids = np.random.default_rng(7).integers(NUM_RESERVED, cfg.vocab_size, size=(4, l))
        ids[:, 0] = CLS_ID
        targets = [[(3, 9), (l - 1, 11)],                 # a target at position L-1
                   [(2, 7), (5, 8)],                      # padded: valid_len 7 < L
                   [],                                    # zero targets: padding slots
                   [(1, 5), (4, 6), (6, 7), (8, 9)]]
        return masked_batch(ids, np.array([l, 7, l, 10]), targets, np.array([0, 2, 1, 0]))

    @pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-6)])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_the_full_width_pass(self, dtype, tol, n_layers):
        """h at the rows, both losses and every parameter gradient agree.

        The heads' upstream gradients land in (B, R, d) on the pruned pass
        and at the same positions of (B, L, d) on the full one.
        """
        cfg = tiny_config(dtype=dtype, n_layers=n_layers)
        params = model.init_params(cfg, derive_rng(3, 0))
        batch = self._batch(cfg)
        ex_idx, pos, tok = batch.flat_targets()
        rows, slots = batch.output_rows()
        assert rows.shape == (4, 5) and not rows[:, 0].any() and not rows[2].any()
        assert np.array_equal(rows[ex_idx, slots], pos)
        gen = np.random.default_rng(11)
        dlogits = gen.normal(size=(len(tok), cfg.vocab_size)).astype(cfg.np_dtype)
        dcls = gen.normal(size=(4, cfg.n_domains)).astype(cfg.np_dtype)
        out = {}
        for name, r, where in (("pruned", rows, slots), ("full", None, pos)):
            cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg, r)
            logits, ealc = model.mlm_logits_eal(cache, ex_idx, where, params)
            dom = model.domain_logits(cache.h_cls, params)
            grads = model.zero_grads(cfg)
            d_h = np.zeros_like(cache.h)
            model.mlm_head_backward(dlogits, ealc, d_h, params, grads)
            d_h[:, 0] += model.domain_head_backward(dcls, cache.h_cls, params, grads)
            model.encode_backward(d_h, cache, params, cfg, grads)
            out[name] = (cache.h, loss_mlm(logits, tok),
                         loss_cls(dom, batch.domain_labels), grads)
        (h, mlm, cls, grads), (h_full, mlm_full, cls_full, grads_full) = (
            out["pruned"], out["full"])
        h_rows = h_full[np.arange(4)[:, None], rows]
        assert np.abs(h - h_rows).max() <= tol * np.abs(h_rows).max()
        assert abs(mlm - mlm_full) <= tol * mlm_full
        assert abs(cls - cls_full) <= tol * cls_full
        scale = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                              for g in grads_full.values()))
        for name, g in grads.items():
            assert g.dtype == cfg.np_dtype
            assert np.linalg.norm(g - grads_full[name]) <= tol * scale, name


class TestExampleShards:
    """encode and encode_backward give the same bytes however the batch's
    examples are split over threads, and encode gives them whether or not
    it keeps the layers' caches."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("b", [1, 5, 8])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_every_split_gives_the_same_bytes(self, dtype, b, pruned, monkeypatch):
        cfg = model.ModelConfig(vocab_size=300, n_domains=3, max_len=128, dtype=dtype)
        params = model.init_params(cfg, derive_rng(b, 0))
        gen = np.random.default_rng(b)
        l = cfg.max_len
        ids = gen.integers(NUM_RESERVED, cfg.vocab_size, size=(b, l))
        ids[:, 0] = CLS_ID
        valid = np.full(b, l)
        valid[b // 2:] = gen.integers(10, l, size=b - b // 2)  # padded examples
        ids[np.arange(l) >= valid[:, None]] = PAD_ID
        rows = None
        if pruned:  # [CLS], then up to 12 targets; spare slots repeat position 0
            rows = np.zeros((b, 13), dtype=np.int64)
            for i, n in enumerate(gen.integers(0, 13, size=b)):
                rows[i, 1:n + 1] = np.sort(gen.choice(np.arange(1, valid[i]), n, replace=False))
        out = []
        for shards in (1, 2, 3):
            monkeypatch.setattr(model, "_shard_count", lambda b_, l_, n=shards: n)
            cache = model.encode(ids, valid, params, cfg, rows)
            scored = model.encode(ids, valid, params, cfg, rows, False)
            assert scored.h.tobytes() == cache.h.tobytes()
            if not out:
                d_h = gen.normal(size=cache.h.shape).astype(cfg.np_dtype)
            grads = model.zero_grads(cfg)
            model.encode_backward(d_h, cache, params, cfg, grads)
            assert cache.h.dtype == cfg.np_dtype
            out.append((cache.h, grads))
        (h1, grads1), *split = out
        for h, grads in split:
            assert h.tobytes() == h1.tobytes()
            for name, g in grads.items():
                assert g.tobytes() == grads1[name].tobytes(), name

    @pytest.mark.parametrize("shards", [1, 2])
    def test_layer_hooks_stay_on_the_call_path(self, shards, monkeypatch):
        """encode and encode_backward look the embedding and the layer
        bodies up in the model module, once per layer and direction and
        shard, where a benchmark can wrap them: the embedding, the layers
        bottom up, then the layers top down."""
        cfg = model.ModelConfig(vocab_size=300, n_domains=3, max_len=16, n_layers=3)
        params = model.init_params(cfg, derive_rng(0, 0))
        ids = np.random.default_rng(0).integers(NUM_RESERVED, cfg.vocab_size, size=(4, 16))
        monkeypatch.setattr(model, "_shard_count", lambda b_, l_: shards)
        calls = []
        for name in ("_embed", "_layer_forward", "_layer_backward"):
            def counted(*args, _name=name, _inner=getattr(model, name), **kwargs):
                calls.append((_name, kwargs.get("i")))
                return _inner(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)
        cache = model.encode(ids, np.full(4, 16), params, cfg)
        model.encode_backward(np.ones_like(cache.h), cache, params, cfg, model.zero_grads(cfg))
        order = ([("_embed", None)] + [("_layer_forward", i) for i in range(3)]
                 + [("_layer_backward", i) for i in (2, 1, 0)])
        assert calls == [call for call in order for _ in range(shards)]


# Per-example target counts of an 8-example batch: enough targets for three
# head parts; none in the first four examples (the first example shards);
# none at all; and fewer targets than shards.
HEAD_SHARD_CASES = {
    "three parts": [12] * 8,
    "first examples without targets": [0, 0, 0, 0, 12, 12, 12, 12],
    "no targets": [0] * 8,
    "fewer targets than shards": [1, 0, 0, 0, 0, 0, 0, 1],
}


class TestHeadShards:
    """The masked-token head gives the same bytes however its targets and its
    tied projection's vocabulary rows are split over threads."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", list(HEAD_SHARD_CASES))
    def test_every_split_gives_the_same_bytes(self, dtype, case, monkeypatch):
        """One part for every cut (the unsplit head) against one to three
        target parts, the tied gradient in as many vocabulary parts as
        _large_parts allows."""
        cfg = model.ModelConfig(vocab_size=2305, n_domains=3, max_len=128, dtype=dtype)
        params = model.init_params(cfg, derive_rng(4, 0))
        batch = batch_with_target_counts(5, cfg.vocab_size, cfg.max_len, HEAD_SHARD_CASES[case])
        ex_idx, _, tok = batch.flat_targets()
        rows, slots = batch.output_rows()
        t = len(tok)
        if case == "three parts":  # the splits this test is for do happen
            width = cfg.d_hidden * cfg.vocab_size
            assert len(model._large_parts(t, 3, width)) == 3
            assert len(model._large_parts(cfg.vocab_size, cfg.vocab_size, t * cfg.d_hidden)) > 3
        dlogits = np.random.default_rng(6).normal(size=(t, cfg.vocab_size)).astype(cfg.np_dtype)
        large_parts = model._large_parts
        out = []
        for shards, most in ((1, 1), (1, None), (2, None), (3, None)):
            monkeypatch.setattr(model, "_shard_count", lambda b_, l_, n=shards: n)
            monkeypatch.setattr(model, "_large_parts", lambda rows_, n, width, m=most:
                                large_parts(rows_, min(n, m or n), width))
            cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg, rows)
            logits, _ = model.mlm_logits_eal(cache, ex_idx, slots, params)
            no_logits, ealc = model.mlm_logits_eal(cache, ex_idx, slots, params, tok)
            assert no_logits is None
            grads = model.zero_grads(cfg)
            d_h = np.zeros_like(cache.h)
            model.mlm_head_backward(dlogits, ealc, d_h, params, grads)
            arrays = {"logits": logits, "exp": ealc.exp, "exp_sum": ealc.exp_sum,
                      "picked": ealc.picked, "d_h": d_h, **grads}
            assert all(a.dtype == cfg.np_dtype for a in arrays.values())
            out.append((mean_nll(ealc.picked, ealc.exp_sum), arrays))
        (loss1, arrays1), *split = out
        for loss, arrays in split:
            assert loss == loss1
            for name, a in arrays.items():
                assert a.tobytes() == arrays1[name].tobytes(), name

    def test_parts_are_aligned_and_large(self):
        """Cuts fall on multiples of HEAD_ROWS, the parts tile the rows, and
        each holds more than SMALL_GEMM multiply-adds (or is the only one)."""
        for rows in (0, 1, 23, 24, 47, 48, 95, 96, 114, 247, 2305):
            for n in (1, 2, 3, 10_000):
                for width in (64 * 2305, 64 * 20, 114 * 64, 1):
                    parts = model._large_parts(rows, n, width)
                    assert 1 <= len(parts) <= n
                    assert parts[0].start == 0 and parts[-1].stop == rows
                    assert all(a.stop == z.start for a, z in zip(parts, parts[1:]))
                    if len(parts) > 1:
                        assert all(p.start % model.HEAD_ROWS == 0 for p in parts)
                        assert all((p.stop - p.start) * width > model.SMALL_GEMM
                                   for p in parts)

    def test_the_tied_gradient_builds_no_vocabulary_wide_product(self, monkeypatch):
        """At train-wide-pool's shapes (vocabulary 8,005, 8x32 rows, 40
        targets) the batch takes one target part; the tied gradient's
        vocabulary parts keep mlm_head_backward's traced peak above its
        inputs below half of one V x d product, which one part builds whole."""
        cfg = model.ModelConfig(vocab_size=8005, n_domains=3, max_len=32)
        params = model.init_params(cfg, derive_rng(4, 0))
        batch = batch_with_target_counts(5, cfg.vocab_size, cfg.max_len, [5] * 8)
        ex_idx, _, tok = batch.flat_targets()
        rows, slots = batch.output_rows()
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg, rows)
        _, ealc = model.mlm_logits_eal(cache, ex_idx, slots, params, tok)
        dlogits = np.random.default_rng(6).normal(size=(len(tok), cfg.vocab_size))
        dlogits = dlogits.astype(cfg.np_dtype)
        grads, d_h = model.zero_grads(cfg), np.zeros_like(cache.h)
        peak = traced_peak(monkeypatch, lambda: model.mlm_head_backward(
            dlogits, ealc, d_h, params, grads))
        product = params["tok_emb"].nbytes
        assert peak < product / 2, (peak, product)

    # Prints, for the OpenBLAS core the child runs, every array of the head
    # (forward and backward) whose bytes differ between one part for every
    # cut and a split: up to three target parts, and the tied gradient in
    # as many vocabulary parts as _large_parts allows. The shapes span the
    # vocabularies and target counts the cut rule was checked at.
    CORE_CUTS = """
import ctypes, hashlib, json, os
import numpy as np
from dombert import model, nputil
with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
    libs = [ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in nputil._openblas_paths(fh)]
ask = getattr(libs[0], "scipy_openblas_get_corename64_", None) if libs else None
if ask is not None:
    ask.restype = ctypes.c_char_p
core = ask().decode() if ask is not None else None
cases, differ = 0, []
if core == os.environ["OPENBLAS_CORETYPE"]:
    large_parts, rng = model._large_parts, np.random.default_rng(0)
    for dtype in ("float32", "float64"):
        for v in (20, 300, 2305, 8005):
            cfg = model.ModelConfig(vocab_size=v, n_domains=3, dtype=dtype)
            params = model.init_params(cfg, rng)
            for t in (1, 23, 37, 147, 300, 700):
                h = rng.standard_normal((t, 1, cfg.d_hidden), dtype=cfg.np_dtype)
                fwd = model.ForwardCache(np.zeros((t, 1), np.int64), None, h)
                idx, slots, tok = np.arange(t), np.zeros(t, np.int64), rng.integers(0, v, t)
                dlogits = rng.standard_normal((t, v), dtype=cfg.np_dtype)
                runs = []
                for shards, most in ((1, 1), (3, v)):
                    model._shard_count = lambda b, l, n=shards: n
                    model._large_parts = (lambda rows, n, width, m=most:
                                          large_parts(rows, min(n, m), width))
                    logits = model.mlm_logits_eal(fwd, idx, slots, params)[0]
                    run = {"logits": hashlib.sha256(logits).hexdigest()}
                    del logits
                    ealc = model.mlm_logits_eal(fwd, idx, slots, params, tok)[1]
                    grads, d_h = model.zero_grads(cfg), np.zeros_like(h)
                    model.mlm_head_backward(dlogits, ealc, d_h, params, grads)
                    run.update((k, hashlib.sha256(a).hexdigest()) for k, a in (
                        ("exp", ealc.exp), ("exp_sum", ealc.exp_sum), ("picked", ealc.picked),
                        ("d_h", d_h), ("grads", grads.flat)))
                    runs.append(run)
                    del ealc
                cases += 1
                differ += [f"{dtype} V={v} T={t} {k}" for k in runs[0] if runs[0][k] != runs[1][k]]
print(json.dumps({"core": core, "cases": cases, "differ": differ}))
"""

    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_the_cuts_keep_the_bytes_on_other_openblas_cores(self, core):
        """tools/digests.py checks the bytes on one OpenBLAS core; the
        head's cuts must keep them on the other cores HEAD_ROWS was chosen
        for, forced through OPENBLAS_CORETYPE in a child process."""
        seen = run_fresh(self.CORE_CUTS, OPENBLAS_CORETYPE=core)
        if seen["core"] != core:
            pytest.skip(f"OpenBLAS runs {seen['core']} here when asked for {core}")
        assert seen["cases"] == 48 and seen["differ"] == [], seen


class TestRunAll:
    def test_each_task_runs_once_and_errors_reach_the_caller(self):
        """Many tiny tasks over the worker threads, switching threads often."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [0] * 2000

            def bump(i):
                runs[i] += 1
                np.add(np.ones(64), 1.0)  # numpy releases the lock here

            start = time.monotonic()
            run_all([partial(bump, i) for i in range(len(runs))], 3)
            assert runs == [1] * len(runs)

            def fail():
                raise ValueError("task failed")

            tasks = [partial(bump, i) for i in range(len(runs))]
            with pytest.raises(ValueError, match="task failed"):
                run_all(tasks[:1000] + [fail] + tasks[1000:], 3)
            assert runs == [2] * len(runs)
            assert time.monotonic() - start < 60
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _threads_seen(n: int) -> set[int]:
        """The threads a run_all of n tasks ran on, each task held until n
        threads hold one, so a missing helper breaks the barrier. run_all
        is called from a thread joined with a timeout: a lost helper fails
        the test rather than hanging it."""
        meet = threading.Barrier(n, timeout=20)
        seen = set()

        def record():
            meet.wait()
            seen.add(threading.get_ident())

        caller = threading.Thread(target=run_all, args=([record] * n, n), daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive(), "run_all did not return"
        return seen

    def test_helpers_outlive_a_failed_task(self):
        n = worker_threads()
        if n < 2:
            pytest.skip("one worker thread: run_all is a plain loop")
        meet = threading.Barrier(n, timeout=20)

        def fail_on_a_helper():
            meet.wait()
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("helper task failed")

        with pytest.raises(ValueError, match="helper task failed"):
            run_all([fail_on_a_helper] * n, n)
        assert len(self._threads_seen(n)) == n

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helpers(self):
        n = worker_threads()
        if n < 2:
            pytest.skip("one worker thread: run_all is a plain loop")
        assert len(self._threads_seen(n)) == n  # the parent's helpers exist
        pid = os.fork()
        if pid == 0:  # the child: only the forking thread came along
            code = 1
            try:
                code = 0 if len(self._threads_seen(n)) == n else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its run_all")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0


def run_fresh(script: str, **env_vars: str):
    """The JSON that script prints last, run in a new interpreter that
    imports this dombert, with env_vars added to its environment."""
    src = os.path.dirname(os.path.dirname(nputil.__file__))
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestPinOpenblas:
    LIB = "/home/user/my envs/numpy.libs/libscipy_openblas64_-32a4b2a6.so"
    MAPS = [
        f"7f00-7f10 r--p 00000000 08:01 1234                       {LIB}\n",
        f"7f10-7f20 r-xp 00010000 08:01 1234                       {LIB}\n",
        "7f20-7f30 r-xp 00000000 08:01 1235     /usr/lib/libopenblas.so.0 (deleted)\n",
        "7f30-7f40 rw-p 00000000 00:00 0                          [heap]\n",
        "7f40-7f50 rw-p 00000000 00:00 0 \n",
        "7f50-7f60 r-xp 00000000 08:01 1236                       /usr/lib/libm.so.6\n",
    ]

    def test_paths_keep_their_spaces_and_skip_deleted_files(self):
        assert nputil._openblas_paths(self.MAPS) == [self.LIB]

    def test_an_openblas_that_cannot_be_opened_is_not_pinned(self, monkeypatch):
        """The documented fallback: one worker thread, batches unsplit."""
        monkeypatch.setattr(nputil, "_openblas_paths", lambda lines: [self.LIB])
        assert nputil._pin_openblas() is False

    # Run in a fresh process: what `import dombert.cli` loads, how many
    # OpenBLAS files the pinned process maps, and whether scipy.special's
    # erf, imported after, is the one dombert computes with.
    ONE_OPENBLAS = """
import json, sys
import dombert.cli
from dombert import nputil
loaded = sorted(m for m in ("scipy.special", "scipy.linalg") if m in sys.modules)
paths = None
if sys.platform.startswith("linux"):
    nputil.worker_threads()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = nputil._openblas_paths(fh)
import scipy.special
print(json.dumps({"loaded": loaded, "paths": paths, "same": scipy.special.erf is nputil.erf}))
"""

    def test_a_dombert_process_maps_one_openblas(self):
        """dombert takes erf without running scipy.special, whose other
        extensions map scipy's OpenBLAS; a later scipy.special reuses it."""
        seen = run_fresh(self.ONE_OPENBLAS)
        assert seen["loaded"] == []
        if sys.platform.startswith("linux"):
            assert len(seen["paths"]) == 1, seen["paths"]
        assert seen["same"] is True

    def test_erf_loader_reuses_a_loaded_module(self):
        assert nputil._load_erf() is erf is nputil.erf

    @pytest.mark.parametrize("missing", ["scipy", "file", "erf"])
    def test_erf_loader_names_what_is_missing(self, missing, monkeypatch):
        name = "scipy.special._special_ufuncs"
        monkeypatch.delitem(sys.modules, name)
        if missing == "scipy":
            monkeypatch.setattr(nputil, "find_spec", lambda n: None)
            expect = "a scipy package"
        elif missing == "file":
            monkeypatch.setattr(nputil, "EXTENSION_SUFFIXES", [".no-such-suffix"])
            expect = "_special_ufuncs.no-such-suffix"
        else:
            monkeypatch.setitem(sys.modules, name, type(sys)(name))
            expect = f"{name} has no erf"
        with pytest.raises(ImportError, match=re.escape(expect)):
            nputil._load_erf()


class TestAllocatorPolicy:
    # glibc's (M_MMAP_THRESHOLD, 32 MiB) and (M_TRIM_THRESHOLD, 64 MiB).
    CALLS = [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.fixture
    def libc(self, monkeypatch):
        """Installs a fake C library as ctypes.CDLL(None), the process's own
        symbols; other names open as before. worker_threads starts as in a
        new process, and its real state comes back after the test."""
        real_cdll = ctypes.CDLL
        threads = worker_threads()
        monkeypatch.setattr(nputil, "_threads", None)
        monkeypatch.setattr(nputil, "_inbox", nputil._inbox)

        def install(fake):
            def cdll(name, *args, **kwargs):
                if name is not None:
                    return real_cdll(name, *args, **kwargs)
                if isinstance(fake, Exception):
                    raise fake
                return fake
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            return threads
        return install

    def test_worker_threads_sets_both_limits_once_and_again_after_a_fork(self, libc):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1
        libc(SimpleNamespace(mallopt=mallopt))
        worker_threads()
        worker_threads()
        assert calls == self.CALLS
        nputil._forget_threads()
        worker_threads()
        assert calls == self.CALLS * 2

    @pytest.mark.parametrize("fake", [SimpleNamespace(), OSError("no C library"),
                                      SimpleNamespace(mallopt=lambda param, value: 0)],
                             ids=["no mallopt", "CDLL raises", "mallopt refuses"])
    def test_without_glibc_mallopt_nothing_changes(self, libc, fake):
        threads = libc(fake)
        assert nputil._keep_freed_memory() is False
        assert worker_threads() == threads

    # Run in a fresh process: the minor page faults of train-default-shaped
    # steps (four 8x128 micro-batches, vocabulary 2,305) after three warm-up
    # steps. Without the policy glibc unmaps or trims each step's 0.5-3 MB
    # arrays and the next step faults them back in: 6,500 a step.
    FAULTS = """
import json, resource
import numpy as np
from dombert import objective, trainer
from dombert.corpus import CLS_ID, NUM_RESERVED, SEP_ID, PackedExample
from dombert.masking import MaskingPolicy, make_masked_batch
from dombert.model import ModelConfig, init_params, zero_grads
from dombert.nputil import derive_rng

mc = ModelConfig(vocab_size=2305, n_domains=12)
rng = np.random.default_rng(0)

def example():
    ids = rng.integers(NUM_RESERVED, mc.vocab_size, size=mc.max_len)
    ids[0], ids[-1] = CLS_ID, SEP_ID
    return PackedExample(ids=ids, valid_len=mc.max_len, domain_id=int(rng.integers(12)))

batches = [make_masked_batch([example() for _ in range(8)], MaskingPolicy(), rng, mc.vocab_size)
           for _ in range(4)]
params = init_params(mc, derive_rng(0, 0))
opt = trainer.AdamaxState(m=zero_grads(mc), u=zero_grads(mc))
faults = []
for _ in range(3 + 5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grads = objective.step(batches, [None] * len(batches), params, mc, 0.9)
    trainer.adamax_step(params, grads, opt, 5e-5)
    del grads
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults[3:]))
"""

    def test_a_warm_training_step_keeps_its_memory_mapped(self):
        if not nputil._keep_freed_memory():  # sets what this process has set already
            pytest.skip("no glibc mallopt")
        faults = run_fresh(self.FAULTS)
        assert sum(faults) / len(faults) < 200, faults


class TestDomainLogits:
    def test_zero_head_gives_zero_logits(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        params["cls_w"][:] = 0.0
        params["cls_b"][:] = 0.0
        h = rng.normal(size=(4, cfg.d_hidden))
        assert np.all(model.domain_logits(h, params) == 0.0)

    def test_rank_one_structure(self, rng):
        cfg = tiny_config(d_domain=1)
        params = model.init_params(cfg, derive_rng(0, 0))
        params["dom_emb"][:] = 1.0
        h = rng.normal(size=(5, cfg.d_hidden))
        logits = model.domain_logits(h, params)
        for row in logits:
            assert np.allclose(row, row[0])

    def test_matches_dense_matmul_oracle(self, rng):
        """Hand-computed D (W h + b) on a random 2-domain instance."""
        cfg = tiny_config(n_domains=2, d_hidden=3, d_domain=2, n_heads=1)
        params = model.init_params(cfg, derive_rng(5, 0))
        h = rng.normal(size=(4, 3))
        w, b, d = params["cls_w"], params["cls_b"], params["dom_emb"]
        expected = np.empty((4, 2))
        for i in range(4):
            a = np.array([sum(w[j, k] * h[i, k] for k in range(3)) + b[j]
                          for j in range(2)])
            for dom in range(2):
                expected[i, dom] = sum(d[dom, j] * a[j] for j in range(2))
        got = model.domain_logits(h, params)
        assert np.allclose(got, expected, atol=1e-12)


class TestMlmPaths:
    def test_zero_targets(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg, select_prob=0.0)
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        logits, _ = model.mlm_logits_eal(cache, *batch.flat_targets()[:2], params)
        assert logits.shape == (0, cfg.vocab_size)

    def test_eal_equals_full_double(self, rng):
        cfg = tiny_config(dtype="float64")
        params = model.init_params(cfg, derive_rng(2, 0))
        batch = make_batch(rng, cfg, n=4)
        ex_idx, pos, _ = batch.flat_targets()
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        eal, _ = model.mlm_logits_eal(cache, ex_idx, pos, params)
        full = mlm_logits_full(cache, params)
        assert batch.n_targets > 0
        assert np.max(np.abs(eal - full[ex_idx, pos])) < 1e-10

    def test_eal_equals_full_single(self, rng):
        cfg = tiny_config(dtype="float32", vocab_size=50)
        params = model.init_params(cfg, derive_rng(2, 0))
        batch = make_batch(rng, cfg, n=4)
        ex_idx, pos, _ = batch.flat_targets()
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        eal, _ = model.mlm_logits_eal(cache, ex_idx, pos, params)
        full = mlm_logits_full(cache, params)
        assert np.max(np.abs(eal - full[ex_idx, pos])) < 1e-6

    def test_full_shape(self, rng):
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg)
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        full = mlm_logits_full(cache, params)
        assert full.shape == (3, cfg.max_len, cfg.vocab_size)

    def test_projection_row_counts(self):
        """The sparse path pushes exactly T rows through the vocabulary
        projection vs B*L on the dense path; at 15% masking the ratio is
        about 0.15."""
        cfg = model.ModelConfig(vocab_size=2000, n_domains=2, max_len=128,
                                d_hidden=32, n_layers=1, n_heads=2, d_ff=64,
                                d_domain=4, dtype="float32")
        gen = np.random.default_rng(0)
        exs = [random_packed_example(gen, max_len=128, vocab_size=2000)
               for _ in range(32)]
        # make rows mostly full so candidates dominate positions
        for ex in exs:
            ex.ids[1:127] = gen.integers(5, 2000, size=126)
            ex.ids[127] = SEP_ID
            ex.valid_len = 128
        batch = make_masked_batch(exs, MaskingPolicy(), derive_rng(4, 0), 2000)
        params = model.init_params(cfg, derive_rng(0, 0))
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        ex_idx, pos, _ = batch.flat_targets()
        eal_logits, _ = model.mlm_logits_eal(cache, ex_idx, pos, params)
        full_logits = mlm_logits_full(cache, params)
        eal_rows = eal_logits.shape[0]
        full_rows = full_logits.shape[0] * full_logits.shape[1]
        assert eal_rows == batch.n_targets
        assert full_rows == 32 * 128
        assert 0.12 <= eal_rows / full_rows <= 0.18


class TestGelu:
    # |x| up to 20 reaches float32 subnormal and zero values of 1 + erf.
    GRID = np.concatenate([np.linspace(-20.0, 20.0, 4001),
                           [-13.5, -8.0, -1e-3, 0.0, 1e-3, 8.0]])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_output_is_bit_identical_to_the_erf_formula(self, dtype):
        x = self.GRID.astype(dtype)
        out, s = gelu(x)
        assert out.dtype == s.dtype == np.dtype(dtype)
        assert np.array_equal(out, 0.5 * x * (1.0 + erf(x / math.sqrt(2.0))))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_output_written_over_its_input_keeps_the_bytes(self, dtype):
        """Scoring writes GELU over z1: out=x gives gelu(x)'s bytes."""
        out, s = gelu(self.GRID.astype(dtype))
        x = self.GRID.astype(dtype)
        over, s_over = gelu(x, out=x)
        assert over is x
        assert over.tobytes() == out.tobytes() and s_over.tobytes() == s.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_grad_is_bit_identical_to_the_recomputing_formula(self, dtype):
        x = self.GRID.astype(dtype)
        recomputed = (0.5 * (1.0 + erf(x / math.sqrt(2.0)))
                      + x * np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))
        grad = gelu_grad(x, gelu(x)[1])
        assert grad.dtype == np.dtype(dtype)
        assert np.array_equal(grad, recomputed)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_grad_times_upstream_is_bit_identical_to_the_product(self, dtype):
        """Backward multiplies the upstream gradient into gelu_grad's array."""
        x = self.GRID.astype(dtype)
        s = gelu(x)[1]
        dz2 = np.random.default_rng(3).normal(size=x.shape).astype(dtype)
        expected = dz2 * (0.5 * s + x * np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))
        dz1 = gelu_grad(x, s)
        dz1 *= dz2
        assert np.array_equal(dz1, expected)

    def test_grad_matches_central_difference(self):
        x, h = self.GRID, 1e-5
        fd = (gelu(x + h)[0] - gelu(x - h)[0]) / (2 * h)
        np.testing.assert_allclose(gelu_grad(x, gelu(x)[1]), fd, rtol=0, atol=1e-8)

    @staticmethod
    def _assert_bits_of_the_formula(bits):
        """gelu of the float32 values with these bit patterns, and of their
        negatives, has the bytes of the erf formula (signed zeros included)."""
        x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
        out, s = gelu(x)
        ref_s = 1.0 + erf(x / math.sqrt(2.0))
        assert np.array_equal(s.view(np.uint32), ref_s.view(np.uint32))
        assert np.array_equal(out.view(np.uint32), (0.5 * x * ref_s).view(np.uint32))

    @staticmethod
    def _float32_bits(lo, hi, chunk=1 << 21):
        """Bit patterns of every float32 in [lo, hi), in chunks."""
        first, last = np.array([lo, hi], dtype=np.float32).view(np.uint32)
        for start in range(int(first), int(last), chunk):
            yield np.arange(start, min(start + chunk, int(last)), dtype=np.uint32)

    def test_every_float32_around_the_erf_branch(self):
        """scipy's erf switches method at |z| = 1, z = x / sqrt 2: every
        float32 in [0.5, 4) covers the binades on both sides of it, and
        erf on |z| with the sign copied back must match erf(z) on all of
        them, positive and negative."""
        for bits in self._float32_bits(0.5, 4.0):
            self._assert_bits_of_the_formula(bits)

    def test_signed_zeros_and_every_subnormal(self):
        self._assert_bits_of_the_formula(np.array([0], dtype=np.uint32))
        tiny = float(np.finfo(np.float32).smallest_normal)
        for bits in self._float32_bits(0.0, tiny):
            self._assert_bits_of_the_formula(bits[bits > 0])
        out, s = gelu(np.array([-0.0], dtype=np.float32))
        assert np.signbit(out[0]) and s[0] == 1.0


class TestScatterAddRows:
    """scatter_add_rows gives the bytes of np.add.at with the same index."""

    @staticmethod
    def _check(target, index, rows):
        expected = target.copy()
        np.add.at(expected, index, rows)
        scatter_add_rows(target, index, rows)
        assert target.dtype == expected.dtype
        assert np.array_equal(target.view(np.uint8), expected.view(np.uint8))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_repeated_row_indices(self, dtype):
        gen = np.random.default_rng(21)
        # Values spanning 12 decades, so the order of additions shows in the bytes.
        index = gen.integers(0, 7, size=200)
        rows = (gen.normal(size=(200, 5)) * 10.0 ** gen.integers(-6, 6, size=(200, 1)))
        target = gen.normal(size=(7, 5))
        self._check(target.astype(dtype), index, rows.astype(dtype))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_broadcast_index_with_padding_at_position_zero(self, dtype):
        """The pruned layer's (B,1) x (B,R) index: padding slots repeat position 0."""
        gen = np.random.default_rng(22)
        b, l, r, d = 4, 9, 5, 6
        positions = np.zeros((b, r), dtype=np.int64)
        positions[:, 1:3] = gen.integers(1, l, size=(b, 2))
        rows = (gen.normal(size=(b, r, d)) * 10.0 ** gen.integers(-6, 6, size=(b, r, 1)))
        rows[:, 3:] = 0.0  # padding slots carry zero gradient
        target = np.zeros((b, l, d), dtype=dtype)
        self._check(target, (np.arange(b)[:, None], positions), rows.astype(dtype))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_example_slot_tuple(self, dtype):
        """The masked-token head's (example, slot) pairs, some repeated."""
        gen = np.random.default_rng(23)
        ex_idx = np.sort(gen.integers(0, 3, size=40))
        slots = gen.integers(0, 4, size=40)
        rows = (gen.normal(size=(40, 8)) * 10.0 ** gen.integers(-6, 6, size=(40, 1)))
        target = gen.normal(size=(3, 4, 8)).astype(dtype)
        self._check(target, (ex_idx, slots), rows.astype(dtype))

    def test_non_contiguous_target_is_refused(self):
        target = np.zeros((6, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(target[::2], np.array([0, 1]), np.ones((2, 4)))
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(target.T, np.array([0, 1]), np.ones((2, 6)))
        assert not target.any()


def _reference_softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


class TestInPlaceKernels:
    """The in-place kernels give the bytes of the out-of-place expressions
    they replace, and write into no argument."""

    @staticmethod
    def _rows(dtype, shape=(3, 5, 16)):
        gen = np.random.default_rng(11)
        # Row scales from 1e-3 to 1e3, and a constant row (variance exactly 0).
        x = gen.normal(size=shape) * 10.0 ** gen.integers(-3, 4, size=shape[:-1] + (1,))
        x[0, 0] = 0.75
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_softmax(self, dtype):
        x = self._rows(dtype)
        x[1, 2, :4] = -1e9  # masked keys
        before = x.copy()
        assert np.array_equal(softmax(x), _reference_softmax(x))
        assert np.array_equal(x, before)
        out = softmax(x, out=x)
        assert out is x and np.array_equal(x, _reference_softmax(before))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_attention_scores(self, dtype, rng):
        cfg = tiny_config(dtype=dtype, d_hidden=12)  # scale 1/sqrt(6) rounds
        params = {k: v.astype(dtype) for k, v in
                  model.init_params(cfg, derive_rng(0, 0)).items()}
        batch = make_batch(rng, cfg)
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg,
                             batch.output_rows()[0])
        scale = np.dtype(dtype).type(1.0 / math.sqrt(cfg.d_hidden // cfg.n_heads))
        for lc in cache.layers:
            q, k = (model._split_heads(a, cfg.n_heads) for a in (lc.q, lc.k))
            scores = (q @ k.swapaxes(-1, -2)) * scale + cache.key_bias
            assert lc.probs.dtype == np.dtype(dtype)
            assert np.array_equal(lc.probs, _reference_softmax(scores))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_layer_norm_forward(self, dtype):
        x = self._rows(dtype)
        gen = np.random.default_rng(12)
        g, b = (gen.normal(size=16).astype(dtype) for _ in range(2))
        before = x.copy()
        y, cache = model._ln_forward(x, g, b)
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + model.LN_EPS)
        xhat = xc * inv
        assert np.array_equal(y, g * xhat + b)
        assert np.array_equal(cache.xhat, xhat) and np.array_equal(cache.inv, inv)
        assert y.dtype == np.dtype(dtype) and np.array_equal(x, before)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_layer_norm_backward(self, dtype):
        x = self._rows(dtype)
        gen = np.random.default_rng(13)
        g, b = (gen.normal(size=16).astype(dtype) for _ in range(2))
        dy = (gen.normal(size=x.shape) * 10.0 ** gen.integers(-3, 4, size=x.shape)).astype(dtype)
        _, cache = model._ln_forward(x, g, b)
        xhat, inv = cache.xhat.copy(), cache.inv.copy()
        dy_before = dy.copy()
        dx = model._ln_dx(dy, cache, g)
        grads = {"ln_g": np.zeros(16, dtype), "ln_b": np.zeros(16, dtype)}
        model._ln_param_grads(dy, cache, grads, "ln")
        dg, db = grads["ln_g"], grads["ln_b"]
        dxhat = dy * g
        m1 = dxhat.mean(-1, keepdims=True)
        m2 = (dxhat * xhat).mean(-1, keepdims=True)
        assert np.array_equal(dx, inv * (dxhat - m1 - xhat * m2))
        assert np.array_equal(dg, (dy * xhat).sum(axis=(0, 1)))
        assert np.array_equal(db, dy.sum(axis=(0, 1)))
        assert dx.dtype == np.dtype(dtype)
        assert np.array_equal(dy, dy_before)
        assert np.array_equal(cache.xhat, xhat) and np.array_equal(cache.inv, inv)


class TestTiedWeights:
    def test_embedding_edit_moves_mlm_logits(self, rng):
        """The vocabulary projection shares storage with the token
        embeddings: editing a row shifts that token's logit everywhere."""
        cfg = tiny_config()
        params = model.init_params(cfg, derive_rng(0, 0))
        batch = make_batch(rng, cfg)
        ex_idx, pos, _ = batch.flat_targets()
        assert len(ex_idx) > 0
        cache = model.encode(batch.input_ids, batch.valid_lens, params, cfg)
        before, _ = model.mlm_logits_eal(cache, ex_idx, pos, params)
        token = cfg.vocab_size - 1
        # Perturb one component: a constant shift would be invisible since
        # the projected rows are layer-normalized to zero mean.
        params["tok_emb"][token, 0] += 0.5
        after, _ = model.mlm_logits_eal(cache, ex_idx, pos, params)
        assert not np.allclose(before[:, token], after[:, token])
