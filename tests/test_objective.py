import dataclasses
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest

from dombert import model, nputil, objective
from dombert.errors import ConfigError, DegenerateEmbeddingError, InputError
from dombert.masking import MaskingPolicy, make_masked_batch
from dombert.nputil import derive_rng, softmax_parts

from conftest import batch_with_target_counts, loss_mlm, random_packed_example, traced_peak


def tiny_config(**overrides):
    base = dict(vocab_size=15, n_domains=3, max_len=10, d_hidden=8, n_layers=1,
                n_heads=2, d_ff=12, d_domain=4, dtype="float64")
    base.update(overrides)
    return model.ModelConfig(**base)


def random_instance(seed, lam=0.7, n=2, scale=0.25, **cfg_overrides):
    """A well-conditioned random batch/params pair for gradient checks."""
    cfg = tiny_config(**cfg_overrides)
    gen = derive_rng(seed, 0)
    params = dict(model.init_params(cfg, gen))
    for name, arr in params.items():
        if not (name.endswith("_g") or name.endswith("_b")
                or name.rsplit(".", 1)[-1].startswith("b")):
            params[name] = gen.normal(0.0, scale, size=arr.shape)
    exs = [random_packed_example(gen, max_len=cfg.max_len,
                                 vocab_size=cfg.vocab_size,
                                 domain_id=int(gen.integers(cfg.n_domains)))
           for _ in range(n)]
    batch = make_masked_batch(exs, MaskingPolicy(select_prob=0.4),
                              derive_rng(seed, 2), cfg.vocab_size)
    return cfg, params, batch, lam


class TestLossMlm:
    def test_uniform_logits_give_log_v(self):
        logits = np.zeros((6, 10))
        target = np.arange(6) % 10
        assert math.isclose(loss_mlm(logits, target), math.log(10))

    def test_confident_logits_drive_loss_to_zero(self):
        logits = np.full((3, 8), -50.0)
        target = np.array([1, 5, 2])
        logits[np.arange(3), target] = 50.0
        assert loss_mlm(logits, target) < 1e-20

    def test_zero_targets(self):
        assert loss_mlm(np.zeros((0, 7)), np.zeros(0, dtype=int)) == 0.0

    def test_matches_log_sum_exp_oracle(self, rng):
        """Brute-force softmax cross-entropy on a random 3-target instance."""
        logits = rng.normal(size=(3, 7))
        target = np.array([4, 0, 6])
        expected = 0.0
        for i in range(3):
            lse = math.log(sum(math.exp(v) for v in logits[i]))
            expected += lse - logits[i, target[i]]
        expected /= 3
        assert math.isclose(loss_mlm(logits, target), expected,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("spread", [1.0, 3.0])
    def test_one_exp_pass_gives_the_bytes_of_log_softmax_and_softmax(self, dtype, spread):
        """Both heads' losses equal the log-softmax expression, weighted or
        not, and softmax_parts' e / sums equals the softmax."""
        gen = np.random.default_rng(5)
        logits = (gen.normal(size=(200, 300)) * spread).astype(dtype)
        target = gen.integers(0, 300, size=200)
        weights = gen.uniform(0.2, 5.0, size=200).astype(dtype)
        before = logits.copy()
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
        ce = -logp[np.arange(200), target]
        assert loss_mlm(logits, target) == float(-logp[np.arange(200), target].mean())
        assert objective.loss_cls(logits, target) == float(ce.mean())
        assert objective.loss_cls(logits, target, weights) == float((ce * weights).mean())
        e, sums, _ = softmax_parts(logits, target)
        dlogits = e / sums
        assert dlogits.dtype == np.dtype(dtype)
        assert np.array_equal(dlogits, np.exp(shifted) / np.sum(np.exp(shifted), axis=-1,
                                                                 keepdims=True))
        assert np.array_equal(logits, before)


class TestLossCls:
    def test_equal_logits(self):
        logits = np.ones((4, 5)) * 2.5
        labels = np.array([0, 1, 2, 3])
        assert math.isclose(objective.loss_cls(logits, labels), math.log(5))

    def test_two_class_scalar_oracle(self):
        # -ln(e^2 / (e^2 + e^0)) = ln(1 + e^-2)
        logits = np.array([[2.0, 0.0]])
        labels = np.array([0])
        expected = math.log(1.0 + math.exp(-2.0))
        got = objective.loss_cls(logits, labels)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert abs(got - 0.1269) < 1e-4

    def test_batch_permutation_invariance(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        perm = rng.permutation(6)
        a = objective.loss_cls(logits, labels)
        b = objective.loss_cls(logits[perm], labels[perm])
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            objective.loss_cls(np.zeros((2, 3)), np.array([0, 3]))

    def test_weighted_mean_oracle(self):
        # rows: ln 2 at equal logits, ln(1 + e^-2) at a 2-vs-0 margin
        logits = np.array([[1.0, 1.0], [2.0, 0.0]])
        labels = np.array([1, 0])
        weights = np.array([3.0, 0.5])
        expected = (3.0 * math.log(2.0)
                    + 0.5 * math.log(1.0 + math.exp(-2.0))) / 2
        got = objective.loss_cls(logits, labels, weights)
        assert math.isclose(got, expected, rel_tol=1e-12)

    def test_unit_weights_are_bit_identical(self, rng):
        logits = rng.normal(size=(7, 5))
        labels = rng.integers(0, 5, size=7)
        assert (objective.loss_cls(logits, labels, np.ones(7))
                == objective.loss_cls(logits, labels))


class TestRegularizer:
    def test_orthogonal_rows_give_zero(self):
        d = np.eye(4) * 3.0
        assert objective.regularizer(d) == 0.0

    def test_single_row_gives_zero(self):
        assert objective.regularizer(np.array([[1.0, 2.0]])) == 0.0

    def test_two_rows_cosine_point_six(self):
        # cos([1,0],[0.6,0.8]) = 0.6; delta = (2 * 0.36) / 4 = 0.18
        d = np.array([[1.0, 0.0], [0.6, 0.8]])
        assert math.isclose(objective.regularizer(d), 0.18, rel_tol=1e-12)

    def test_row_scale_invariance(self, rng):
        d = rng.normal(size=(5, 3))
        base = objective.regularizer(d)
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = d.copy()
            scaled[2] *= c
            assert abs(objective.regularizer(scaled) - base) < 1e-12

    def test_zero_norm_row_is_an_error(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateEmbeddingError):
            objective.regularizer(d)

    def test_bounded_by_one(self, rng):
        for _ in range(20):
            d = rng.normal(size=(rng.integers(2, 8), rng.integers(1, 6)))
            value = objective.regularizer(d)
            assert 0.0 <= value <= 1.0


class TestRegularizerGrad:
    def test_matches_finite_differences(self, rng):
        d = rng.normal(size=(4, 3))
        grad = objective.regularizer_grad(d)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                d[i, j] += h
                up = objective.regularizer(d)
                d[i, j] -= 2 * h
                down = objective.regularizer(d)
                d[i, j] += h
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-8

    def test_descent_direction(self, rng):
        """delta strictly decreases along its own negative gradient."""
        for seed in range(10):
            gen = np.random.default_rng(seed)
            d = gen.normal(size=(5, 4))
            value = objective.regularizer(d)
            grad = objective.regularizer_grad(d)
            assert np.linalg.norm(grad) > 0
            step = 1e-3 / (1.0 + np.abs(grad).max())
            assert objective.regularizer(d - step * grad) < value


class TestTotalLoss:
    def test_lambda_one_drops_cls(self):
        bd = objective.total_loss(2.0, 5.0, 0.25, 1.0)
        assert bd.total == 2.0 + 0.25

    def test_lambda_zero_drops_mlm(self):
        bd = objective.total_loss(2.0, 5.0, 0.25, 0.0)
        assert bd.total == 5.0 + 0.25

    def test_identity_is_exact(self, rng):
        for _ in range(50):
            mlm, cls, delta = rng.random(3)
            lam = float(rng.random())
            bd = objective.total_loss(mlm, cls, delta, lam)
            assert bd.total == lam * bd.mlm + (1.0 - lam) * bd.cls + bd.delta

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            objective.total_loss(1.0, 1.0, 0.0, 1.5)


def _cache_arrays(value, prefix="cache"):
    """(path, copy) of every array reachable from a cache, through dataclasses."""
    if isinstance(value, np.ndarray):
        yield prefix, value.copy()
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _cache_arrays(getattr(value, f.name), f"{prefix}.{f.name}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _cache_arrays(item, f"{prefix}[{i}]")


class TestBackward:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_backward_writes_into_no_input_or_cache(self, dtype):
        """Backward run twice on one cache gives equal gradients, and neither
        pass nor the forward pass changes the batch, the parameters or the
        cache."""
        cfg, params, batch, lam = random_instance(8, n=3, dtype=dtype, n_layers=2)
        params = {k: v.astype(cfg.np_dtype) for k, v in params.items()}
        inputs = {"params": {k: v.copy() for k, v in params.items()},
                  "input_ids": batch.input_ids.copy()}
        weights = np.array([0.5, 2.0, 1.25], dtype=dtype)
        _, cache = objective.forward(batch, params, cfg, lam, cls_weights=weights)
        snapshot = dict(_cache_arrays(cache))
        divisors = (max(batch.n_targets, 1), batch.batch_size)
        first = objective.backward(batch, cache, params, cfg, lam, *divisors)
        second = objective.backward(batch, cache, params, cfg, lam, *divisors)
        for name in first:
            assert np.array_equal(first[name], second[name]), name
        for path, arr in _cache_arrays(cache):
            assert np.array_equal(arr, snapshot[path]), path
        for name in params:
            assert np.array_equal(params[name], inputs["params"][name]), name
        assert np.array_equal(batch.input_ids, inputs["input_ids"])

    def test_encoder_backward_starts_without_the_logit_gradient(self, monkeypatch):
        """The head's T x V logit gradient goes before encode_backward runs:
        at vocabulary 8,005, backward holds less than half of it on entry
        to encode_backward beyond the gradients and d_h it returns or
        passes on."""
        cfg = model.ModelConfig(vocab_size=8005, n_domains=3)
        batch = batch_with_target_counts(0, cfg.vocab_size, cfg.max_len, [19] * 8)
        params = model.init_params(cfg, derive_rng(0, 0))
        _, cache = objective.forward(batch, params, cfg, 0.9)
        held = {}
        encode_backward = model.encode_backward

        def recorded(d_h, *args):
            held["entry"] = tracemalloc.get_traced_memory()[0]
            return encode_backward(d_h, *args)

        monkeypatch.setattr(model, "encode_backward", recorded)
        traced_peak(monkeypatch, lambda: objective.backward(
            batch, cache, params, cfg, 0.9, batch.n_targets, batch.batch_size))
        passed_on = model.zero_grads(cfg).flat.nbytes + cache.fwd.h.nbytes
        dlogits = batch.n_targets * cfg.vocab_size * cfg.np_dtype.itemsize
        assert held["entry"] - passed_on < dlogits / 2, (held, passed_on, dlogits)

    def test_lambda_one_zeroes_cls_head_gradients(self):
        cfg, params, batch, _ = random_instance(3, lam=1.0)
        _, grads = objective.step([batch], [None], params, cfg, 1.0)
        assert np.all(grads["cls_w"] == 0.0)
        assert np.all(grads["cls_b"] == 0.0)
        # the regularizer still reaches the embeddings
        assert np.any(grads["dom_emb"] != 0.0)

    def test_finite_difference_sample(self):
        """Sampled-coordinate central differences across every array."""
        h = 1e-4
        for seed, lam in ((0, 0.0), (1, 0.5), (2, 0.9), (3, 1.0)):
            cfg, params, batch, _ = random_instance(seed, lam=lam)
            _, grads = objective.step([batch], [None], params, cfg, lam)
            picker = np.random.default_rng(seed)
            for name in params:
                flat = params[name].reshape(-1)
                idxs = picker.choice(flat.size, size=min(flat.size, 4),
                                     replace=False)
                for i in idxs:
                    orig = flat[i]
                    flat[i] = orig + h
                    up = objective.forward(batch, params, cfg, lam)[0].total
                    flat[i] = orig - h
                    down = objective.forward(batch, params, cfg, lam)[0].total
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[name].reshape(-1)[i]
                    denom = max(abs(an), abs(fd))
                    err = abs(an - fd) / denom if denom > 1e-4 else abs(an - fd)
                    assert err < 1e-4, (name, i, an, fd)

    def test_domain_embedding_gradient_symbolic_oracle(self):
        """Exact symbolic differentiation of the classification + diversity
        path on a 2-domain, 2-wide instance with an identity projection."""
        import sympy as sp

        lam = 0.6
        label = 1
        a_val = np.array([0.7, -0.3])
        d_val = np.array([[0.9, 0.2], [-0.4, 1.1]])

        d = sp.Matrix(sp.symbols("d00 d01 d10 d11")).reshape(2, 2)
        a = sp.Matrix(a_val)
        logits = d * a
        log_z = sp.log(sp.exp(logits[0]) + sp.exp(logits[1]))
        ce = log_z - logits[label]
        r0 = sp.sqrt(d[0, 0] ** 2 + d[0, 1] ** 2)
        r1 = sp.sqrt(d[1, 0] ** 2 + d[1, 1] ** 2)
        cos01 = (d[0, 0] * d[1, 0] + d[0, 1] * d[1, 1]) / (r0 * r1)
        delta = (2 * cos01 ** 2) / 4
        loss = (1 - lam) * ce + delta
        subs = {d[i, j]: d_val[i, j] for i in range(2) for j in range(2)}
        expected = np.array([
            [float(sp.diff(loss, d[i, j]).subs(subs)) for j in range(2)]
            for i in range(2)
        ])

        cfg = tiny_config(n_domains=2, d_hidden=2, d_domain=2, n_heads=1)
        params = dict(model.init_params(cfg, derive_rng(0, 0)))
        params["cls_w"] = np.eye(2)
        params["cls_b"] = np.zeros(2)
        params["dom_emb"] = d_val.copy()
        grads = model.zero_grads(cfg)
        h_cls = a_val[None, :]
        dlogits = objective.softmax(model.domain_logits(h_cls, params))
        dlogits[0, label] -= 1.0
        dlogits *= (1.0 - lam)
        model.domain_head_backward(dlogits, h_cls, params, grads)
        grads["dom_emb"] += objective.regularizer_grad(params["dom_emb"])
        assert np.allclose(grads["dom_emb"], expected, atol=1e-10)

    def test_accumulation_matches_combined_batch(self):
        """step() over two micro-batches gives the loss and gradient of
        step() over their combined batch."""
        cfg, params, _, lam = random_instance(11, lam=0.8)
        gen = derive_rng(11, 5)
        exs = [random_packed_example(gen, max_len=cfg.max_len,
                                     vocab_size=cfg.vocab_size,
                                     domain_id=int(gen.integers(cfg.n_domains)))
               for _ in range(6)]
        policy = MaskingPolicy(select_prob=0.4)
        combined = make_masked_batch(exs, policy, derive_rng(11, 6), cfg.vocab_size)
        ref_loss, reference = objective.step([combined], [None], params, cfg, lam)

        micro_a = make_masked_batch(exs[:3], policy, derive_rng(11, 6), cfg.vocab_size)
        micro_b = make_masked_batch(exs[3:], policy,
                                    _advance_like(derive_rng(11, 6), exs[:3], policy,
                                                  cfg.vocab_size),
                                    cfg.vocab_size)
        assert micro_a.n_targets + micro_b.n_targets == combined.n_targets
        loss, total = objective.step([micro_a, micro_b], [None, None], params, cfg, lam)
        for part in ("mlm", "cls", "delta", "total"):
            np.testing.assert_allclose(getattr(loss, part), getattr(ref_loss, part),
                                       rtol=1e-9, atol=1e-12)
        for name in reference:
            np.testing.assert_allclose(total[name], reference[name],
                                       rtol=1e-9, atol=1e-12)

    def test_a_second_micro_batch_keeps_no_cache_of_the_first(self, monkeypatch):
        """A micro-batch's cache and gradient go before the next one's forward:
        a step over two micro-batches of equal shape and target count peaks
        within the first one's kept gradient plus an eighth of one cache of
        a step over one. A step peaks in backward, whose temporaries outweigh
        forward's, so a first cache kept through the second forward shows in
        part: at these shapes 1.2 MB of its 6.6 MB."""
        cfg = model.ModelConfig(vocab_size=40, n_domains=3)
        batches = [batch_with_target_counts(seed, cfg.vocab_size, cfg.max_len, [6] * 8)
                   for seed in (0, 1)]
        params = model.init_params(cfg, derive_rng(0, 0))
        cache_bytes = _array_bytes(objective.forward(batches[0], params, cfg, 0.9)[1])
        grad_bytes = model.zero_grads(cfg).flat.nbytes

        def step(n):
            return lambda: objective.step(batches[:n], [None] * n, params, cfg, 0.9)

        one = traced_peak(monkeypatch, step(1))
        two = traced_peak(monkeypatch, step(2))
        assert two - one < grad_bytes + cache_bytes / 8, (one, two, grad_bytes, cache_bytes)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython frees an argument "
                        "passed as a temporary once the callee drops it from 3.11 on")
    def test_a_step_frees_each_micro_batch_array_at_its_last_read(self, monkeypatch):
        """step hands backward the only reference to each micro-batch's
        cache. Over four 8x128 micro-batches (vocabulary 2,305, 19 targets a
        row), layer 0's backward starts with no head cache (whose exp is T x
        V) and no layer-1 cache alive, and the step's traced peak stays
        below 14 MiB: 12.4 here, 15.6 when each cache is held through its
        backward."""
        cfg = model.ModelConfig(vocab_size=2305, n_domains=3)
        batches = [batch_with_target_counts(seed, cfg.vocab_size, cfg.max_len, [19] * 8)
                   for seed in range(4)]
        params = model.init_params(cfg, derive_rng(0, 0))

        def step():
            return objective.step(batches, [None] * 4, params, cfg, 0.9)

        assert traced_peak(monkeypatch, step) < 14 * 2 ** 20
        alive = []
        layer_backward = model._layer_backward

        def counted(*args, i, **kwargs):
            if i == 0:
                objs = gc.get_objects()
                alive.append((sum(isinstance(o, model.EalCache) for o in objs),
                              sum(isinstance(o, model.LayerCache) for o in objs)))
                del objs
            return layer_backward(*args, i=i, **kwargs)

        # Whole batches: a shard's view of a cache is a LayerCache too.
        monkeypatch.setattr(model, "_shard_count", lambda b_, l_: 1)
        monkeypatch.setattr(model, "_layer_backward", counted)
        step()
        assert alive == [(0, 1)] * 4, alive

    def test_no_micro_batches_is_input_error(self, monkeypatch):
        cfg, params, _, lam = random_instance(12)

        def no_pass(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(objective, "forward", no_pass)
        with pytest.raises(InputError, match="micro-batch"):
            objective.step([], [], params, cfg, lam)


def _array_bytes(obj) -> int:
    """Bytes of the distinct arrays under obj's dataclass fields and lists,
    a view counted as the array it views."""
    bases: dict[int, int] = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            bases[id(x)] = x.nbytes
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            for item in x:
                walk(item)

    walk(obj)
    return sum(bases.values())


class TestHeadShards:
    """forward and backward give the same bytes however the batch's
    examples and targets are split over threads."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("counts", [[12] * 8, [0, 0, 0, 0, 12, 12, 12, 12], [0] * 8,
                                        [1, 0, 0, 0, 0, 0, 0, 1]],
                             ids=["three parts", "first examples without targets",
                                  "no targets", "fewer targets than shards"])
    def test_every_split_gives_the_same_bytes(self, dtype, counts, monkeypatch):
        cfg = model.ModelConfig(vocab_size=2305, n_domains=3, max_len=128, dtype=dtype)
        params = model.init_params(cfg, derive_rng(7, 0))
        batch = batch_with_target_counts(8, cfg.vocab_size, cfg.max_len, counts)
        weights = np.linspace(0.5, 2.0, batch.batch_size).astype(dtype)
        out = []
        for shards in (1, 2, 3):
            monkeypatch.setattr(model, "_shard_count", lambda b_, l_, n=shards: n)
            loss, cache = objective.forward(batch, params, cfg, 0.7, cls_weights=weights)
            grads = objective.backward(batch, cache, params, cfg, 0.7, 97, batch.batch_size)
            out.append((loss, {"exp": cache.ealc.exp, "exp_sum": cache.ealc.exp_sum, **grads}))
        (loss1, arrays1), *split = out
        for loss, arrays in split:
            assert loss == loss1
            for name, a in arrays.items():
                assert a.dtype == cfg.np_dtype, name
                assert a.tobytes() == arrays1[name].tobytes(), name


class TestClassificationWeights:
    def test_finite_difference_with_non_uniform_weights(self):
        """Central differences of the weighted total match step()'s gradient."""
        h = 1e-4
        for seed, lam in ((30, 0.0), (31, 0.5), (32, 0.9)):
            cfg, params, batch, _ = random_instance(seed, lam=lam, n=4)
            weights = np.array([0.3, 2.5, 1.0, 4.0])
            _, grads = objective.step([batch], [weights], params, cfg, lam)
            picker = np.random.default_rng(seed)
            for name in params:
                flat = params[name].reshape(-1)
                for i in picker.choice(flat.size, size=min(flat.size, 4),
                                       replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = objective.forward(batch, params, cfg, lam,
                                           cls_weights=weights)[0].total
                    flat[i] = orig - h
                    down = objective.forward(batch, params, cfg, lam,
                                             cls_weights=weights)[0].total
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[name].reshape(-1)[i]
                    denom = max(abs(an), abs(fd))
                    err = abs(an - fd) / denom if denom > 1e-4 else abs(an - fd)
                    assert err < 1e-4, (name, i, an, fd)

    def test_weights_change_the_classification_gradient(self):
        cfg, params, batch, lam = random_instance(33, lam=0.5, n=4)
        _, g_plain = objective.step([batch], [None], params, cfg, lam)
        _, g_weighted = objective.step([batch], [np.array([0.3, 2.5, 1.0, 4.0])],
                                       params, cfg, lam)
        assert not np.allclose(g_plain["cls_w"], g_weighted["cls_w"])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_unit_weights_are_bit_identical(self, dtype):
        cfg, params, batch, lam = random_instance(34, lam=0.6, n=3, dtype=dtype)
        params = {k: v.astype(cfg.np_dtype) for k, v in params.items()}
        bd_plain, g_plain = objective.step([batch], [None], params, cfg, lam)
        bd_ones, g_ones = objective.step([batch], [np.ones(3)], params, cfg, lam)
        assert bd_ones == bd_plain
        for name in g_plain:
            assert g_ones[name].dtype == g_plain[name].dtype
            assert np.array_equal(g_ones[name], g_plain[name]), name

    def test_weight_count_must_match_batch(self):
        cfg, params, batch, lam = random_instance(35, n=3)
        with pytest.raises(InputError, match="cls_weights"):
            objective.forward(batch, params, cfg, lam, cls_weights=np.ones(2))


def _float_arrays(value):
    """Floating-point arrays and NumPy scalars in a value, through containers."""
    if isinstance(value, (np.ndarray, np.generic)):
        if np.issubdtype(value.dtype, np.floating):
            yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _float_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _float_arrays(item)


class TestFloat32Contract:
    def test_forward_and_backward_stay_float32(self):
        """Every float array a model, objective or nputil frame holds is float32.

        The finite-difference checks run in float64 and cannot see a float32
        run that promotes to float64 (a float64 scalar meeting float32 arrays
        under NumPy 2 promotion) and is narrowed back by `grads[...] +=`, or
        a helper that computes in float64 and copies back into a float32
        array. Locals are read at every line and at return, so values a later
        loop iteration overwrites are seen too. The domain geometry
        (regularizer, regularizer_grad, and nputil's unit_rows and
        cosine_excess) works in float64 by design and casts its result back,
        so its frames are not inspected.
        """
        cfg, params, batch, lam = random_instance(
            36, lam=0.6, n=3, dtype="float32", n_layers=2)
        params = {k: v.astype(cfg.np_dtype) for k, v in params.items()}
        # example 1 loses its targets: its row of the pruned last layer is all padding slots
        keep = batch.target_ex != 1
        batch.target_ex, batch.target_pos, batch.target_ids = (
            a[keep] for a in batch.flat_targets())
        assert batch.n_targets > 0
        modules = {model.__name__, objective.__name__, nputil.__name__}
        exempt = {"regularizer", "regularizer_grad", "unit_rows", "cosine_excess"}
        leaks = set()

        def on_event(frame, event, arg):
            if event in ("line", "return"):
                for name, value in [*frame.f_locals.items(), ("<return>", arg)]:
                    for arr in _float_arrays(value):
                        if arr.dtype != np.float32:
                            leaks.add(f"{frame.f_code.co_name}:{name}:{arr.dtype}")
            return on_event

        def on_call(frame, event, arg):
            if (frame.f_globals.get("__name__") in modules
                    and frame.f_code.co_name not in exempt):
                return on_event
            return None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            _, grads = objective.step([batch], [np.float32([0.5, 2.0, 1.25])],
                                      params, cfg, lam)
        finally:
            sys.settrace(previous)
        assert not leaks, sorted(leaks)
        assert all(g.dtype == np.float32 for g in grads.values())


def _advance_like(rng, examples, policy, vocab_size):
    """Consume the same masking draws the first micro-batch used."""
    from dombert.masking import apply_dynamic_masking

    for ex in examples:
        apply_dynamic_masking(ex, policy, rng, vocab_size)
    return rng
