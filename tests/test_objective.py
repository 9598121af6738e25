import dataclasses
import math
import sys

import numpy as np
import pytest

from dombert import model, objective
from dombert.errors import ConfigError, DegenerateEmbeddingError, InputError
from dombert.masking import MaskingPolicy, make_masked_batch
from dombert.nputil import derive_rng

from conftest import batch_with_target_counts, random_packed_example


def tiny_config(**overrides):
    base = dict(vocab_size=15, n_domains=3, max_len=10, d_hidden=8, n_layers=1,
                n_heads=2, d_ff=12, d_domain=4, dtype="float64")
    base.update(overrides)
    return model.ModelConfig(**base)


def random_instance(seed, lam=0.7, n=2, scale=0.25, **cfg_overrides):
    """A well-conditioned random batch/params pair for gradient checks."""
    cfg = tiny_config(**cfg_overrides)
    gen = derive_rng(seed, 0)
    params = model.init_params(cfg, gen)
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
        assert math.isclose(objective.loss_mlm(logits, target), math.log(10))

    def test_confident_logits_drive_loss_to_zero(self):
        logits = np.full((3, 8), -50.0)
        target = np.array([1, 5, 2])
        logits[np.arange(3), target] = 50.0
        assert objective.loss_mlm(logits, target) < 1e-20

    def test_zero_targets(self):
        assert objective.loss_mlm(np.zeros((0, 7)), np.zeros(0, dtype=int)) == 0.0

    def test_matches_log_sum_exp_oracle(self, rng):
        """Brute-force softmax cross-entropy on a random 3-target instance."""
        logits = rng.normal(size=(3, 7))
        target = np.array([4, 0, 6])
        expected = 0.0
        for i in range(3):
            lse = math.log(sum(math.exp(v) for v in logits[i]))
            expected += lse - logits[i, target[i]]
        expected /= 3
        assert math.isclose(objective.loss_mlm(logits, target), expected,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("spread", [1.0, 3.0])
    def test_one_exp_pass_gives_the_bytes_of_log_softmax_and_softmax(self, dtype, spread):
        """The loss equals the log-softmax expression it replaces, and
        e / sums equals the softmax backward used to recompute."""
        gen = np.random.default_rng(5)
        logits = (gen.normal(size=(200, 300)) * spread).astype(dtype)
        target = gen.integers(0, 300, size=200)
        before = logits.copy()
        loss, e, sums = objective.mlm_softmax(logits, target)
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
        assert loss == float(-logp[np.arange(200), target].mean())
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
        first = objective.backward(batch, cache, params, cfg, lam)
        second = objective.backward(batch, cache, params, cfg, lam)
        for name in first:
            assert np.array_equal(first[name], second[name]), name
        for path, arr in _cache_arrays(cache):
            assert np.array_equal(arr, snapshot[path]), path
        for name in params:
            assert np.array_equal(params[name], inputs["params"][name]), name
        assert np.array_equal(batch.input_ids, inputs["input_ids"])

    def test_lambda_one_zeroes_cls_head_gradients(self):
        cfg, params, batch, _ = random_instance(3, lam=1.0)
        _, cache = objective.forward(batch, params, cfg, 1.0)
        grads = objective.backward(batch, cache, params, cfg, 1.0)
        assert np.all(grads["cls_w"] == 0.0)
        assert np.all(grads["cls_b"] == 0.0)
        # the regularizer still reaches the embeddings
        assert np.any(grads["dom_emb"] != 0.0)

    def test_finite_difference_sample(self):
        """Sampled-coordinate central differences across every array."""
        h = 1e-4
        for seed, lam in ((0, 0.0), (1, 0.5), (2, 0.9), (3, 1.0)):
            cfg, params, batch, _ = random_instance(seed, lam=lam)
            _, cache = objective.forward(batch, params, cfg, lam)
            grads = objective.backward(batch, cache, params, cfg, lam)
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
        params = model.init_params(cfg, derive_rng(0, 0))
        params["cls_w"] = np.eye(2)
        params["cls_b"] = np.zeros(2)
        params["dom_emb"] = d_val.copy()
        grads = model.zero_grads(cfg)
        h_cls = a_val[None, :]
        dlogits = objective.softmax(model.domain_logits(h_cls, params), axis=-1)
        dlogits[0, label] -= 1.0
        dlogits *= (1.0 - lam)
        model.domain_head_backward(dlogits, h_cls, params, grads)
        grads["dom_emb"] += objective.regularizer_grad(params["dom_emb"])
        assert np.allclose(grads["dom_emb"], expected, atol=1e-10)

    def test_accumulation_matches_combined_batch(self):
        """Micro-batch gradients with whole-step divisors sum to the
        combined-batch gradient."""
        cfg, params, _, lam = random_instance(11, lam=0.8)
        gen = derive_rng(11, 5)
        exs = [random_packed_example(gen, max_len=cfg.max_len,
                                     vocab_size=cfg.vocab_size,
                                     domain_id=int(gen.integers(cfg.n_domains)))
               for _ in range(6)]
        policy = MaskingPolicy(select_prob=0.4)
        combined = make_masked_batch(exs, policy, derive_rng(11, 6), cfg.vocab_size)
        _, cache = objective.forward(combined, params, cfg, lam)
        reference = objective.backward(combined, cache, params, cfg, lam)

        micro_a = make_masked_batch(exs[:3], policy, derive_rng(11, 6), cfg.vocab_size)
        micro_b = make_masked_batch(exs[3:], policy,
                                    _advance_like(derive_rng(11, 6), exs[:3], policy,
                                                  cfg.vocab_size),
                                    cfg.vocab_size)
        t_tot = micro_a.n_targets + micro_b.n_targets
        assert t_tot == combined.n_targets
        total = model.zero_grads(cfg)
        for mb in (micro_a, micro_b):
            _, c = objective.forward(mb, params, cfg, lam)
            g = objective.backward(mb, c, params, cfg, lam,
                                   mlm_divisor=t_tot, cls_divisor=6,
                                   include_regularizer=False)
            for name in total:
                total[name] += g[name]
        total["dom_emb"] += objective.regularizer_grad(params["dom_emb"])
        for name in reference:
            np.testing.assert_allclose(total[name], reference[name],
                                       rtol=1e-9, atol=1e-12)


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
            grads = objective.backward(batch, cache, params, cfg, 0.7, mlm_divisor=97)
            out.append((loss, {"exp": cache.ealc.exp, "exp_sum": cache.ealc.exp_sum, **grads}))
        (loss1, arrays1), *split = out
        for loss, arrays in split:
            assert loss == loss1
            for name, a in arrays.items():
                assert a.dtype == cfg.np_dtype, name
                assert a.tobytes() == arrays1[name].tobytes(), name


class TestClassificationWeights:
    def test_finite_difference_with_non_uniform_weights(self):
        """Central differences of the weighted total match backward()."""
        h = 1e-4
        for seed, lam in ((30, 0.0), (31, 0.5), (32, 0.9)):
            cfg, params, batch, _ = random_instance(seed, lam=lam, n=4)
            weights = np.array([0.3, 2.5, 1.0, 4.0])
            _, cache = objective.forward(batch, params, cfg, lam,
                                         cls_weights=weights)
            grads = objective.backward(batch, cache, params, cfg, lam)
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
        _, plain = objective.forward(batch, params, cfg, lam)
        _, weighted = objective.forward(batch, params, cfg, lam,
                                        cls_weights=np.array([0.3, 2.5, 1.0, 4.0]))
        g_plain = objective.backward(batch, plain, params, cfg, lam)
        g_weighted = objective.backward(batch, weighted, params, cfg, lam)
        assert not np.allclose(g_plain["cls_w"], g_weighted["cls_w"])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_unit_weights_are_bit_identical(self, dtype):
        cfg, params, batch, lam = random_instance(34, lam=0.6, n=3, dtype=dtype)
        params = {k: v.astype(cfg.np_dtype) for k, v in params.items()}
        bd_plain, plain = objective.forward(batch, params, cfg, lam)
        bd_ones, ones = objective.forward(batch, params, cfg, lam,
                                          cls_weights=np.ones(3))
        assert bd_ones == bd_plain
        g_plain = objective.backward(batch, plain, params, cfg, lam)
        g_ones = objective.backward(batch, ones, params, cfg, lam)
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
        """Every float array a model or objective frame holds is float32.

        The finite-difference checks run in float64 and cannot see a float32
        run that promotes to float64 (a float64 scalar meeting float32 arrays
        under NumPy 2 promotion) and is narrowed back by `grads[...] +=`.
        Locals are read at every line and at return, so values a later loop
        iteration overwrites are seen too. regularizer and regularizer_grad
        work in float64 by design and cast their result back, so their frames
        are not inspected.
        """
        cfg, params, batch, lam = random_instance(
            36, lam=0.6, n=3, dtype="float32", n_layers=2)
        params = {k: v.astype(cfg.np_dtype) for k, v in params.items()}
        batch.targets[1] = []  # its row of the pruned last layer is all padding slots
        assert batch.n_targets > 0
        modules = {model.__name__, objective.__name__}
        exempt = {"regularizer", "regularizer_grad"}
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
            _, cache = objective.forward(batch, params, cfg, lam,
                                         cls_weights=np.float32([0.5, 2.0, 1.25]))
            grads = objective.backward(batch, cache, params, cfg, lam)
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
