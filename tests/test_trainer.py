import dataclasses
import shutil

import numpy as np
import pytest

from dombert import checkpoint, objective, trainer
from dombert.errors import CheckpointError, ConfigError, NonFiniteGradientError
from dombert.masking import MaskingPolicy
from dombert.model import (FlatParams, ModelConfig, flat_copy, init_params, param_specs,
                           zero_grads)
from dombert.nputil import derive_rng
from dombert.sampler import domain_probabilities, sampling_probabilities

from conftest import observe_steps, packed_corpus, traced_peak


def make_corpus(counts=(6, 5, 4), target=0):
    """This file's corpus: generator seed 0, rows of 12 tokens, vocabulary 25."""
    return packed_corpus(np.random.default_rng(0), counts, target, max_len=12, vocab_size=25)


def expected_size(config, *, domain_names, target_index):
    """Byte size of a model-only checkpoint: text lines + raw array bytes."""
    total = len(checkpoint.MAGIC) + 1
    for field in dataclasses.fields(ModelConfig):
        total += len(f"{field.name}={getattr(config, field.name)}") + 1
    total += len("domain_names=" + "\t".join(domain_names)) + 1
    total += len(f"target_index={target_index}") + 1
    for name, shape in param_specs(config):
        dims = " ".join(str(d) for d in shape)
        total += len(f"{name} {dims}") + 1
        total += config.np_dtype.itemsize * int(np.prod(shape))
    return total


# Forms of an integer that int() reads and no writer writes, from its digits.
NOT_WRITTEN_INTEGERS = {
    "plus sign": lambda n: b"+" + n,
    "space and plus sign": lambda n: b" +" + n,
    "digit separator": lambda n: b"0_" + n,
    "Arabic-Indic digits": lambda n: "".join(chr(0x660 + int(c)) for c in n.decode()).encode(),
}

# What precedes an integer field of each kind in a resumable checkpoint.
CHECKPOINT_INTEGERS = {
    "config line": b"\nn_heads=",
    "array dimension": b"\ntok_emb ",
    "target_index": b"\ntarget_index=",
    "nbytes": b"SAMPLER-STATE nbytes=",
    "step": b"ADAMAX-STATE step=",
}


def read_log(out_dir):
    return (out_dir / "log.tsv").read_text(encoding="utf-8").splitlines()


def small_model_config(corpus, **overrides):
    base = dict(vocab_size=corpus.vocab_size, n_domains=corpus.table.n_plus_1,
                max_len=corpus.ids.shape[1], d_hidden=8, n_layers=1, n_heads=2,
                d_ff=12, d_domain=4, dtype="float32")
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainConfig:
    def test_recipe_defaults(self):
        tc = trainer.TrainConfig()
        assert tc.lam == 0.9
        assert tc.tau == 0.13
        assert tc.explore == 0.2
        assert tc.lr == 5e-5
        assert tc.effective_batch == tc.micro_batch * tc.accum_steps

    def test_validation(self):
        with pytest.raises(ConfigError):
            trainer.TrainConfig(lam=1.5)
        with pytest.raises(ConfigError):
            trainer.TrainConfig(tau=0.0)
        for explore in (-0.1, 1.0):
            with pytest.raises(ConfigError, match="explore"):
                trainer.TrainConfig(explore=explore)
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            trainer.TrainConfig(checkpoint_interval=-3)
        for name in ("lr", "tau"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=name):
                    trainer.TrainConfig(**{name: value})


class TestAdamax:
    def _scalar_state(self):
        cfg = ModelConfig(vocab_size=6, n_domains=1, max_len=3, d_hidden=1,
                          n_layers=1, n_heads=1, d_ff=1, d_domain=1)
        return cfg

    def test_zero_gradient_keeps_parameters(self):
        cfg = self._scalar_state()
        params = init_params(cfg, derive_rng(0, 0))
        before = {k: v.copy() for k, v in params.items()}
        state = trainer.AdamaxState(m=zero_grads(cfg), u=zero_grads(cfg))
        grads = flat_copy({k: np.zeros_like(v) for k, v in params.items()})
        trainer.adamax_step(params, grads, state, lr=0.1)
        for name in params:
            assert np.array_equal(params[name], before[name])

    def test_three_step_hand_trace(self):
        """Constant unit gradient on one scalar, lr=0.1.

        Hand-executed recurrence: m_t = 1 - 0.9^t, u_t = 1, so each update
        is exactly lr * g / (1 + eps); theta walks -0.1, -0.2, -0.3.
        """
        theta = np.array([0.0], dtype=np.float64)
        params = flat_copy({"w": theta})
        state = trainer.AdamaxState(m=flat_copy({"w": np.zeros(1)}),
                                    u=flat_copy({"w": np.zeros(1)}))
        m, u = 0.0, 0.0
        expected = 0.0
        for step in range(1, 4):
            trainer.adamax_step(params, flat_copy({"w": np.ones(1)}), state, lr=0.1)
            m = 0.9 * m + 0.1 * 1.0
            u = max(0.999 * u, 1.0)
            expected -= (0.1 / (1.0 - 0.9 ** step)) * m / (u + 1e-8)
            assert np.isclose(params["w"][0], expected, rtol=0, atol=1e-15)
        assert abs(params["w"][0] + 0.3) < 1e-7

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_update_is_bit_identical_to_the_formula(self, dtype):
        """Three steps give the bytes of the textbook expressions, and the
        gradients are not written into."""
        gen = np.random.default_rng(4)
        shape = (50, 7)
        params = flat_copy({"w": gen.normal(size=shape).astype(dtype)})
        state = trainer.AdamaxState(m=flat_copy({"w": np.zeros(shape, dtype)}),
                                    u=flat_copy({"w": np.zeros(shape, dtype)}))
        w, m, u = params["w"].copy(), np.zeros(shape, dtype), np.zeros(shape, dtype)
        for step in range(1, 4):
            grads = flat_copy({"w": (gen.normal(size=shape)
                                     * 10.0 ** gen.integers(-6, 2, size=shape)).astype(dtype)})
            g = grads["w"]
            g_before = g.copy()
            trainer.adamax_step(params, grads, state, lr=1e-3)
            m = 0.9 * m + (1.0 - 0.9) * g
            u = np.maximum(0.999 * u, np.abs(g))
            w -= 1e-3 / (1.0 - 0.9 ** step) * m / (u + 1e-8)
            assert np.array_equal(g, g_before)
            for got, want in ((params["w"], w), (state.m["w"], m), (state.u["w"], u)):
                assert got.dtype == np.dtype(dtype) and np.array_equal(got, want)

    def test_non_finite_gradient_aborts(self):
        """The bad gradient is found before any parameter or moment moves."""
        params = flat_copy({"a": np.ones(2), "w": np.zeros(2)})
        state = trainer.AdamaxState(m=flat_copy({k: np.full(2, 0.5) for k in params}),
                                    u=flat_copy({k: np.full(2, 0.25) for k in params}), step=3)
        grads = flat_copy({"a": np.array([1.0, -2.0]), "w": np.array([1.0, np.nan])})
        with pytest.raises(NonFiniteGradientError, match="'w' at optimizer step 4"):
            trainer.adamax_step(params, grads, state, 0.1)
        assert state.step == 3
        for k in params:
            assert np.array_equal(params[k], np.ones(2) if k == "a" else np.zeros(2))
            assert np.array_equal(state.m[k], np.full(2, 0.5))
            assert np.array_equal(state.u[k], np.full(2, 0.25))


class TestFlatAdamax:
    """Adamax sweeps the flat buffers in blocks of ADAMAX_BLOCK_BYTES."""

    @staticmethod
    def block_plus_7_layout(dtype):
        """Shapes of two blocks and 7 elements; "w" and "z" cross a block edge."""
        block = trainer.ADAMAX_BLOCK_BYTES // np.dtype(dtype).itemsize
        return {"a": (block - 3,), "w": (5, 2), "z": (block,)}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocked_sweep_is_bit_identical_to_the_formula(self, dtype):
        gen = np.random.default_rng(5)
        shapes = self.block_plus_7_layout(dtype)
        block = trainer.ADAMAX_BLOCK_BYTES // np.dtype(dtype).itemsize
        assert sum(int(np.prod(s)) for s in shapes.values()) == 2 * block + 7
        params = flat_copy({k: gen.normal(size=s).astype(dtype) for k, s in shapes.items()})
        state = trainer.AdamaxState(m=flat_copy({k: np.zeros(s, dtype) for k, s in shapes.items()}),
                                    u=flat_copy({k: np.zeros(s, dtype) for k, s in shapes.items()}))
        want = {k: (params[k].copy(), np.zeros(s, dtype), np.zeros(s, dtype))
                for k, s in shapes.items()}
        for step in range(1, 4):
            grads = flat_copy({k: (gen.normal(size=s) * 10.0 ** gen.integers(-6, 2, size=s))
                               .astype(dtype) for k, s in shapes.items()})
            trainer.adamax_step(params, grads, state, lr=1e-3)
            for k, (w, m, u) in want.items():
                g = grads[k]
                m[...] = 0.9 * m + (1.0 - 0.9) * g
                u[...] = np.maximum(0.999 * u, np.abs(g))
                w -= 1e-3 / (1.0 - 0.9 ** step) * m / (u + 1e-8)
                for got, ref in ((params[k], w), (state.m[k], m), (state.u[k], u)):
                    assert got.dtype == np.dtype(dtype) and np.array_equal(got, ref), k

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_in_the_last_block_aborts(self, bad):
        shapes = self.block_plus_7_layout("float32")
        params = flat_copy({k: np.ones(s, np.float32) for k, s in shapes.items()})
        state = trainer.AdamaxState(
            m=flat_copy({k: np.full(s, 0.5, np.float32) for k, s in shapes.items()}),
            u=flat_copy({k: np.full(s, 0.25, np.float32) for k, s in shapes.items()}), step=6)
        grads = flat_copy({k: np.full(s, 0.1, np.float32) for k, s in shapes.items()})
        grads["z"][-1] = bad
        before = [d.flat.copy() for d in (params, state.m, state.u)]
        with pytest.raises(NonFiniteGradientError, match="'z' at optimizer step 7"):
            trainer.adamax_step(params, grads, state, 0.1)
        assert state.step == 6
        for d, was in zip((params, state.m, state.u), before):
            assert np.array_equal(d.flat, was)

    def test_float32_buffers_stay_float32_and_in_place(self):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=1, micro_batch=2, accum_steps=2)
        fresh = trainer.RunState.fresh(tc, corpus, mc)
        params, state = fresh.params, fresh.opt
        assert state.step == 0 and fresh.next_step == 1
        assert list(state.m) == list(state.u) == [name for name, _ in param_specs(mc)]
        grads = flat_copy(params)
        flats = [d.flat for d in (params, state.m, state.u)]
        trainer.adamax_step(params, grads, state, lr=1e-3)
        for d, flat in zip((params, state.m, state.u), flats):
            assert d.flat is flat and flat.dtype == np.float32
        assert trainer.train(tc, corpus, mc).params.flat.dtype == np.float32

    def test_layouts_that_differ_are_rejected(self):
        params = flat_copy({"a": np.ones(2), "w": np.zeros(3)})
        state = trainer.AdamaxState(m=flat_copy(params), u=flat_copy(params))
        for grads in (flat_copy({"w": np.zeros(3), "a": np.ones(2)}),
                      flat_copy({"a": np.ones(2), "w": np.zeros(4)}),
                      {"a": np.ones(2), "w": np.zeros(3)},
                      flat_copy({"a": np.ones(2), "w": np.zeros((3, 1))}),
                      flat_copy({"a": np.ones(2, np.float32), "w": np.zeros(3, np.float32)})):
            with pytest.raises(ValueError):
                trainer.adamax_step(params, grads, state, 0.1)

    def test_plain_dicts_and_other_specs_among_the_others_are_rejected(self):
        arrays = {"a": np.ones(2), "w": np.zeros(3)}
        grads = flat_copy(arrays)
        for params, m, u in (
            (dict(arrays), flat_copy(arrays), flat_copy(arrays)),
            (flat_copy(arrays), dict(arrays), flat_copy(arrays)),
            (flat_copy(arrays), flat_copy(arrays), FlatParams([("w", (3,)), ("a", (2,))],
                                                              np.zeros(5))),
            (FlatParams([("a", (1, 2)), ("w", (3,))], np.ones(5)),
             flat_copy(arrays), flat_copy(arrays)),
            (flat_copy(arrays), flat_copy({k: v.astype(np.float32) for k, v in arrays.items()}),
             flat_copy(arrays)),
        ):
            state = trainer.AdamaxState(m=m, u=u)
            with pytest.raises(ValueError):
                trainer.adamax_step(params, grads, state, 0.1)
            assert state.step == 0


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=0, seed=4, micro_batch=2, accum_steps=2)
        result = trainer.train(tc, corpus, mc)
        expected = init_params(mc, derive_rng(4, 0))
        for name in expected:
            assert np.array_equal(result.params[name], expected[name])
        assert result.records == []

    def test_same_seed_is_bit_identical(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=7, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=0)
        r1 = trainer.train(tc, corpus, mc, out_dir=tmp_path / "a")
        r2 = trainer.train(tc, corpus, mc, out_dir=tmp_path / "b")
        for name in r1.params:
            assert np.array_equal(r1.params[name], r2.params[name])
        assert read_log(tmp_path / "a") == read_log(tmp_path / "b")

    def test_loss_identity_every_step(self):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=3, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=0)
        result = trainer.train(tc, corpus, mc)
        assert result.records
        for rec in result.records:
            bd = rec.breakdown
            assert bd.total == bd.lam * bd.mlm + (1 - bd.lam) * bd.cls + bd.delta
            assert bd.mlm >= 0.0 and bd.cls >= 0.0 and 0.0 <= bd.delta <= 1.0

    def test_lambda_one_keeps_cls_head_frozen(self, monkeypatch):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(lam=1.0, epochs=2, seed=2, micro_batch=2,
                                 accum_steps=2, checkpoint_interval=0)
        steps = observe_steps(monkeypatch)
        result = trainer.train(tc, corpus, mc)
        assert len(steps) == len(result.records)
        for rec, observed in zip(result.records, steps):
            assert observed["cls_w_grad_norm"] == 0.0
            assert observed["cls_b_grad_norm"] == 0.0
            assert rec.breakdown.cls > 0.0  # still computed and logged

    def test_target_probability_stays_maximal(self, monkeypatch):
        corpus = make_corpus(counts=(4, 4, 4, 4), target=2)
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=3, seed=3, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=0)
        steps = observe_steps(monkeypatch)
        result = trainer.train(tc, corpus, mc)
        assert len(steps) == len(result.records)
        assert all(observed["p_target_is_max"] for observed in steps)

    def test_a_second_step_keeps_no_gradient_of_the_first(self, monkeypatch):
        """A step's gradient goes once Adamax has applied it: two steps
        peak within half of the flat gradient's bytes of one."""
        corpus = packed_corpus(np.random.default_rng(3), [8, 8, 8], max_len=128,
                               vocab_size=787)
        mc = ModelConfig(vocab_size=787, n_domains=3)
        grad_bytes = zero_grads(mc).flat.nbytes

        def steps(epochs):  # one step an epoch: the target holds one batch
            tc = trainer.TrainConfig(micro_batch=8, accum_steps=1, epochs=epochs,
                                     checkpoint_interval=0)
            return lambda: trainer.train(tc, corpus, mc)

        one = traced_peak(monkeypatch, steps(1))
        two = traced_peak(monkeypatch, steps(2))
        assert two - one < grad_bytes / 2, (one, two, grad_bytes)

    def test_effective_batch_matches_one_combined_batch(self):
        """Accumulated micro-batches move parameters like one big batch."""
        corpus = make_corpus()
        mc = small_model_config(corpus, dtype="float64")
        base = dict(epochs=1, seed=9, checkpoint_interval=0, lam=0.8)
        split = trainer.train(
            trainer.TrainConfig(micro_batch=2, accum_steps=3, **base), corpus, mc)
        merged = trainer.train(
            trainer.TrainConfig(micro_batch=6, accum_steps=1, **base), corpus, mc)
        for name in split.params:
            np.testing.assert_allclose(split.params[name], merged.params[name],
                                       rtol=1e-6, atol=1e-12)

    def test_epoch_definition_counts_target_examples(self):
        corpus = make_corpus(counts=(10, 3, 3))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=0, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=0)
        result = trainer.train(tc, corpus, mc)
        spe = trainer.steps_per_epoch(10, 4)  # ceil(10 / 4) = 3
        assert spe == 3
        assert len(result.records) == 2 * spe
        assert result.records[-1].epoch == 2

    def test_log_line_shape(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=1, seed=0, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=0)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        fields = read_log(tmp_path)[0].split("\t")
        assert len(fields) == 7
        int(fields[0]), int(fields[1])
        for v in fields[2:]:
            float(v)

    def test_target_only_mode_samples_only_target(self):
        corpus = make_corpus(counts=(5, 5, 5), target=1)
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=0, micro_batch=2, accum_steps=2,
                                 target_only=True, checkpoint_interval=0)
        result = trainer.train(tc, corpus, mc)
        assert all(rec.p_target == 1.0 for rec in result.records)

    def test_target_only_ignores_the_exploration_floor(self, tmp_path):
        corpus = make_corpus(counts=(5, 5, 5), target=1)
        mc = small_model_config(corpus)
        base = dict(epochs=2, seed=0, micro_batch=2, accum_steps=2,
                    target_only=True, checkpoint_interval=0)
        plain = trainer.train(trainer.TrainConfig(explore=0.0, **base), corpus, mc,
                              out_dir=tmp_path / "plain")
        floored = trainer.train(trainer.TrainConfig(explore=0.5, **base), corpus, mc,
                                out_dir=tmp_path / "floored")
        assert read_log(tmp_path / "plain") == read_log(tmp_path / "floored")
        for name in plain.params:
            assert np.array_equal(plain.params[name], floored.params[name])


class TestSamplingDistribution:
    """The logged P_target and the checkpointed sampler state are the
    distribution the step's draws come from: the embeddings after the
    previous step, through the sampler's exploration mixture."""

    def _run(self, tmp_path, explore):
        corpus = make_corpus(counts=(6, 5, 4, 4))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=3, seed=8, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1, explore=explore)
        result = trainer.train(tc, corpus, mc, out_dir=tmp_path)
        initial = init_params(mc, derive_rng(8, 0))["dom_emb"]
        before_step = [initial]
        for rec in result.records[:-1]:
            bundle = checkpoint.load(tmp_path / f"ckpt_step{rec.step:06d}.ckpt")
            before_step.append(bundle.params["dom_emb"])
            assert bundle.sampler["explore"] == explore
            expected = sampling_probabilities(bundle.params["dom_emb"], 0,
                                              tc.tau, explore)
            assert np.array_equal(np.asarray(bundle.sampler["probs"]), expected)
        return result, before_step

    def test_explore_zero_logs_the_paper_probabilities(self, tmp_path):
        result, before_step = self._run(tmp_path, 0.0)
        assert len(result.records) == 6
        for rec, dom_emb in zip(result.records, before_step):
            assert rec.p_target == domain_probabilities(dom_emb, 0, 0.13)[0]

    def test_default_floor_logs_the_mixture(self, tmp_path):
        result, before_step = self._run(tmp_path, 0.2)
        for rec, dom_emb in zip(result.records, before_step):
            p = domain_probabilities(dom_emb, 0, 0.13)
            assert rec.p_target == sampling_probabilities(dom_emb, 0, 0.13, 0.2)[0]
            assert rec.p_target < p[0]


class TestCheckpoint:
    def test_model_round_trip(self, tmp_path):
        corpus = make_corpus()
        for dtype in ("float32", "float64"):
            mc = small_model_config(corpus, dtype=dtype)
            params = init_params(mc, derive_rng(0, 0))
            path = tmp_path / f"{dtype}.ckpt"
            checkpoint.save_model(path, mc, params,
                                  domain_names=list(corpus.table.names),
                                  target_index=0)
            bundle = checkpoint.load(path)
            assert bundle.config == mc
            assert bundle.domain_names == corpus.table.names
            assert bundle.target_index == 0
            for name in params:
                assert bundle.params[name].dtype == params[name].dtype
                assert np.array_equal(bundle.params[name], params[name])

    def test_file_with_the_retired_config_fields_loads(self, tmp_path):
        """Files written before the two dropout fields were removed carry
        them between d_domain and dtype; load ignores keys it does not know."""
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "old.ckpt"
        checkpoint.save_model(path, mc, params,
                              domain_names=list(corpus.table.names), target_index=0)
        dtype_line = b"\ndtype=float32\n"
        data = path.read_bytes()
        assert data.count(dtype_line) == 1
        path.write_bytes(data.replace(
            dtype_line, b"\ndropout_p=0.1\ndropout_enabled=False" + dtype_line))
        bundle = checkpoint.load(path)
        assert bundle.config == mc
        assert bundle.domain_names == corpus.table.names
        for name in params:
            assert np.array_equal(bundle.params[name], params[name]), name

    @pytest.mark.parametrize("key", [b"domain_names", b"target_index"])
    def test_file_without_names_or_target_rejected(self, tmp_path, key):
        """Every checkpoint names its domains and its target; a header
        without either line is a CheckpointError naming it."""
        corpus = make_corpus()
        mc = small_model_config(corpus)
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, init_params(mc, derive_rng(0, 0)),
                              domain_names=list(corpus.table.names), target_index=0)
        data = path.read_bytes()
        start = data.index(b"\n" + key + b"=") + 1
        end = data.index(b"\n", start) + 1
        path.write_bytes(data[:start] + data[end:])
        with pytest.raises(CheckpointError, match=f"missing '{key.decode()}' line"):
            checkpoint.load(path)

    @pytest.mark.parametrize("old, new", [
        (b"\nn_heads=2\n", b"\nn_heads=3\n"),
        (b"\ndtype=float32\n", b"\ndtype=float16\n"),
        (b"\nd_domain=4\n", b"\nd_domain=0\n"),
    ], ids=["n_heads", "dtype", "d_domain"])
    def test_header_config_the_model_refuses_rejected(self, tmp_path, old, new):
        """A header config that ModelConfig refuses is a corrupt checkpoint,
        not a ConfigError."""
        corpus = make_corpus()
        mc = small_model_config(corpus)
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, init_params(mc, derive_rng(0, 0)),
                              domain_names=list(corpus.table.names), target_index=0)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            checkpoint.load(path)

    def test_header_line(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, params,
                              domain_names=list(corpus.table.names), target_index=0)
        assert path.read_bytes().startswith(b"DOMBERT-CKPT v1\n")

    def test_byte_count_matches_oracle(self, tmp_path):
        """File size = text lines + 4 bytes per float32 (8 per float64),
        nothing hidden."""
        corpus = make_corpus()
        names = list(corpus.table.names)
        for dtype, itemsize in (("float32", 4), ("float64", 8)):
            mc = small_model_config(corpus, dtype=dtype)
            params = init_params(mc, derive_rng(0, 0))
            path = tmp_path / f"{dtype}.ckpt"
            checkpoint.save_model(path, mc, params, domain_names=names, target_index=0)
            expected = expected_size(mc, domain_names=names, target_index=0)
            assert path.stat().st_size == expected
            array_bytes = sum(itemsize * int(np.prod(shape))
                              for _, shape in param_specs(mc))
            assert expected > array_bytes

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        path = tmp_path / "final.ckpt"
        checkpoint.save_model(path, mc, init_params(mc, derive_rng(0, 0)),
                              domain_names=list(corpus.table.names), target_index=0)
        before = path.read_bytes()
        write_array = checkpoint._write_array
        calls = []

        def failing_write_array(*args):
            calls.append(args[1])
            if len(calls) == 3:
                raise OSError("disk full")
            write_array(*args)

        monkeypatch.setattr(checkpoint, "_write_array", failing_write_array)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save_model(path, mc, init_params(mc, derive_rng(1, 0)),
                                  domain_names=list(corpus.table.names), target_index=0)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]

    @pytest.mark.parametrize("given", [("adamax",), ("sampler", "trainer"), ("adamax", "trainer"),
                                       ("sampler",)],
                             ids=["adamax only", "no adamax", "no sampler", "sampler only"])
    def test_partial_training_state_rejected(self, tmp_path, given):
        """Training state is all three sections or none; a partial set is a
        ValueError naming what is missing, raised before any file exists."""
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        state = {"adamax": {"step": 1, **trainer.ADAMAX_SETTINGS, "m": params, "u": params},
                 "sampler": {}, "trainer": {}}
        missing = ", ".join(name for name in state if name not in given)
        with pytest.raises(ValueError, match=f"training state without {missing}$"):
            checkpoint.save_model(tmp_path / "part.ckpt", mc, params,
                                  domain_names=list(corpus.table.names), target_index=0,
                                  **{name: state[name] for name in given})
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_is_clean_error(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, params,
                              domain_names=list(corpus.table.names), target_index=0)
        data = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        for cut in (10, len(data) // 2, len(data) - 3):
            clipped.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                checkpoint.load(clipped)

        tc = trainer.TrainConfig(epochs=1, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1)
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "ckpt_step000001.ckpt").read_bytes()
        model_end = data.index(b"ADAMAX-STATE")
        cuts = set()
        for section in (b"ADAMAX-STATE", b"SAMPLER-STATE", b"TRAINER-STATE"):
            start = data.index(section)
            end = data.index(b"\n", start) + 1
            cuts.update(range(start - 1, end + 2))
        for cut in sorted(cuts):
            clipped.write_bytes(data[:cut])
            if cut == model_end:
                # everything before the first section is a whole model file
                assert checkpoint.load(clipped).adamax is None
                continue
            with pytest.raises(CheckpointError):
                checkpoint.load(clipped)

    @pytest.mark.parametrize("tail", [b"junk", b"\n", b"TRAINER-STATE nbytes=2\n{}"])
    def test_bytes_after_the_last_section_rejected(self, tmp_path, tail):
        tc = trainer.TrainConfig(epochs=1, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1)
        corpus = make_corpus()
        trainer.train(tc, corpus, small_model_config(corpus), out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "ckpt_step000001.ckpt").read_bytes()
        appended = tmp_path / "appended.ckpt"
        appended.write_bytes(data + tail)
        with pytest.raises(CheckpointError, match="after the TRAINER-STATE section"):
            checkpoint.load(appended)

    @pytest.mark.parametrize("old, new", [
        (b"ADAMAX-STATE step=1 ", b"ADAMAX-STATE step=1x "),
        (b"SAMPLER-STATE nbytes=", b"SAMPLER-STATE nbytes=q"),
        (b"TRAINER-STATE nbytes=", b"TRAINER-STATE nbytes=-"),
        (b"}TRAINER-STATE", b"]TRAINER-STATE"),
    ])
    def test_damaged_section_header_rejected(self, tmp_path, old, new):
        """A section header whose number is not an integer, or is negative,
        or a section that is not JSON, is a CheckpointError."""
        tc = trainer.TrainConfig(epochs=1, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1)
        corpus = make_corpus()
        trainer.train(tc, corpus, small_model_config(corpus), out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "ckpt_step000001.ckpt").read_bytes()
        assert data.count(old) == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data.replace(old, new))
        with pytest.raises(CheckpointError):
            checkpoint.load(bad)

    @pytest.mark.parametrize("form, field", [
        (form, field) for form in sorted(NOT_WRITTEN_INTEGERS) for field in CHECKPOINT_INTEGERS
        # a space splits these lines' fields, and was refused before
        if not (" " in form and field in ("array dimension", "step"))])
    def test_integer_form_no_writer_writes_rejected(self, tmp_path, form, field):
        """An integer field holds the decimal form str() writes; the other
        forms int() reads are a CheckpointError naming the field."""
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "state.ckpt"
        checkpoint.save_model(path, mc, params, domain_names=list(corpus.table.names),
                              target_index=0, sampler={}, trainer={},
                              adamax={"step": 1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                                      "m": params, "u": params})
        checkpoint.load(path)
        data = path.read_bytes()
        start = data.index(CHECKPOINT_INTEGERS[field]) + len(CHECKPOINT_INTEGERS[field])
        end = start
        while data[end:end + 1].isdigit():
            end += 1
        path.write_bytes(data[:start] + NOT_WRITTEN_INTEGERS[form](data[start:end])
                         + data[end:])
        with pytest.raises(CheckpointError, match="is not a decimal integer"):
            checkpoint.load(path)

    @pytest.mark.parametrize("field, value", [
        ("step", "-5"), ("beta1", "1.0"), ("beta1", "-0.1"), ("beta2", "1.5"),
        ("eps", "nan"), ("eps", "inf"), ("eps", "0.0"),
    ])
    def test_adamax_setting_out_of_range_rejected(self, tmp_path, field, value):
        tc = trainer.TrainConfig(epochs=1, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1)
        corpus = make_corpus()
        trainer.train(tc, corpus, small_model_config(corpus), out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "ckpt_step000001.ckpt").read_bytes()
        old = b"ADAMAX-STATE step=1 beta1=0.9 beta2=0.999 eps=1e-08\n"
        assert data.count(old) == 1
        header = {"step": "1", "beta1": "0.9", "beta2": "0.999", "eps": "1e-08", field: value}
        new = "ADAMAX-STATE " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data.replace(old, new.encode()))
        with pytest.raises(CheckpointError, match=f"{field}={value}"):
            checkpoint.load(bad)

    def test_shape_mismatch_rejected(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, params,
                              domain_names=list(corpus.table.names), target_index=0)
        data = path.read_bytes()
        doctored = data.replace(b"vocab_size=25", b"vocab_size=26", 1)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(doctored)
        with pytest.raises(CheckpointError, match="shape"):
            checkpoint.load(bad)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOT-A-CKPT v0\n")
        with pytest.raises(CheckpointError):
            checkpoint.load(path)


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        corpus = make_corpus(counts=(8, 6, 5))
        full_cfg = trainer.TrainConfig(epochs=4, seed=5, micro_batch=2,
                                       accum_steps=2, checkpoint_interval=4)
        for dtype in ("float32", "float64"):
            mc = small_model_config(corpus, dtype=dtype)
            full_dir, resumed_dir = tmp_path / dtype / "full", tmp_path / dtype / "resumed"
            full = trainer.train(full_cfg, corpus, mc, out_dir=full_dir,
                                 manifest="MANIFEST\tfull run")
            ckpts = sorted(full_dir.glob("ckpt_step*.ckpt"))
            assert ckpts
            bundle = checkpoint.load(ckpts[0])
            resumed = trainer.train(full_cfg, corpus, mc, out_dir=resumed_dir,
                                    resume=bundle)
            for name in full.params:
                assert resumed.params[name].dtype == np.dtype(dtype)
                assert np.array_equal(full.params[name], resumed.params[name]), name
            assert full.records[-1].step == resumed.records[-1].step
            written = sorted(resumed_dir.glob("ckpt_step*.ckpt"))
            assert [p.name for p in written] == [p.name for p in ckpts[1:]]
            for path in written:
                assert path.read_bytes() == (full_dir / path.name).read_bytes()
            resumed_log = read_log(resumed_dir)
            full_log = read_log(full_dir)
            assert resumed_log[0].startswith(f"{bundle.trainer['next_step']}\t")
            assert resumed_log == full_log[-len(resumed_log):]
            # Resuming into the run's own directory cuts its log back to the
            # checkpoint (manifest and top-k reports kept) and appends.
            copy_dir = tmp_path / dtype / "copy"
            shutil.copytree(full_dir, copy_dir)
            trainer.train(full_cfg, corpus, mc, out_dir=copy_dir,
                          resume=checkpoint.load(ckpts[0]), manifest="MANIFEST\tresumed run")
            assert (copy_dir / "log.tsv").read_bytes() == (full_dir / "log.tsv").read_bytes()
            assert any(line.startswith("# top-") for line in full_log)

    def test_one_bundle_resumes_twice_alike(self, tmp_path):
        """A resume trains in copies: the loaded bundle keeps its arrays."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "full")
        bundle = checkpoint.load(tmp_path / "full" / "ckpt_step000002.ckpt")
        runs = [trainer.train(tc, corpus, mc, out_dir=tmp_path / name, resume=bundle)
                for name in ("a", "b")]
        for name in runs[0].params:
            assert np.array_equal(runs[0].params[name], runs[1].params[name]), name
        assert read_log(tmp_path / "a") == read_log(tmp_path / "b")

    def test_resumes_train_in_buffers_of_their_own(self, tmp_path, monkeypatch):
        """Two resumes from one bundle share no buffer with it or each other."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "full")
        bundle = checkpoint.load(tmp_path / "full" / "ckpt_step000002.ckpt")
        firsts = []
        adamax_step = trainer.adamax_step

        def recording_step(params, grads, state, lr):
            if state.step == bundle.adamax["step"]:
                firsts.append([d.flat for d in (params, state.m, state.u)])
            adamax_step(params, grads, state, lr)

        monkeypatch.setattr(trainer, "adamax_step", recording_step)
        for _ in range(2):
            trainer.train(tc, corpus, mc, resume=bundle)
        assert len(firsts) == 2
        theirs = [*bundle.params.values(), *bundle.adamax["m"].values(),
                  *bundle.adamax["u"].values()]
        for flat in firsts[0] + firsts[1]:
            assert not any(np.shares_memory(flat, arr) for arr in theirs)
        for a in firsts[0]:
            assert not any(np.shares_memory(a, b) for b in firsts[1])

    def test_resume_refuses_an_adamax_step_off_the_next_step(self, tmp_path):
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(tmp_path / "ckpt_step000002.ckpt")
        for step in (1, 3, 0):
            bundle.adamax["step"] = step
            with pytest.raises(CheckpointError, match=f"Adamax step {step} "):
                trainer.train(tc, corpus, mc, resume=bundle)

    @pytest.mark.parametrize("value", [3.0, 3.5, "3", True],
                             ids=["float", "fraction", "string", "bool"])
    def test_resume_refuses_a_next_step_that_is_not_an_integer(self, tmp_path, value):
        """The trainer section's next_step holds a JSON integer, as
        save_training_checkpoint writes it; int() would read these as a
        step. True stands for 1, the next step of no checkpoint."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(tmp_path / "ckpt_step000002.ckpt")
        assert bundle.trainer["next_step"] == 3
        bundle.trainer["next_step"] = value
        with pytest.raises(CheckpointError, match=f"next_step {value!r} is not an integer"):
            trainer.train(tc, corpus, mc, resume=bundle)

    @pytest.mark.parametrize("field, value", [("beta1", "0.5"), ("beta2", "0.99"),
                                              ("eps", "1e-06")])
    def test_resume_refuses_other_adamax_settings(self, tmp_path, field, value):
        """Settings within load's ranges but not the program's constants
        load, and a resume from them is refused."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "ckpt_step000002.ckpt").read_bytes()
        old = b"ADAMAX-STATE step=2 beta1=0.9 beta2=0.999 eps=1e-08\n"
        assert data.count(old) == 1
        header = {"step": "2", "beta1": "0.9", "beta2": "0.999", "eps": "1e-08", field: value}
        new = "ADAMAX-STATE " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n"
        doctored = tmp_path / "doctored.ckpt"
        doctored.write_bytes(data.replace(old, new.encode()))
        bundle = checkpoint.load(doctored)
        assert bundle.adamax[field] == float(value)
        with pytest.raises(CheckpointError, match="Adamax settings"):
            trainer.train(tc, corpus, mc, resume=bundle)

    def test_resume_refuses_a_log_that_stops_before_the_checkpoint(self, tmp_path):
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(sorted(tmp_path.glob("ckpt_step*.ckpt"))[-1])
        log = tmp_path / "log.tsv"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text("".join(lines[:1]), encoding="utf-8")
        with pytest.raises(CheckpointError, match="ends at step 1"):
            trainer.train(tc, corpus, mc, out_dir=tmp_path, resume=bundle)
        assert log.read_text(encoding="utf-8") == lines[0]

    def test_resume_drops_a_log_line_cut_off_mid_write(self, tmp_path):
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        full = (tmp_path / "log.tsv").read_text(encoding="utf-8")
        lines = full.splitlines(keepends=True)
        cut = lines.index(next(line for line in lines if line.startswith("3\t")))
        # A crash after step 2's checkpoint, halfway through step 3's line.
        (tmp_path / "log.tsv").write_text("".join(lines[:cut]) + lines[cut][:5],
                                          encoding="utf-8")
        bundle = checkpoint.load(tmp_path / "ckpt_step000002.ckpt")
        trainer.train(tc, corpus, mc, out_dir=tmp_path, resume=bundle)
        assert (tmp_path / "log.tsv").read_text(encoding="utf-8") == full

    def test_resume_rejects_another_run_setting(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(sorted(tmp_path.glob("ckpt_step*.ckpt"))[0])
        for name, value in (("tau", 0.5), ("explore", 0.0), ("lr", 1e-2),
                            ("lam", 0.5), ("micro_batch", 3), ("seed", 2),
                            ("target_only", True),
                            ("masking", MaskingPolicy(select_prob=0.2))):
            other = dataclasses.replace(tc, **{name: value})
            with pytest.raises(ConfigError, match=f"checkpoint {name}="):
                trainer.train(other, corpus, mc, resume=bundle)
        with pytest.raises(ConfigError, match="checkpoint d_ff=12"):
            trainer.train(tc, corpus, dataclasses.replace(mc, d_ff=16), resume=bundle)
        # the run length and the checkpoint cadence may change
        longer = dataclasses.replace(tc, epochs=3, checkpoint_interval=5)
        trainer.train(longer, corpus, mc, resume=bundle)

    def test_target_only_run_resumes(self, tmp_path):
        """A target-only run stores explore 0, whatever its config says."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=3, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2, target_only=True)
        full = trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(sorted(tmp_path.glob("ckpt_step*.ckpt"))[0])
        assert tc.explore == 0.2 and bundle.sampler["explore"] == 0.0
        resumed = trainer.train(tc, corpus, mc, resume=bundle)
        for name in full.params:
            assert np.array_equal(full.params[name], resumed.params[name]), name

    @pytest.mark.parametrize("field, value", [("tau", 5.0), ("explore", 0.9)])
    def test_resume_refuses_a_sampler_section_of_another_run(self, tmp_path, field, value):
        """The sampler section's own tau and explore must be the run's too,
        not only the trainer section's copy of the config."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(tmp_path / "ckpt_step000002.ckpt")
        bundle.sampler[field] = value
        with pytest.raises(CheckpointError, match=f"sampler has .*{field}={value}"):
            trainer.train(tc, corpus, mc, resume=bundle)

    @pytest.mark.parametrize("field, value", [
        ("domain_names", ["dom0", "dom2", "dom1"]), ("target_index", 1), ("domain_names", None),
    ])
    def test_resume_refuses_a_checkpoint_of_another_corpus(self, tmp_path, field, value):
        """The header's domain names and target index must be the corpus's."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(tmp_path / "ckpt_step000002.ckpt")
        assert (bundle.domain_names, bundle.target_index) == (["dom0", "dom1", "dom2"], 0)
        setattr(bundle, field, value)
        with pytest.raises(CheckpointError, match="checkpoint's domains"):
            trainer.train(tc, corpus, mc, resume=bundle)

    def test_benchmark_hooks_stay_on_the_call_path(self, tmp_path, monkeypatch):
        """The step loop and the checkpoint writer call these through the
        trainer module's globals, and objective.step calls forward, backward
        and regularizer_grad through the objective module's, where a
        benchmark can wrap them."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        hooks = {trainer: ("sample_batch", "make_masked_batch", "adamax_step",
                           "refresh_probabilities", "save_training_checkpoint"),
                 objective: ("forward", "backward", "regularizer_grad")}
        calls = dict.fromkeys(hooks[trainer] + hooks[objective], 0)
        for module, names in hooks.items():
            for name in names:
                def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _inner(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        # 8 target rows in steps of 2x2 rows: 2 steps per epoch, 4 in all.
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "full")
        assert calls == {"sample_batch": 8, "make_masked_batch": 8, "adamax_step": 4,
                         "refresh_probabilities": 4, "save_training_checkpoint": 2,
                         "forward": 8, "backward": 8, "regularizer_grad": 4}
        calls.update(dict.fromkeys(calls, 0))
        bundle = checkpoint.load(tmp_path / "full" / "ckpt_step000002.ckpt")
        trainer.train(tc, corpus, mc, out_dir=tmp_path / "resumed", resume=bundle)
        assert calls == {"sample_batch": 4, "make_masked_batch": 4, "adamax_step": 2,
                         "refresh_probabilities": 2, "save_training_checkpoint": 1,
                         "forward": 4, "backward": 4, "regularizer_grad": 2}

    @pytest.mark.parametrize("section, edit", [
        ("sampler", dict.clear),
        ("sampler", lambda raw: raw.update(probs="x")),
        ("sampler", lambda raw: raw.update(queues=[1, 2, 3])),
        ("trainer", lambda raw: raw.pop("next_step")),
        ("trainer", lambda raw: raw.update(mask_rng={"x": 1})),
    ], ids=["empty sampler state", "probs not numbers", "queues not objects",
            "no next step", "mask_rng of no generator"])
    def test_malformed_training_state_rejected(self, tmp_path, section, edit):
        """A section of another shape is a CheckpointError naming it, not a
        bare KeyError, TypeError or ValueError from deep in the resume."""
        corpus = make_corpus(counts=(8, 6, 5))
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=1, seed=5, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=1)
        trainer.train(tc, corpus, mc, out_dir=tmp_path)
        bundle = checkpoint.load(tmp_path / "ckpt_step000001.ckpt")
        edit(getattr(bundle, section))
        with pytest.raises(CheckpointError,
                           match=f"malformed {section.upper()}-STATE section"):
            trainer.train(tc, corpus, mc, resume=bundle)

    def test_resume_from_model_only_checkpoint_rejected(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        params = init_params(mc, derive_rng(0, 0))
        path = tmp_path / "model.ckpt"
        checkpoint.save_model(path, mc, params,
                              domain_names=list(corpus.table.names), target_index=0)
        bundle = checkpoint.load(path)
        tc = trainer.TrainConfig(epochs=1, micro_batch=2, accum_steps=1)
        with pytest.raises(CheckpointError):
            trainer.train(tc, corpus, mc, resume=bundle)

    def test_training_checkpoint_round_trips_optimizer(self, tmp_path):
        corpus = make_corpus()
        mc = small_model_config(corpus)
        tc = trainer.TrainConfig(epochs=2, seed=1, micro_batch=2, accum_steps=2,
                                 checkpoint_interval=2)
        result = trainer.train(tc, corpus, mc, out_dir=tmp_path)
        ckpts = sorted(tmp_path.glob("ckpt_step*.ckpt"))
        bundle = checkpoint.load(ckpts[-1])
        assert bundle.adamax is not None
        assert bundle.adamax["step"] > 0
        assert bundle.sampler is not None
        assert bundle.trainer["next_step"] == bundle.adamax["step"] + 1
