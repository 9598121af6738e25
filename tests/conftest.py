import tracemalloc

import numpy as np
import pytest

from dombert import nputil, trainer
from dombert.corpus import (CLS_ID, NUM_RESERVED, PAD_ID, SEP_ID, DomainTable, PackedCorpus,
                            PackedExample)
from dombert.masking import MaskedBatch
from dombert.model import ForwardCache, Params, _affine, _ln_forward
from dombert.nputil import gelu, softmax_parts
from dombert.objective import mean_nll


def random_packed_example(
    rng: np.random.Generator,
    max_len: int = 12,
    vocab_size: int = 30,
    domain_id: int = 0,
) -> PackedExample:
    """A structurally valid packed row with random contents and padding."""
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    valid_len = int(rng.integers(3, max_len + 1))
    ids[1 : valid_len - 1] = rng.integers(NUM_RESERVED, vocab_size, size=valid_len - 2)
    ids[valid_len - 1] = SEP_ID
    return PackedExample(ids=ids, valid_len=valid_len, domain_id=domain_id)


def packed_corpus(rng: np.random.Generator, counts, target: int = 0,
                  max_len: int = 10, vocab_size: int = 20) -> PackedCorpus:
    """A hand-built corpus whose domain dom<i> has counts[i] random rows, drawn
    from rng domain by domain; raises as PackedCorpus does for a bad one."""
    table = DomainTable(names=[f"dom{i}" for i in range(len(counts))], target_index=target,
                        counts=list(counts))
    examples = [random_packed_example(rng, max_len, vocab_size, did)
                for did, count in enumerate(counts) for _ in range(count)]
    return PackedCorpus(examples, table, max_len, vocab_size)


def failing_partway(items):
    """The first half of items, then the OSError of a disk that filled up."""
    items = list(items)
    yield from items[: (len(items) + 1) // 2]
    raise OSError(28, "No space left on device")


def batch_with_target_counts(seed: int, vocab_size: int, max_len: int,
                             counts: list[int], n_domains: int = 3) -> MaskedBatch:
    """A batch of len(counts) examples of max_len tokens, the second half
    padded, with counts[i] targets at distinct positions of example i."""
    gen = np.random.default_rng(seed)
    b, l = len(counts), max_len
    ids = gen.integers(NUM_RESERVED, vocab_size, size=(b, l))
    ids[:, 0] = CLS_ID
    valid = np.full(b, l)
    valid[b // 2:] = gen.integers(l // 2, l, size=b - b // 2)
    ids[np.arange(l) >= valid[:, None]] = PAD_ID
    targets = []
    for i, n in enumerate(counts):
        positions = np.sort(gen.choice(np.arange(1, valid[i]), n, replace=False))
        targets.append([(int(p), int(gen.integers(NUM_RESERVED, vocab_size)))
                        for p in positions])
    return masked_batch(ids, valid, targets, gen.integers(0, n_domains, size=b))


def masked_batch(input_ids: np.ndarray, valid_lens: np.ndarray,
                 targets: list[list[tuple[int, int]]],
                 domain_labels: np.ndarray) -> MaskedBatch:
    """A MaskedBatch whose targets are given per example, as (position,
    original id) pairs."""
    pairs = np.array([pair for tlist in targets for pair in tlist], np.int64).reshape(-1, 2)
    return MaskedBatch(input_ids=input_ids, valid_lens=valid_lens,
                       target_ex=np.repeat(np.arange(len(targets)), list(map(len, targets))),
                       target_pos=pairs[:, 0], target_ids=pairs[:, 1],
                       domain_labels=domain_labels)


def mlm_logits_full(cache: ForwardCache, params: Params) -> np.ndarray:
    """Vocabulary logits at every position (B x L x V); reference path."""
    h = cache.h.reshape(-1, cache.h.shape[-1])  # one matmul, not one per example
    z1 = _affine(h, params["mlm_w"], params["mlm_b"])
    z2, _ = gelu(z1)
    z3, _ = _ln_forward(z2, params["mlm_ln_g"], params["mlm_ln_b"])
    logits = _affine(z3, params["tok_emb"].T, params["mlm_out_b"])
    return logits.reshape(*cache.h.shape[:2], -1)


def loss_mlm(eal_logits: np.ndarray, target_ids: np.ndarray) -> float:
    """Mean cross-entropy over target positions; 0 when there are none."""
    _, sums, picked = softmax_parts(eal_logits, target_ids)
    return mean_nll(picked, sums)


def traced_peak(monkeypatch, run) -> int:
    """The highest traced Python and numpy memory while run() runs, in
    bytes. Batches stay whole on one thread, so no helper's allocations
    overlap the caller's and the peak repeats exactly."""
    monkeypatch.setattr(nputil, "_threads", 1)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def observe_steps(monkeypatch) -> list[dict]:
    """Watch trainer.train's optimizer steps at its hooks. The list returned
    gains one dict per step: "p_target_is_max", whether the target's P' is
    the largest in the P' that the step's first trainer.sample_batch call
    draws from, and "cls_w_grad_norm" and "cls_b_grad_norm", the domain
    head's gradient norms as trainer.adamax_step receives them, before the
    update."""
    steps: list[dict] = []
    sample_batch, adamax_step = trainer.sample_batch, trainer.adamax_step

    def observed_sample_batch(state, batch_size):
        if not steps or "cls_w_grad_norm" in steps[-1]:  # the step's first draw
            steps.append({"p_target_is_max": bool(state.probs[state.target]
                                                  >= state.probs.max())})
        return sample_batch(state, batch_size)

    def observed_adamax_step(params, grads, state, lr):
        steps[-1].update(cls_w_grad_norm=float(np.linalg.norm(grads["cls_w"])),
                         cls_b_grad_norm=float(np.linalg.norm(grads["cls_b"])))
        return adamax_step(params, grads, state, lr)

    monkeypatch.setattr(trainer, "sample_batch", observed_sample_batch)
    monkeypatch.setattr(trainer, "adamax_step", observed_adamax_step)
    return steps


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
