import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dombert import nputil, trainer
from dombert.corpus import (CLS_ID, NUM_RESERVED, PACKED_MAGIC, PAD_ID, SEP_ID, UNK_ID,
                            DomainTable, PackedCorpus, PackedExample, Vocabulary, _read_header,
                            open_text, word_tokens)
from dombert.errors import ConfigError, CorpusError
from dombert.masking import MaskedBatch
from dombert.model import ForwardCache, Params, _affine, _ln_forward
from dombert.nputil import gelu, open_replacing, softmax_parts
from dombert.objective import mean_nll


# Reference ingest path: the per-token Python versions of corpus.build_vocab,
# tokenize, pack_domain, write_packed and read_packed, which the array-backed
# ones must match byte for byte.


def reference_build_vocab(texts: list[str], min_count: int, max_size: int) -> Vocabulary:
    """Most frequent word tokens with count >= min_count, at most max_size of
    them; ties at equal count break lexicographically."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if max_size < 0:
        raise ConfigError("max vocabulary size must be >= 0")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(word_tokens(text))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept[:max_size])


def reference_tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for a text; out-of-vocabulary words map to [UNK]."""
    get = vocab.token_to_id.get
    return [get(t, UNK_ID) for t in word_tokens(text)]


def reference_pack_domain(docs: list[list[int]], domain_id: int,
                          max_len: int) -> list[PackedExample]:
    """Greedy packing of one domain's token-id documents in input order.

    Each non-empty document contributes its tokens followed by one [SEP]; the
    resulting stream is cut into [CLS]-prefixed rows of capacity max_len - 1,
    so a document that does not fit is split and its remainder carries into
    the next row. The final row is padded to max_len.
    """
    if max_len < 3:
        raise ConfigError("max_len must be >= 3")
    stream: list[int] = []
    for tokens in docs:
        if tokens:
            stream.extend(tokens)
            stream.append(SEP_ID)

    capacity = max_len - 1
    out: list[PackedExample] = []
    for start in range(0, len(stream), capacity):
        chunk = stream[start : start + capacity]
        ids = np.full(max_len, PAD_ID, dtype=np.int64)
        ids[0] = CLS_ID
        ids[1 : 1 + len(chunk)] = chunk
        out.append(PackedExample(ids=ids, valid_len=1 + len(chunk), domain_id=domain_id))
    return out


def reference_write_packed(path: str | Path, corpus: PackedCorpus) -> None:
    """Packed-corpus file: one header line, then one line per example
    ``domain_id<TAB>valid_len<TAB>space-separated ids`` (all max_len ids)."""
    with open_replacing(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{PACKED_MAGIC} L_max={corpus.ids.shape[1]} "
            f"n_plus_1={corpus.table.n_plus_1} vocab_size={corpus.vocab_size}\n"
        )
        for did, valid_len, row in zip(corpus.domains, corpus.valid_lens, corpus.ids):
            ids = " ".join(str(int(v)) for v in row)
            fh.write(f"{int(did)}\t{int(valid_len)}\t{ids}\n")


def reference_read_packed(path: str | Path, table: DomainTable) -> PackedCorpus:
    """The packed rows of `path`, checked against `table` and its counts."""
    with open_text(path) as fh:
        max_len, n_plus_1, vocab_size = _read_header(
            fh, PACKED_MAGIC, ("L_max", "n_plus_1", "vocab_size"), "packed-corpus")
        if n_plus_1 != table.n_plus_1:
            raise CorpusError(
                f"packed corpus has {n_plus_1} domains, table has {table.n_plus_1}"
            )
        examples: list[PackedExample] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: expected 3 TAB-separated fields")
            try:
                did = int(parts[0])
                valid_len = int(parts[1])
                ids = np.array([int(v) for v in parts[2].split(" ")], dtype=np.int64)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: unparseable example") from exc
            if ids.shape != (max_len,):
                raise CorpusError(f"line {lineno}: expected {max_len} ids")
            examples.append(PackedExample(ids=ids, valid_len=valid_len, domain_id=did))
    return corpus_of(examples, table, max_len, vocab_size)


def corpus_of(examples: list[PackedExample], table: DomainTable, max_len: int,
              vocab_size: int) -> PackedCorpus:
    """The PackedCorpus of examples' rows, in order."""
    return PackedCorpus(
        np.array([ex.ids for ex in examples], dtype=np.int64).reshape(-1, max_len),
        np.array([ex.valid_len for ex in examples], dtype=np.int64),
        np.array([ex.domain_id for ex in examples], dtype=np.int64), table, vocab_size)


def row_address(example: PackedExample) -> int:
    """Where an example's ids start in memory: each corpus row has its own."""
    return example.ids.ctypes.data


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
    return corpus_of(examples, table, max_len, vocab_size)


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
