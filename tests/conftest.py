import numpy as np
import pytest

from dombert.corpus import CLS_ID, NUM_RESERVED, PAD_ID, SEP_ID, PackedExample
from dombert.masking import MaskedBatch


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
    return MaskedBatch(input_ids=ids, valid_lens=valid, targets=targets,
                       domain_labels=gen.integers(0, n_domains, size=b))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
