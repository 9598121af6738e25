"""Synthetic corpora with planted relevance structure, and recovery and
language-model-quality evaluation.

Cluster vocabularies are disjoint by construction: a domain's documents mix
its cluster's shared tokens, its own unique tokens, and global background
tokens, so ground-truth relevance is unambiguous.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, open_text, pack_domain, tokenize
from .errors import ConfigError, CorpusError
from .masking import MaskingPolicy, make_masked_batch
from .model import ModelConfig, Params
from .nputil import STREAM_EVAL, STREAM_SYNTH, derive_rng, open_replacing
from .objective import masked_token_pass
from .sampler import report_top_domains


@dataclass(frozen=True)
class SyntheticSpec:
    n_clusters: int = 3
    domains_per_cluster: int = 4
    shared_vocab: int = 200      # per cluster
    unique_vocab: int = 100      # per domain
    background_vocab: int = 500
    docs_per_domain: int = 300
    doc_len_min: int = 20
    doc_len_max: int = 60
    mix: tuple[float, float, float] = (0.5, 0.3, 0.2)
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = (self.n_clusters, self.domains_per_cluster, self.shared_vocab,
                 self.unique_vocab, self.background_vocab, self.docs_per_domain,
                 self.doc_len_min)
        if min(sizes) < 1:
            raise ConfigError("all synthetic sizes must be >= 1")
        if self.doc_len_max < self.doc_len_min:
            raise ConfigError("doc_len_max must be >= doc_len_min")
        if (not np.isfinite(self.mix).all() or abs(sum(self.mix) - 1.0) > 1e-12
                or min(self.mix) < 0.0):
            raise ConfigError("mix ratios must be finite, non-negative and sum to 1")

    @property
    def n_domains(self) -> int:
        return self.n_clusters * self.domains_per_cluster


def domain_name(cluster: int, member: int) -> str:
    return f"c{cluster}_d{member}"


def gen_synthetic_corpus(spec: SyntheticSpec) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """Deterministic per seed: (raw records, domain name -> cluster id map).

    Token spellings carry their category (cluster-shared ``c<k>s<i>``,
    domain-unique ``<domain>u<i>``, background ``bg<i>``) so tests can count
    category frequencies directly from the emitted text.
    """
    rng = derive_rng(spec.seed, STREAM_SYNTH)
    mix = np.asarray(spec.mix, dtype=np.float64)
    records: list[tuple[str, str]] = []
    truth: dict[str, int] = {}
    for c in range(spec.n_clusters):
        shared = [f"c{c}s{i}" for i in range(spec.shared_vocab)]
        for j in range(spec.domains_per_cluster):
            name = domain_name(c, j)
            truth[name] = c
            unique = [f"{name}u{i}" for i in range(spec.unique_vocab)]
            background = [f"bg{i}" for i in range(spec.background_vocab)]
            pools = (shared, unique, background)
            for _ in range(spec.docs_per_domain):
                n = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
                cats = rng.choice(3, size=n, p=mix)
                words = np.empty(n, dtype=object)
                for k, pool in enumerate(pools):
                    at = np.flatnonzero(cats == k)
                    if at.size:
                        picks = rng.integers(0, len(pool), size=at.size)
                        words[at] = [pool[p] for p in picks]
                records.append((name, " ".join(words)))
    return records, truth


def write_corpus(path: str | Path, records: list[tuple[str, str]]) -> None:
    with open_replacing(path, "w", encoding="utf-8") as fh:
        for name, text in records:
            fh.write(f"{name}\t{text}\n")


def write_truth(path: str | Path, truth: dict[str, int]) -> None:
    with open_replacing(path, "w", encoding="utf-8") as fh:
        for name, cluster in truth.items():
            fh.write(f"{name}\t{cluster}\n")


def read_truth(path: str | Path) -> dict[str, int]:
    truth: dict[str, int] = {}
    named_on: dict[str, int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                name, cluster = line.split("\t")
                truth[name] = int(cluster)
            except ValueError as exc:
                raise CorpusError(
                    f"truth line {lineno}: expected domain<TAB>cluster id") from exc
            if name in named_on:
                raise CorpusError(f"truth lines {named_on[name]} and {lineno} both name"
                                  f" domain {name!r}")
            named_on[name] = lineno
    return truth


def cluster_mates(truth: dict[str, int], names: list[str], target: int) -> set[str]:
    """Names of the target's true cluster mates (target excluded)."""
    if names[target] not in truth:
        raise CorpusError(f"truth file has no cluster for target domain {names[target]!r}")
    target_cluster = truth[names[target]]
    return {
        name for i, name in enumerate(names)
        if i != target and truth.get(name) == target_cluster
    }


def eval_domain_recovery(
    dom_emb: np.ndarray,
    target: int,
    names: list[str],
    truth: dict[str, int],
) -> float:
    """precision@k of cosine ranking against the target's k planted cluster mates."""
    mates = cluster_mates(truth, names, target)
    k = len(mates)
    if k == 0:
        return 0.0
    top = report_top_domains(dom_emb, target, k, names)
    hits = sum(1 for name, _ in top if name in mates)
    return hits / k


# Rows per scoring batch. perfbench's score-heldout and the digest gate's default-shape
# eval score 16x128 batches, so changing it changes the eval bytes.
SCORE_BATCH = 16


def eval_pseudo_perplexity(
    params: Params,
    config: ModelConfig,
    heldout_texts: Iterable[str],
    vocab: Vocabulary,
    seed: int,
) -> float:
    """exp(mean masked-token cross-entropy) under one fixed-seed default masking pass.
    heldout_texts is read once, before the first batch is scored. Scoring
    runs forward only: the encoder frees each layer's cache once the layer
    has run, and a batch's caches go once its loss is taken."""
    if vocab.size != config.vocab_size:
        raise ConfigError(f"vocabulary has {vocab.size} tokens, the model {config.vocab_size}")
    examples = pack_domain([tokenize(text, vocab) for text in heldout_texts],
                           0, config.max_len)
    if not examples:
        raise ConfigError("held-out set tokenizes to nothing")
    rng = derive_rng(seed, STREAM_EVAL)
    policy = MaskingPolicy()
    ce_sum = 0.0
    n_targets = 0
    for start in range(0, len(examples), SCORE_BATCH):
        batch = make_masked_batch(
            examples[start : start + SCORE_BATCH], policy, rng, config.vocab_size
        )
        if batch.n_targets == 0:
            continue
        loss = masked_token_pass(batch, params, config, False)[0]
        ce_sum += loss * batch.n_targets
        n_targets += batch.n_targets
    if n_targets == 0:
        raise ConfigError("masking selected no positions in the held-out set")
    return float(np.exp(ce_sum / n_targets))

