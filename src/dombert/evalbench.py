"""Synthetic corpora with planted relevance structure, recovery/LM-quality
evaluation, and a timing benchmark for the sparse masked-token path.

Cluster vocabularies are disjoint by construction: a domain's documents mix
its cluster's shared tokens, its own unique tokens, and global background
tokens, so ground-truth relevance is unambiguous.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as model_ops
from .corpus import (
    CLS_ID,
    NUM_RESERVED,
    PackedExample,
    Vocabulary,
    open_text,
    pack_domain,
    tokenize,
)
from .errors import ConfigError, CorpusError
from .masking import MaskingPolicy, make_masked_batch
from .model import ModelConfig, Params, init_params
from .nputil import STREAM_EVAL, STREAM_SYNTH, derive_rng
from .objective import loss_mlm
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
        if abs(sum(self.mix) - 1.0) > 1e-12 or min(self.mix) < 0.0:
            raise ConfigError("mix ratios must be non-negative and sum to 1")

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
    with open(path, "w", encoding="utf-8") as fh:
        for name, text in records:
            fh.write(f"{name}\t{text}\n")


def write_truth(path: str | Path, truth: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, cluster in truth.items():
            fh.write(f"{name}\t{cluster}\n")


def read_truth(path: str | Path) -> dict[str, int]:
    truth: dict[str, int] = {}
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
    k: int | None = None,
) -> float:
    """precision@k of cosine ranking against the planted cluster.

    k defaults to the number of true cluster mates of the target.
    """
    mates = cluster_mates(truth, names, target)
    if k is None:
        k = len(mates)
    if k == 0:
        return 0.0
    top = report_top_domains(dom_emb, target, k, names)
    hits = sum(1 for name, _ in top if name in mates)
    return hits / k


def eval_pseudo_perplexity(
    params: Params,
    config: ModelConfig,
    heldout_texts: list[str],
    vocab: Vocabulary,
    policy: MaskingPolicy,
    seed: int,
    batch_size: int = 16,
) -> float:
    """exp(mean masked-token cross-entropy) under one fixed-seed masking pass."""
    examples = pack_domain([tokenize(text, vocab) for text in heldout_texts],
                           0, config.max_len)
    if not examples:
        raise ConfigError("held-out set tokenizes to nothing")
    rng = derive_rng(seed, STREAM_EVAL)
    ce_sum = 0.0
    n_targets = 0
    for start in range(0, len(examples), batch_size):
        batch = make_masked_batch(
            examples[start : start + batch_size], policy, rng, config.vocab_size
        )
        if batch.n_targets == 0:
            continue
        ex_idx, _, target_ids = batch.flat_targets()
        rows, slots = batch.output_rows()
        fwd = model_ops.encode(batch.input_ids, batch.valid_lens, params, config, rows)
        logits, _ = model_ops.mlm_logits_eal(fwd, ex_idx, slots, params)
        ce_sum += loss_mlm(logits, target_ids) * batch.n_targets
        n_targets += batch.n_targets
    if n_targets == 0:
        raise ConfigError("masking selected no positions in the held-out set")
    return float(np.exp(ce_sum / n_targets))


def bench_eal(
    config: ModelConfig,
    mask_rate: float = 0.15,
    reps: int = 5,
    batch_size: int = 8,
    seed: int = 0,
) -> dict[str, float]:
    """Paired timing of the sparse vs dense masked-token paths.

    Both paths run encode + vocabulary logits + loss on identical batches;
    the sparse one encodes its last layer only at the heads' rows, as
    training does. Deviation is the max absolute logit difference at targets.
    Sparse and dense repeats alternate and each path reports its fastest
    repeat, so one stall of a shared host cannot decide the speedup.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    rng = derive_rng(seed, STREAM_EVAL)
    params = init_params(config, rng)
    l = config.max_len
    ids = rng.integers(NUM_RESERVED, config.vocab_size, size=(batch_size, l))
    ids[:, 0] = CLS_ID
    examples = [PackedExample(ids=row, valid_len=l, domain_id=0) for row in ids]
    policy = MaskingPolicy(select_prob=mask_rate)
    batch = make_masked_batch(examples, policy, rng, config.vocab_size)
    ex_idx, positions, target_ids = batch.flat_targets()
    rows, slots = batch.output_rows()

    def run_eal() -> np.ndarray:
        fwd = model_ops.encode(batch.input_ids, batch.valid_lens, params, config, rows)
        logits, _ = model_ops.mlm_logits_eal(fwd, ex_idx, slots, params)
        loss_mlm(logits, target_ids)
        return logits

    def run_full() -> np.ndarray:
        fwd = model_ops.encode(batch.input_ids, batch.valid_lens, params, config)
        logits = model_ops.mlm_logits_full(fwd, params)
        gathered = logits[ex_idx, positions]
        loss_mlm(gathered, target_ids)
        return gathered

    eal_logits = run_eal()     # warmup + reference output
    full_logits = run_full()
    t_eal = t_full = float("inf")
    for _ in range(reps):
        t_eal = min(t_eal, _seconds(run_eal))
        t_full = min(t_full, _seconds(run_full))

    deviation = 0.0
    if eal_logits.size:
        deviation = float(np.max(np.abs(eal_logits - full_logits)))
    return {
        "eal_steps_per_s": 1.0 / t_eal,
        "full_steps_per_s": 1.0 / t_full,
        "speedup": t_full / t_eal,
        "max_deviation": deviation,
        "n_targets": float(batch.n_targets),
    }


def _seconds(run: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def format_bench_report(report: dict[str, float]) -> list[str]:
    return [f"{key}\t{report[key]:.6f}" for key in sorted(report)]
