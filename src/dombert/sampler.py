"""Similarity-driven batch sampling over per-domain shuffled queues.

Each domain keeps a shuffled queue of its corpus row indices; a draw hands
out a PackedExample viewing the drawn row. Batch assembly draws domains
i.i.d. from a categorical distribution P', the exploration mixture
P' = (1 - explore) * P + explore / (n+1) of the uniform distribution and P,
where P_i is the temperature softmax of the cosine between domain i's
embedding row and the target's. explore = 0 is the plain softmax sampler;
a positive floor keeps every source domain drawn now and then even when the
softmax gives the target nearly all of the mass, as in EXP3 (Auer et al.
2002) and Online Data Mixing (Albalak et al. 2023). The state holds P', the
distribution draws actually come from, and importance_weights() turns it
into per-example loss weights. cos(d_t, d_t) = 1 guarantees the target keeps
the highest probability; exhausted queues are reshuffled and reused.
The sampler owns its checkpoint form (state_to_json / state_from_json), so a
resumed run draws exactly what the uninterrupted run would have drawn.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .checkpoint import SAMPLER_SECTION, json_int, section_fields
from .corpus import PackedCorpus, PackedExample
from .errors import CheckpointError, ConfigError
from .nputil import rng_from_state, softmax, unit_rows


@dataclass
class DomainQueue:
    rows: np.ndarray             # the domain's corpus row indices, ascending
    order: np.ndarray            # permutation of local indices into rows
    cursor: int = 0


@dataclass
class SamplerState:
    queues: list[DomainQueue]
    probs: np.ndarray            # P', the distribution batches are drawn from
    target: int
    tau: float
    rng: np.random.Generator
    corpus: PackedCorpus
    explore: float               # uniform share mixed into the softmax P


def cosines_to_target(dom_emb: np.ndarray, target: int) -> np.ndarray:
    """Cosine, in float64, of every embedding row against the target row.

    The target's own entry is pinned to exactly 1.0 and the rest clipped to
    [-1, 1], so rounding can never rank another domain above the target.
    """
    u, _ = unit_rows(dom_emb)
    cos = np.clip(u @ u[target], -1.0, 1.0)
    cos[target] = 1.0
    return cos


def domain_probabilities(dom_emb: np.ndarray, target: int, tau: float) -> np.ndarray:
    """P_i = exp(cos(d_t, d_i)/tau) / sum_j exp(cos(d_t, d_j)/tau)."""
    if tau <= 0.0:
        raise ConfigError("temperature must be > 0")
    return softmax(cosines_to_target(dom_emb, target) / tau)


def sampling_probabilities(
    dom_emb: np.ndarray, target: int, tau: float, explore: float,
) -> np.ndarray:
    """P' = (1 - explore) * P + explore / (n+1); equals P when explore = 0."""
    if not 0.0 <= explore < 1.0:
        raise ConfigError("explore must be in [0, 1)")
    probs = domain_probabilities(dom_emb, target, tau)
    return (1.0 - explore) * probs + explore / probs.shape[0]


def importance_weights(state: SamplerState, labels: np.ndarray) -> np.ndarray | None:
    """Loss weights 1 / ((n+1) * P'_label) for examples drawn from the current
    P', or None without exploration.

    A batch drawn from P' and weighted so has the expected domain-classification
    gradient of a uniform domain prior; the floor bounds every weight by
    1 / explore.
    """
    if state.explore == 0.0:
        return None
    return 1.0 / (state.probs.shape[0] * state.probs[labels])


def _domain_rows(corpus: PackedCorpus) -> list[np.ndarray]:
    """Each domain's corpus row indices, in ascending row order."""
    return [np.flatnonzero(corpus.domains == d) for d in range(corpus.table.n_plus_1)]


def build_sampler(
    corpus: PackedCorpus,
    dom_emb: np.ndarray,
    tau: float,
    rng: np.random.Generator,
    explore: float = 0.0,
) -> SamplerState:
    """Fresh queues (one shuffle per domain, in domain order) plus initial P'."""
    queues = [DomainQueue(rows=rows, order=rng.permutation(len(rows)))
              for rows in _domain_rows(corpus)]
    probs = sampling_probabilities(dom_emb, corpus.table.target_index, tau, explore)
    return SamplerState(
        queues=queues, probs=probs, target=corpus.table.target_index,
        tau=tau, rng=rng, corpus=corpus, explore=explore,
    )


def state_to_json(state: SamplerState) -> dict[str, Any]:
    """The checkpoint form of a sampler: plain JSON types only."""
    return {
        "target": state.target,
        "tau": state.tau,
        "explore": state.explore,
        "probs": state.probs.tolist(),
        "queues": [
            {"order": q.order.tolist(), "cursor": q.cursor} for q in state.queues
        ],
        "rng": state.rng.bit_generator.state,
    }


def state_from_json(raw: dict[str, Any], corpus: PackedCorpus) -> SamplerState:
    """Rebuild a sampler saved by state_to_json over the same corpus, or raise CheckpointError."""
    by_domain = _domain_rows(corpus)
    with section_fields(SAMPLER_SECTION):
        target = json_int(raw["target"], "sampler target")
        if target != corpus.table.target_index:
            raise CheckpointError(f"checkpoint targets domain {target}, "
                                  f"corpus targets {corpus.table.target_index}")
        if len(raw["queues"]) != len(by_domain):
            raise CheckpointError("sampler state disagrees with the corpus domains")
        queues = []
        for i, q in enumerate(raw["queues"]):
            order = [json_int(k, f"queue {i} order entry") for k in q["order"]]
            n = len(by_domain[i])
            if sorted(order) != list(range(n)):
                raise CheckpointError(f"queue {i} order is not a permutation of its {n} examples")
            cursor = json_int(q["cursor"], f"queue {i} cursor")
            if not 0 <= cursor <= n:
                raise CheckpointError(f"queue {i} cursor {cursor} is outside [0, {n}]")
            queues.append(DomainQueue(rows=by_domain[i], order=np.array(order, np.int64),
                                      cursor=cursor))
        probs = np.asarray(raw["probs"], dtype=np.float64)
        if not (probs.shape == (len(by_domain),) and np.all(probs >= 0.0)
                and abs(probs.sum() - 1.0) <= 1e-9):
            raise CheckpointError("sampler probs are not a distribution over the "
                                  f"{len(by_domain)} domains")
        return SamplerState(
            queues=queues, probs=probs,
            target=target, tau=float(raw["tau"]),
            rng=rng_from_state(raw["rng"]), corpus=corpus,
            explore=float(raw["explore"]),
        )


def next_example(state: SamplerState, domain_id: int) -> PackedExample:
    """Pop the next row of one domain, as an example viewing the corpus row;
    reshuffle when exhausted."""
    queue = state.queues[domain_id]
    if queue.cursor >= queue.order.shape[0]:
        queue.order = state.rng.permutation(queue.order.shape[0])
        queue.cursor = 0
    row = queue.rows[queue.order[queue.cursor]]
    queue.cursor += 1
    corpus = state.corpus
    return PackedExample(corpus.ids[row], int(corpus.valid_lens[row]), int(corpus.domains[row]))


def sample_batch(state: SamplerState, batch_size: int) -> list[PackedExample]:
    """batch_size i.i.d. domain draws from Cat(P'), one queue pop per draw."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    draws = state.rng.choice(len(state.queues), size=batch_size, p=state.probs)
    return [next_example(state, int(d)) for d in draws]


def refresh_probabilities(state: SamplerState, dom_emb: np.ndarray) -> None:
    """Recompute P' from the current embeddings; queues are left untouched."""
    state.probs = sampling_probabilities(dom_emb, state.target, state.tau,
                                         state.explore)


def report_top_domains(
    dom_emb: np.ndarray,
    target: int,
    k: int,
    names: list[str],
) -> list[tuple[str, float]]:
    """Top-k source domains by cosine to the target, ties broken by name."""
    n_sources = dom_emb.shape[0] - 1
    if not 0 <= k <= n_sources:
        raise ConfigError(f"k={k} must be in 0..{n_sources}, the number of source domains")
    cos = cosines_to_target(dom_emb, target)
    ranked = sorted(
        ((names[i], float(cos[i])) for i in range(len(names)) if i != target),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]


def format_top_domains(report: list[tuple[str, float]]) -> list[str]:
    """Serialized report lines: ``rank<TAB>domain<TAB>cosine`` (6 decimals)."""
    return [
        f"{rank}\t{name}\t{cos:.6f}"
        for rank, (name, cos) in enumerate(report, start=1)
    ]
