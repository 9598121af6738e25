"""The benchmark's workloads: what each one feeds the program and how.

Every input is made from the workload seed alone, through the library's
public generators, so the same seed always gives the same bytes. The
program then sees only those files, through ``dombert.cli.main``.
See README.md in this directory for why each workload exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

TARGET = "c0_d0"
HELDOUT_DOCS = 5000
# The held-out documents come from another seed of the same spec.
HELDOUT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train" or "score"
    # Seconds one repeat took when the benchmark was written (2-vCPU Xeon).
    # A run makes round(--seconds / nominal_repeat_s) timed repeats, at
    # least two, so both sides of a comparison do the same work.
    nominal_repeat_s: float
    spec: dict = field(default_factory=dict)     # SyntheticSpec overrides
    ingest_max_len: int = 128
    train_args: tuple[str, ...] = ()
    accum: int = 1               # micro-batches per optimizer step


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-default", kind="train", nominal_repeat_s=7.5,
            ingest_max_len=128,
            train_args=("--batch", "8", "--accum", "4", "--tau", "0.13",
                        "--lambda", "0.9", "--m", "16",
                        "--checkpoint-interval", "50", "--epochs", "6"),
            accum=4,
        ),
        Workload(
            name="train-wide-pool", kind="train", nominal_repeat_s=6.0,
            spec={"n_clusters": 16, "domains_per_cluster": 8,
                  "unique_vocab": 40, "docs_per_domain": 60},
            ingest_max_len=32,
            train_args=("--tau", "0.65", "--lr", "1e-3", "--batch", "8",
                        "--accum", "1", "--checkpoint-interval", "5",
                        "--epochs", "15"),
            accum=1,
        ),
        Workload(name="score-heldout", kind="score", nominal_repeat_s=5.5),
    )
}


def repeats_for(workload: Workload, seconds: float) -> int:
    return max(2, round(seconds / workload.nominal_repeat_s))


def make_inputs(workload: Workload, seed: int, in_dir: Path) -> None:
    """Write the workload's inputs for one seed into in_dir."""
    from dombert import checkpoint, corpus, evalbench, model
    from dombert.nputil import STREAM_INIT, derive_rng

    in_dir.mkdir(parents=True, exist_ok=True)
    records, _ = evalbench.gen_synthetic_corpus(
        evalbench.SyntheticSpec(seed=seed, **workload.spec))
    if workload.kind == "train":
        evalbench.write_corpus(in_dir / "corpus.tsv", records)
        return
    # Scoring: the vocabulary of a default-spec training corpus, an
    # init-weight checkpoint (scoring cost does not depend on the weight
    # values) and target-domain documents drawn from another seed.
    vocab = corpus.build_vocab([text for _, text in records], 1, 8000)
    corpus.write_vocab(in_dir / "vocab.tsv", vocab)
    names = list(dict.fromkeys(name for name, _ in records))
    config = model.ModelConfig(vocab_size=vocab.size, n_domains=len(names),
                               max_len=128, d_domain=16)
    params = model.init_params(config, derive_rng(seed, STREAM_INIT))
    checkpoint.save_model(in_dir / "model.ckpt", config, params,
                          domain_names=names, target_index=names.index(TARGET))
    heldout, _ = evalbench.gen_synthetic_corpus(evalbench.SyntheticSpec(
        n_clusters=1, domains_per_cluster=1, docs_per_domain=HELDOUT_DOCS,
        seed=seed + HELDOUT_SEED_OFFSET))
    evalbench.write_corpus(in_dir / "heldout.tsv", heldout)


def program_argv(workload: Workload, seed: int, in_dir: Path, work_dir: Path) -> list[list[str]]:
    """The ``dombert`` commands one repeat runs, in order."""
    if workload.kind == "train":
        packed = str(work_dir / "ingested")
        return [
            ["ingest", "--corpus", str(in_dir / "corpus.tsv"), "--target", TARGET,
             "--max-len", str(workload.ingest_max_len), "--out", packed],
            ["train", "--packed", packed, *workload.train_args,
             "--seed", str(seed), "--out", str(work_dir / "run")],
        ]
    return [["eval", "--ckpt", str(in_dir / "model.ckpt"),
             "--heldout", str(in_dir / "heldout.tsv"),
             "--vocab", str(in_dir / "vocab.tsv"), "--mask-seed", str(seed)]]


def encode_flop(batch: int, length: int, d: int, d_ff: int, n_layers: int) -> int:
    """Floating-point operations of one encoder forward pass, counted from
    the matmul shapes (a multiply-add is two): the four d x d projections,
    the two attention products and the two feed-forward matmuls per layer."""
    per_layer = 2 * batch * length * (4 * d * d + 2 * length * d + 2 * d * d_ff)
    return n_layers * per_layer
