"""Training orchestration.

One optimizer step = accum_steps micro-batches sampled from the current
categorical distribution and masked; objective.step gives their loss and
gradient as one combined batch, then a single Adamax update is followed by
a probability refresh. An epoch is defined as processing as many examples as
the target domain holds, regardless of which domains they came from.

With explore > 0 (the default) batches come from the exploration mixture P'
of the sampler, and each example's domain-classification loss is weighted by
1 / ((n+1) * P'_label) for the P' it was drawn from, so the classifier learns
domain similarity rather than the sampling prior. explore = 0 is the paper's
sampler with the unweighted loss; target_only runs never weight.
"""
from __future__ import annotations

import dataclasses
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import checkpoint, objective
from .corpus import DomainTable, PackedCorpus
from .errors import CheckpointError, ConfigError, NonFiniteGradientError
from .masking import MaskingPolicy, make_masked_batch
from .model import FlatParams, ModelConfig, Params, flat_copy, init_params, zero_grads
from .nputil import (STREAM_INIT, STREAM_MASKING, STREAM_SAMPLER, derive_rng, open_replacing,
                     rng_from_state)
from .objective import LossBreakdown
from .sampler import (
    SamplerState,
    build_sampler,
    format_top_domains,
    importance_weights,
    refresh_probabilities,
    report_top_domains,
    sample_batch,
    state_from_json,
    state_to_json,
)

REPORT_K = 20


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.9
    tau: float = 0.13
    explore: float = 0.2         # uniform share of the sampling distribution
    lr: float = 5e-5
    micro_batch: int = 8
    accum_steps: int = 4
    epochs: int = 1
    seed: int = 0
    checkpoint_interval: int = 50
    target_only: bool = False    # pin P to the target domain (comparison runs)
    masking: MaskingPolicy = field(default_factory=MaskingPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lam must be in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError("tau must be finite and > 0")
        if not 0.0 <= self.explore < 1.0:
            raise ConfigError("explore must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError("lr must be finite and > 0")
        if min(self.micro_batch, self.accum_steps) < 1:
            raise ConfigError("micro_batch and accum_steps must be >= 1")
        if min(self.epochs, self.checkpoint_interval) < 0:
            raise ConfigError("epochs and checkpoint_interval must be >= 0")

    @property
    def effective_batch(self) -> int:
        return self.micro_batch * self.accum_steps

    @property
    def sampler_explore(self) -> float:
        """The sampler's uniform share: none in a target-only run."""
        return 0.0 if self.target_only else self.explore

    def run_fields(self) -> dict[str, Any]:
        """The fields a resume must match: all but epochs and checkpoint_interval."""
        return {name: value for name, value in dataclasses.asdict(self).items()
                if name not in ("epochs", "checkpoint_interval")}


# Adamax's settings in every run; a resume refuses a checkpoint of others.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ADAMAX_SETTINGS = {"beta1": BETA1, "beta2": BETA2, "eps": EPS}


@dataclass
class AdamaxState:
    m: FlatParams
    u: FlatParams
    step: int = 0


# Bytes of each array that one block of the Adamax sweep touches: small
# enough that a block's gradient, moments, parameters and two scratch arrays
# stay in cache across its numpy calls.
ADAMAX_BLOCK_BYTES = 256 * 1024


def adamax_step(params: FlatParams, grads: FlatParams, state: AdamaxState, lr: float) -> None:
    """In-place Adamax update.

    m <- b1*m + (1-b1)*g; u <- max(b2*u, |g|); theta -= lr/(1-b1^t) * m/(u+eps).
    params, grads, state.m and state.u are FlatParams with the same specs and
    dtype (ValueError otherwise); the update is elementwise, so it runs as one
    sweep over their flat buffers in blocks of ADAMAX_BLOCK_BYTES per array.
    Non-finite gradients abort before anything changes; nothing is clipped
    silently.
    """
    mappings = (grads, params, state.m, state.u)
    if not all(isinstance(d, FlatParams) and d.specs == grads.specs
               and d.flat.dtype == grads.flat.dtype for d in mappings):
        raise ValueError("parameters, gradients and moments differ in layout")
    g, theta, m, u = (d.flat for d in mappings)
    block = ADAMAX_BLOCK_BYTES // g.itemsize
    # The two scratch arrays: (1-b1)*g, then |g|, then the update; and u+eps.
    # Each product keeps the docstring's operands, so the bytes do too.
    scratch = np.empty(min(block, g.size), g.dtype)
    denom = np.empty_like(scratch)
    starts = range(0, g.size, block)
    # max propagates NaN and inf, so one finite max per block clears it.
    if not all(np.isfinite(np.abs(g[i:i + block], out=scratch[:g.size - i]).max())
               for i in starts):
        name = next(name for name, arr in grads.items() if not np.isfinite(arr).all())
        raise NonFiniteGradientError(
            f"non-finite gradient in {name!r} at optimizer step {state.step + 1}"
        )
    state.step += 1
    scale = lr / (1.0 - BETA1 ** state.step)
    for i in starts:
        part = slice(i, i + block)
        gb, mb, ub = g[part], m[part], u[part]
        step, den = scratch[:len(gb)], denom[:len(gb)]
        mb *= BETA1
        np.multiply(gb, 1.0 - BETA1, out=step)
        mb += step
        ub *= BETA2
        np.maximum(ub, np.abs(gb, out=step), out=ub)
        np.multiply(mb, scale, out=step)
        np.add(ub, EPS, out=den)
        step /= den
        theta[part] -= step


@dataclass
class RunState:
    """Everything a training checkpoint saves and a resume restores."""

    params: FlatParams
    opt: AdamaxState
    sampler: SamplerState
    mask_rng: np.random.Generator

    @property
    def next_step(self) -> int:
        return self.opt.step + 1

    @classmethod
    def fresh(cls, tc: TrainConfig, corpus: PackedCorpus, mc: ModelConfig) -> RunState:
        """A new run's state, every generator derived from tc.seed."""
        params = init_params(mc, derive_rng(tc.seed, STREAM_INIT))
        opt = AdamaxState(m=zero_grads(mc), u=zero_grads(mc))
        sampler = build_sampler(corpus, params["dom_emb"], tc.tau,
                                derive_rng(tc.seed, STREAM_SAMPLER), tc.sampler_explore)
        if tc.target_only:
            sampler.probs = np.eye(corpus.table.n_plus_1)[corpus.table.target_index]
        return cls(params, opt, sampler, derive_rng(tc.seed, STREAM_MASKING))

    @classmethod
    def from_bundle(cls, bundle: checkpoint.CheckpointBundle, tc: TrainConfig,
                    corpus: PackedCorpus, mc: ModelConfig) -> RunState:
        """The state in copies (the bundle may resume again), once every resume check passes."""
        if bundle.adamax is None or bundle.sampler is None or bundle.trainer is None:
            raise CheckpointError("checkpoint has no optimizer/sampler state; cannot resume")
        table = corpus.table
        if (bundle.domain_names, bundle.target_index) != (table.names, table.target_index):
            raise CheckpointError(f"checkpoint's domains (target {bundle.target_index}) are "
                                  f"not the corpus's (target {table.target_index})")
        with checkpoint.section_fields(checkpoint.TRAINER_SECTION):
            theirs = {**dataclasses.asdict(bundle.config), **bundle.trainer.get("config", {})}
            next_step = checkpoint.json_int(bundle.trainer["next_step"], "next_step")
            mask_rng = rng_from_state(bundle.trainer["mask_rng"])
        for name, value in {**dataclasses.asdict(mc), **tc.run_fields()}.items():
            if theirs.get(name) != value:
                raise ConfigError(f"checkpoint {name}={theirs.get(name)} "
                                  f"differs from this run's {name}={value}")
        if bundle.adamax["step"] != next_step - 1:
            raise CheckpointError(f"checkpoint's Adamax step {bundle.adamax['step']} is not "
                                  f"the step {next_step - 1} before its next step")
        sampler = state_from_json(bundle.sampler, corpus)
        if (sampler.tau, sampler.explore) != (tc.tau, tc.sampler_explore):
            raise CheckpointError(f"checkpoint's sampler has tau={sampler.tau}, explore="
                                  f"{sampler.explore}; this run {tc.tau}, {tc.sampler_explore}")
        settings = {key: bundle.adamax[key] for key in ADAMAX_SETTINGS}
        if settings != ADAMAX_SETTINGS:
            raise CheckpointError(f"checkpoint's Adamax settings {settings} are not "
                                  f"this program's {ADAMAX_SETTINGS}")
        opt = AdamaxState(flat_copy(bundle.adamax["m"]), flat_copy(bundle.adamax["u"]),
                          bundle.adamax["step"])
        return cls(flat_copy(bundle.params), opt, sampler, mask_rng)


@dataclass
class StepRecord:
    step: int
    epoch: int
    breakdown: LossBreakdown
    p_target: float


@dataclass
class TrainResult:
    params: Params
    records: list[StepRecord]


def format_log_line(rec: StepRecord) -> str:
    bd = rec.breakdown
    return (
        f"{rec.step}\t{rec.epoch}\t{bd.total:.6f}\t{bd.mlm:.6f}"
        f"\t{bd.cls:.6f}\t{bd.delta:.6f}\t{rec.p_target:.6f}"
    )


def steps_per_epoch(target_count: int, effective_batch: int) -> int:
    return max(1, math.ceil(target_count / effective_batch))


def train(
    train_config: TrainConfig,
    corpus: PackedCorpus,
    model_config: ModelConfig,
    out_dir: str | Path | None = None,
    resume: checkpoint.CheckpointBundle | None = None,
    manifest: str | None = None,
) -> TrainResult:
    """Run domain-oriented training; fully deterministic given the seed.

    Without out_dir nothing is written. With it, train is the one writer of
    the run directory: log.tsv starts with the manifest line (if given) and
    gets each step's line as soon as the step ends, with a top-k relevance
    report and a resumable ckpt_step*.ckpt every checkpoint_interval steps;
    final.ckpt and top_domains.tsv follow the last step. Every file but the
    log is renamed into place once complete. A resume into a directory that
    holds a log keeps its lines before the checkpoint's next step, manifest
    included, and appends to them.
    """
    tc = train_config
    mc = model_config
    table = corpus.table
    if mc.n_domains != table.n_plus_1:
        raise ConfigError("model n_domains disagrees with the corpus domain table")
    if mc.vocab_size != corpus.vocab_size:
        raise ConfigError("model vocab_size disagrees with the packed corpus")
    if mc.max_len < corpus.ids.shape[1]:
        raise ConfigError("model max_len is smaller than the packed rows")
    t = table.target_index
    spe = steps_per_epoch(table.counts[t], tc.effective_batch)
    total_steps = tc.epochs * spe
    run = (RunState.fresh(tc, corpus, mc) if resume is None
           else RunState.from_bundle(resume, tc, corpus, mc))

    out_path = Path(out_dir) if out_dir is not None else None
    log_mode = "w"
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        if resume is not None and (out_path / "log.tsv").exists():
            _cut_log(out_path / "log.tsv", run.next_step)
            log_mode = "a"

    report_k = min(REPORT_K, table.n_plus_1 - 1)

    def top_domains() -> list[str]:
        report = report_top_domains(run.params["dom_emb"], t, report_k, table.names)
        return [row + "\n" for row in format_top_domains(report)]

    records: list[StepRecord] = []
    with (open(out_path / "log.tsv", log_mode, encoding="utf-8")
          if out_path is not None else nullcontext()) as log:
        if log_mode == "w" and log is not None and manifest is not None:
            log.write(manifest + "\n")

        for step in range(run.next_step, total_steps + 1):
            epoch = (step - 1) // spe + 1
            p_target = float(run.sampler.probs[t])

            micro_batches = [sample_batch(run.sampler, tc.micro_batch)
                             for _ in range(tc.accum_steps)]
            masked = [make_masked_batch(mb, tc.masking, run.mask_rng, mc.vocab_size)
                      for mb in micro_batches]
            weights = [importance_weights(run.sampler, mb.domain_labels) for mb in masked]
            breakdown, grads = objective.step(masked, weights, run.params, mc, tc.lam)
            adamax_step(run.params, grads, run.opt, tc.lr)
            del grads  # else it outlives the next step's backward, which makes its own

            if not tc.target_only:
                refresh_probabilities(run.sampler, run.params["dom_emb"])

            rec = StepRecord(step=step, epoch=epoch, breakdown=breakdown, p_target=p_target)
            records.append(rec)
            if log is None:
                continue
            log.write(format_log_line(rec) + "\n")
            at_checkpoint = tc.checkpoint_interval > 0 and step % tc.checkpoint_interval == 0
            if at_checkpoint and report_k > 0:
                log.write(f"# top-{report_k} relevant domains after step {step}\n")
                log.writelines(top_domains())
            log.flush()
            if at_checkpoint:
                save_training_checkpoint(out_path / f"ckpt_step{step:06d}.ckpt",
                                         mc, tc, run, table)

    if out_path is not None:
        checkpoint.save_model(out_path / "final.ckpt", mc, run.params,
                              domain_names=list(table.names), target_index=t)
        with open_replacing(out_path / "top_domains.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(top_domains())
    return TrainResult(params=run.params, records=records)


def _cut_log(path: Path, next_step: int) -> None:
    """Truncate a run's log.tsv just before step next_step's line.

    A step line has format_log_line's 7 fields; the manifest and top-k
    report lines have fewer. The kept lines must end with step
    next_step - 1 (or its report), else the log belongs to another run.
    """
    offset = 0
    last = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # cut off mid-line by a crash
            fields = line.split(b"\t")
            if len(fields) == 7 and fields[0].isdigit():
                if int(fields[0]) >= next_step:
                    break
                last = int(fields[0])
            offset += len(line)
    if last != next_step - 1:
        raise CheckpointError(f"{path} ends at step {last}, not at step {next_step - 1}"
                              " where the checkpoint resumes")
    os.truncate(path, offset)


def save_training_checkpoint(path: str | Path, model_config: ModelConfig,
                             train_config: TrainConfig, run: RunState, table: DomainTable) -> None:
    """The one writer of a resumable checkpoint of run."""
    checkpoint.save_model(
        path, model_config, run.params,
        domain_names=list(table.names), target_index=table.target_index,
        adamax={**vars(run.opt), **ADAMAX_SETTINGS}, sampler=state_to_json(run.sampler),
        trainer={"next_step": run.next_step, "mask_rng": run.mask_rng.bit_generator.state,
                 "config": train_config.run_fields()},
    )
