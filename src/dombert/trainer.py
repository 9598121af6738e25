"""Training orchestration.

One optimizer step = accum_steps micro-batches sampled from the current
categorical distribution, masked, pushed through forward/backward with
whole-step loss normalization, then a single Adamax update followed by a
probability refresh. An epoch is defined as processing as many examples as
the target domain holds, regardless of which domains they came from.

With explore > 0 (the default) batches come from the exploration mixture P'
of the sampler, and each example's domain-classification loss is weighted by
1 / ((n+1) * P'_label) for the P' it was drawn from, so the classifier learns
domain similarity rather than the sampling prior. explore = 0 is the paper's
sampler with the unweighted loss; target_only runs never weight.
"""
from __future__ import annotations

import copy
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
from .model import ModelConfig, Params, init_params, zero_grads
from .nputil import STREAM_INIT, STREAM_MASKING, STREAM_SAMPLER, derive_rng, rng_from_state
from .objective import LossBreakdown, total_loss
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
        if self.tau <= 0.0:
            raise ConfigError("tau must be > 0")
        if not 0.0 <= self.explore < 1.0:
            raise ConfigError("explore must be in [0, 1)")
        if self.lr <= 0.0:
            raise ConfigError("lr must be > 0")
        if min(self.micro_batch, self.accum_steps) < 1:
            raise ConfigError("micro_batch and accum_steps must be >= 1")
        if min(self.epochs, self.checkpoint_interval) < 0:
            raise ConfigError("epochs and checkpoint_interval must be >= 0")

    @property
    def effective_batch(self) -> int:
        return self.micro_batch * self.accum_steps


@dataclass
class AdamaxState:
    m: Params
    u: Params
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adamax(config: ModelConfig) -> AdamaxState:
    return AdamaxState(m=zero_grads(config), u=zero_grads(config))


def adamax_step(params: Params, grads: Params, state: AdamaxState, lr: float) -> None:
    """In-place Adamax update.

    m <- b1*m + (1-b1)*g; u <- max(b2*u, |g|); theta -= lr/(1-b1^t) * m/(u+eps).
    Non-finite gradients abort before anything changes; nothing is clipped
    silently.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(
                f"non-finite gradient in {name!r} at optimizer step {state.step + 1}"
            )
    state.step += 1
    scale = lr / (1.0 - state.beta1 ** state.step)
    for name, g in grads.items():
        # `step` is the one scratch array: (1-b1)*g, then |g|, then the
        # update. Each product keeps the docstring's operands, so the bytes do too.
        m = state.m[name]
        m *= state.beta1
        step = g * (1.0 - state.beta1)
        m += step
        u = state.u[name]
        u *= state.beta2
        np.maximum(u, np.abs(g, out=step), out=u)
        np.multiply(m, scale, out=step)
        step /= u + state.eps
        params[name] -= step


@dataclass
class StepRecord:
    step: int
    epoch: int
    breakdown: LossBreakdown
    p_target: float
    p_target_is_max: bool
    cls_w_grad_norm: float
    cls_b_grad_norm: float


@dataclass
class TrainResult:
    params: Params
    model_config: ModelConfig
    records: list[StepRecord]


def format_log_line(rec: StepRecord) -> str:
    bd = rec.breakdown
    return (
        f"{rec.step}\t{rec.epoch}\t{bd.total:.6f}\t{bd.mlm:.6f}"
        f"\t{bd.cls:.6f}\t{bd.delta:.6f}\t{rec.p_target:.6f}"
    )


def _one_hot_probs(n: int, target: int) -> np.ndarray:
    probs = np.zeros(n, dtype=np.float64)
    probs[target] = 1.0
    return probs


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
    if mc.max_len < corpus.max_len:
        raise ConfigError("model max_len is smaller than the packed rows")
    t = table.target_index
    target_count = table.counts[t]
    if target_count < 1:
        raise ConfigError("target domain has no packed examples")

    spe = steps_per_epoch(target_count, tc.effective_batch)
    total_steps = tc.epochs * spe
    explore = 0.0 if tc.target_only else tc.explore
    # a resume must match every field but the run length and checkpoint cadence
    run_fields = {name: value for name, value in dataclasses.asdict(tc).items()
                  if name not in ("epochs", "checkpoint_interval")}

    if resume is None:
        params = init_params(mc, derive_rng(tc.seed, STREAM_INIT))
        opt = init_adamax(mc)
        state = build_sampler(corpus, params["dom_emb"], tc.tau,
                              derive_rng(tc.seed, STREAM_SAMPLER), explore)
        if tc.target_only:
            state.probs = _one_hot_probs(table.n_plus_1, t)
        mask_rng = derive_rng(tc.seed, STREAM_MASKING)
        start_step = 1
    else:
        if resume.adamax is None or resume.sampler is None or resume.trainer is None:
            raise CheckpointError(
                "checkpoint has no optimizer/sampler state; cannot resume"
            )
        theirs = {**dataclasses.asdict(resume.config), **resume.trainer.get("config", {})}
        for name, value in {**dataclasses.asdict(mc), **run_fields}.items():
            if theirs.get(name) != value:
                raise ConfigError(f"checkpoint {name}={theirs.get(name)} "
                                  f"differs from this run's {name}={value}")
        # Copies: the run updates them in place, and the bundle may resume again.
        params = copy.deepcopy(resume.params)
        opt = copy.deepcopy(AdamaxState(**resume.adamax))
        state = state_from_json(resume.sampler, corpus)
        mask_rng = rng_from_state(resume.trainer["mask_rng"])
        start_step = int(resume.trainer["next_step"])

    out_path = Path(out_dir) if out_dir is not None else None
    log_mode = "w"
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        if resume is not None and (out_path / "log.tsv").exists():
            _cut_log(out_path / "log.tsv", start_step)
            log_mode = "a"

    report_k = min(REPORT_K, table.n_plus_1 - 1)

    def top_domains() -> list[str]:
        report = report_top_domains(params["dom_emb"], t, report_k, table.names)
        return [row + "\n" for row in format_top_domains(report)]

    records: list[StepRecord] = []
    with (open(out_path / "log.tsv", log_mode, encoding="utf-8")
          if out_path is not None else nullcontext()) as log:
        if log_mode == "w" and log is not None and manifest is not None:
            log.write(manifest + "\n")

        for step in range(start_step, total_steps + 1):
            epoch = (step - 1) // spe + 1
            p_target = float(state.probs[t])
            p_is_max = bool(state.probs[t] >= state.probs.max())

            micro_batches = [sample_batch(state, tc.micro_batch)
                             for _ in range(tc.accum_steps)]
            masked = [make_masked_batch(mb, tc.masking, mask_rng, mc.vocab_size)
                      for mb in micro_batches]
            t_tot = sum(mb.n_targets for mb in masked)
            b_tot = tc.effective_batch

            grads = zero_grads(mc)
            mlm_sum = 0.0
            cls_sum = 0.0
            delta = 0.0
            for mb in masked:
                _, cache = objective.forward(
                    mb, params, mc, tc.lam, importance_weights(state, mb.domain_labels))
                g = objective.backward(
                    mb, cache, params, mc, tc.lam,
                    mlm_divisor=max(t_tot, 1), cls_divisor=b_tot,
                    include_regularizer=False,
                )
                for name in grads:
                    grads[name] += g[name]
                mlm_sum += cache.mlm_ce_sum
                cls_sum += cache.cls_ce_sum
                delta = cache.delta
            grads["dom_emb"] += objective.regularizer_grad(params["dom_emb"])

            w_norm = float(np.linalg.norm(grads["cls_w"]))
            b_norm = float(np.linalg.norm(grads["cls_b"]))
            adamax_step(params, grads, opt, tc.lr)

            if not tc.target_only:
                refresh_probabilities(state, params["dom_emb"])

            breakdown = total_loss(mlm_sum / max(t_tot, 1), cls_sum / b_tot,
                                   delta, tc.lam)
            rec = StepRecord(
                step=step, epoch=epoch, breakdown=breakdown,
                p_target=p_target, p_target_is_max=p_is_max,
                cls_w_grad_norm=w_norm, cls_b_grad_norm=b_norm,
            )
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
                save_training_checkpoint(
                    out_path / f"ckpt_step{step:06d}.ckpt",
                    mc, params, opt, state,
                    {"next_step": step + 1,
                     "mask_rng": mask_rng.bit_generator.state,
                     "config": run_fields},
                    table,
                )

    if out_path is not None:
        checkpoint.save_model(out_path / "final.ckpt", mc, params,
                              domain_names=list(table.names), target_index=t)
        with checkpoint.open_replacing(out_path / "top_domains.tsv", "w",
                                       encoding="utf-8") as fh:
            fh.writelines(top_domains())
    return TrainResult(params=params, model_config=mc, records=records)


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


def save_training_checkpoint(
    path: str | Path,
    model_config: ModelConfig,
    params: Params,
    opt: AdamaxState,
    state: SamplerState,
    trainer_meta: dict[str, Any],
    table: DomainTable,
) -> None:
    checkpoint.save_model(
        path, model_config, params,
        domain_names=list(table.names),
        target_index=table.target_index,
        adamax=vars(opt),
        sampler=state_to_json(state),
        trainer=trainer_meta,
    )
