"""One repeat of one workload, in a fresh process.

    python3 perfbench/repeat.py --workload NAME --seed N --in-dir DIR \
        --work-dir DIR --trace 0|1 --result FILE

Runs the workload's ``dombert`` commands through ``dombert.cli.main`` and
writes a JSON result: set-up time, the wall time and non-pad token count of
every operation (an optimizer step, or a scored batch), peak resident
memory and the commands' standard output. Untraced, it takes one timestamp
per operation and counts tokens, nothing more. Traced, it also records a
span around each call into a layer's public function and the computed
counts the per-layer metrics need.
"""
from __future__ import annotations

import time

START = time.perf_counter()      # set-up time counts the program's imports

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, encode_flop, program_argv  # noqa: E402

from dombert import (  # noqa: E402
    checkpoint, cli, corpus, evalbench, masking, model, objective, trainer,
)

STEP_SPAN = "trainer.step"


class OpClock:
    """Operation start timestamps, token counts and the end of the last one.

    In training an operation starts at the first micro-batch draw of an
    optimizer step, so a step's time runs to the next step's first draw and
    includes its update, refresh, logging and any checkpoint.
    """

    def __init__(self, tracer: Tracer | None, counts: dict[str, list]):
        self.tracer = tracer
        self.counts = counts
        self.starts: list[float] = []
        self.tokens: list[int] = []
        self.end: float | None = None
        self._step_span = -1
        self._draws = 0
        self._drawn: set[int] = set()

    def _start_op(self) -> None:
        if self.tracer is not None:
            self._close_step()
        self.starts.append(time.perf_counter())
        self.tokens.append(0)

    def _close_step(self) -> None:
        if self._step_span >= 0:
            self.tracer.close(self._step_span)
            self._step_span = -1
            self.counts["sampler.domains_drawn"].append(len(self._drawn))

    def finish(self) -> None:
        self.end = time.perf_counter()
        if self.tracer is not None:
            self._close_step()

    def wrap_sample_batch(self, accum: int) -> None:
        inner = trainer.sample_batch

        def sample_batch(state, batch_size):
            if self._draws % accum == 0:
                self._start_op()
                if self.tracer is not None:
                    self._step_span = self.tracer.open(STEP_SPAN)
                    self._drawn = set()
                    p = state.probs[state.probs > 0]
                    self.counts["sampler.eff_domains"].append(
                        math.exp(-float((p * np.log(p)).sum())))
            self._draws += 1
            batch = inner(state, batch_size)
            self.tokens[-1] += sum(ex.valid_len for ex in batch)
            if self.tracer is not None:
                self._drawn.update(ex.domain_id for ex in batch)
            return batch

        trainer.sample_batch = sample_batch

    def wrap_scored_batch(self) -> None:
        inner = evalbench.make_masked_batch

        def make_masked_batch(*args, **kwargs):
            self._start_op()
            batch = inner(*args, **kwargs)
            self.tokens[-1] += int(batch.valid_lens.sum())
            return batch

        evalbench.make_masked_batch = make_masked_batch

    def wrap_end(self, owner: object, attr: str) -> None:
        inner = getattr(owner, attr)

        def ended(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.finish()
            return result

        setattr(owner, attr, ended)


def trace_layers(tracer: Tracer, counts: dict) -> None:
    """Span every layer call the per-layer metrics need, where its caller
    looks it up, and record the computed counts."""
    spans = [
        (corpus, "read_packed", "corpus.read_packed"),
        (corpus, "pack_corpus", "corpus.tokenize_pack"),
        (evalbench, "tokenize", "corpus.tokenize_pack"),
        (evalbench, "pack_domain", "corpus.tokenize_pack"),
        (trainer, "sample_batch", "sampler.sample_batch"),
        (trainer, "refresh_probabilities", "sampler.refresh"),
        (trainer, "make_masked_batch", "masking.make_masked_batch"),
        (evalbench, "make_masked_batch", "masking.make_masked_batch"),
        (masking.MaskedBatch, "flat_targets", "masking.flat_targets"),
        (model, "encode", "model.encode"),
        (model, "encode_backward", "model.encode_backward"),
        (model, "mlm_logits_eal", "model.mlm_logits_eal"),
        (model, "mlm_head_backward", "model.mlm_head_backward"),
        (model, "domain_logits", "model.domain_logits"),
        (model, "domain_head_backward", "model.domain_head_backward"),
        (objective, "forward", "objective.forward"),
        (objective, "backward", "objective.backward"),
        (objective, "regularizer_grad", "objective.regularizer_grad"),
        (trainer, "adamax_step", "trainer.adamax"),
        (trainer, "save_training_checkpoint", "checkpoint.save"),
        (checkpoint, "save_model", "checkpoint.save"),
        (checkpoint, "load", "checkpoint.load"),
        (evalbench, "eval_pseudo_perplexity", "evalbench.score"),
    ]
    for owner, attr, name in spans:
        tracer.wrap(owner, attr, name)

    encode = model.encode

    def counted_encode(input_ids, valid_lens, params, config, *rest):
        b, l = input_ids.shape
        counts["model.encode_flop"].append(
            encode_flop(b, l, config.d_hidden, config.d_ff, config.n_layers))
        counts["model.valid_tokens"].append(int(valid_lens.sum()))
        counts["model.slots"].append(b * l)
        return encode(input_ids, valid_lens, params, config, *rest)

    model.encode = counted_encode

    for owner in (trainer, evalbench):
        masked = owner.make_masked_batch

        def counted_masking(*args, _inner=masked, **kwargs):
            batch = _inner(*args, **kwargs)
            counts["masking.targets"].append(batch.n_targets)
            return batch

        owner.make_masked_batch = counted_masking


def run_command(argv: list[str], out: io.StringIO) -> None:
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"dombert {argv[0]} exited with status {status}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--in-dir", required=True, type=Path)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    counts: dict[str, list] = {
        key: [] for key in ("sampler.domains_drawn", "sampler.eff_domains",
                            "model.encode_flop", "model.valid_tokens",
                            "model.slots", "masking.targets")
    }
    if tracer is not None:
        trace_layers(tracer, counts)
    clock = OpClock(tracer, counts)
    if wl.kind == "train":
        clock.wrap_sample_batch(wl.accum)
        clock.wrap_end(trainer, "train")
    else:
        clock.wrap_scored_batch()
        clock.wrap_end(evalbench, "eval_pseudo_perplexity")

    out = io.StringIO()
    for argv in program_argv(wl, args.seed, args.in_dir, args.work_dir):
        if argv[0] == "ingest" and tracer is not None:
            index = tracer.open("corpus.ingest")
            run_command(argv, out)
            tracer.close(index)
        else:
            run_command(argv, out)

    if not clock.starts or clock.end is None:
        raise SystemExit("the workload ran no operation")
    bounds = clock.starts + [clock.end]
    if wl.kind == "train":
        ckpt_files = sorted((args.work_dir / "run").glob("*.ckpt"))
    else:
        ckpt_files = [args.in_dir / "model.ckpt"]
    result = {
        "setup_s": clock.starts[0] - START,
        "op_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "op_tokens": clock.tokens,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": out.getvalue(),
        "checkpoint_bytes": sum(p.stat().st_size for p in ckpt_files),
    }
    if tracer is not None:
        result["spans"] = summarize(tracer.spans)
        result["counts"] = counts
        result["checkpoint_stall_s"] = sum(
            end - start for name, start, end, parent in tracer.spans
            if name == "checkpoint.save" and parent >= 0
            and tracer.spans[parent][0] == STEP_SPAN)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
