"""dombert training and scoring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dombert source tree. NAME is one of the workloads in
workloads.py, or ``all``. The benchmark writes the workload's inputs from
the seed, then runs the workload in fresh processes (repeat.py) and checks
every repeat's outputs. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced repeats and
reports the per-layer metrics and the tracing overhead. Each metric is
printed by name with its unit; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is 1 when a repeat fails or its outputs differ from another repeat's, and 2
when there is no program to run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import nearest_rank, tail_percentile
from workloads import WORKLOADS, make_inputs, repeats_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")            # relative to ROOT, the working directory
RUN_BUDGET_S = 170.0
TRAIN_ARTIFACTS = ("log.tsv", "final.ckpt", "top_domains.tsv")

END_TO_END = {
    "tokens_per_s": "tokens/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "loss_final": "nats",
    "pseudo_ppl": "ppl",
}
PER_LAYER = {
    "corpus.ingest_s": "s",
    "corpus.read_packed_s": "s",
    "corpus.tokenize_pack_s": "s",
    "sampler.sample_batch_ms": "ms",
    "sampler.refresh_ms": "ms",
    "sampler.domains_drawn": "count",
    "sampler.eff_domains_mean": "count",
    "masking.make_masked_batch_ms": "ms",
    "masking.flat_targets_ms": "ms",
    "masking.targets_per_batch": "count",
    "model.encode_ms": "ms",
    "model.encode_backward_ms": "ms",
    "model.mlm_logits_eal_ms": "ms",
    "model.mlm_head_backward_ms": "ms",
    "model.domain_head_ms": "ms",
    "model.encode_gflop": "GFLOP",
    "model.encode_gflops_per_s": "GFLOP/s",
    "model.valid_token_share": "share",
    "objective.forward_self_ms": "ms",
    "objective.backward_self_ms": "ms",
    "objective.regularizer_grad_ms": "ms",
    "trainer.adamax_ms": "ms",
    "trainer.step_self_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "checkpoint.stall_share": "share",
    "checkpoint.load_ms": "ms",
    "evalbench.score_self_ms": "ms",
    "trace.untraced_tokens_per_s": "tokens/s",
    "trace.traced_tokens_per_s": "tokens/s",
    "trace.overhead_share": "share",
}
# Per-layer values computed from shapes and file sizes rather than timed.
COMPUTED = ("model.encode_gflop", "checkpoint.bytes", "model.valid_token_share")


class CheckFailed(Exception):
    """A repeat's outputs are wrong or differ from another repeat's."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Environment record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or "unset -> OpenBLAS default",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "openblas_config": blas.get("openblas configuration", "unknown"),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Output checks


def check_train(rep_dir: Path, result: dict) -> tuple[dict, dict]:
    """Check a training repeat; returns (fingerprint, quality metrics)."""
    from dombert import checkpoint, corpus

    run = rep_dir / "run"
    fingerprint = {name: sha256(run / name) for name in TRAIN_ARTIFACTS}
    vocab_size = corpus.read_vocab(rep_dir / "ingested" / "vocab.tsv").size
    table = corpus.read_domain_table(rep_dir / "ingested" / "domains.tsv")
    bundle = checkpoint.load(run / "final.ckpt")
    if (bundle.config.vocab_size, bundle.config.n_domains) != (vocab_size, table.n_plus_1):
        raise CheckFailed("final.ckpt does not match the ingested vocabulary and domains")

    log = (run / "log.tsv").read_text(encoding="utf-8").splitlines()
    lam = json.loads(log[0].split("\t", 1)[1])["lam"]
    steps = []
    for line in log[1:]:
        fields = line.split("\t")
        if len(fields) == 7:
            steps.append([float(v) for v in fields[2:]])
            if int(fields[0]) != len(steps):
                raise CheckFailed(f"log.tsv step {fields[0]} out of order")
    if len(steps) != len(result["op_s"]):
        raise CheckFailed(f"log.tsv has {len(steps)} steps, the run timed "
                          f"{len(result['op_s'])}")
    for total, mlm, cls, delta, p_target in steps:
        if not all(math.isfinite(v) for v in (total, mlm, cls, delta, p_target)):
            raise CheckFailed("non-finite value in log.tsv")
        if abs(total - (lam * mlm + (1 - lam) * cls + delta)) > 1e-5:
            raise CheckFailed("log.tsv L_total breaks the loss-mixing identity")
    # Initial weights predict tokens almost uniformly.
    if abs(steps[0][1] - math.log(vocab_size)) > 0.05 * math.log(vocab_size):
        raise CheckFailed(f"first-step L_MLM {steps[0][1]} is far from ln(V)")

    ranked = [line.split("\t") for line in
              (run / "top_domains.tsv").read_text(encoding="utf-8").splitlines()]
    k = min(20, table.n_plus_1 - 1)
    cosines = [float(row[2]) for row in ranked]
    if [int(row[0]) for row in ranked] != list(range(1, k + 1)) or \
            cosines != sorted(cosines, reverse=True):
        raise CheckFailed("top_domains.tsv is not a ranked top-k list")

    last = steps[len(steps) // 2:]
    quality = {
        "loss_final": statistics.fmean(s[0] for s in last),
        "pseudo_ppl": math.exp(statistics.fmean(s[1] for s in last)),
    }
    return fingerprint, quality


def check_score(in_dir: Path, result: dict) -> tuple[dict, dict]:
    """Check a scoring repeat; returns (fingerprint, quality metrics)."""
    from dombert import corpus

    lines = [line for line in result["stdout"].splitlines()
             if line.startswith("pseudo_perplexity\t")]
    if len(lines) != 1:
        raise CheckFailed("eval printed no pseudo_perplexity line")
    ppl = float(lines[0].split("\t")[1])
    vocab_size = corpus.read_vocab(in_dir / "vocab.tsv").size
    # Initial weights give a near-uniform prediction over the vocabulary.
    if not (math.isfinite(ppl) and 0.5 * vocab_size < ppl < 2.0 * vocab_size):
        raise CheckFailed(f"pseudo-perplexity {ppl} is far from V={vocab_size}")
    return {"pseudo_perplexity": lines[0]}, {"loss_final": math.log(ppl),
                                              "pseudo_ppl": ppl}


# ---------------------------------------------------------------------------
# Metrics


def tokens_per_s(results: list[dict]) -> float:
    """Non-pad tokens of all operations over their summed wall time."""
    tokens = sum(sum(r["op_tokens"]) for r in results)
    return tokens / sum(sum(r["op_s"]) for r in results)


def end_to_end_metrics(untraced: list[dict], quality: dict) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics, and notes printed beside some of them."""
    op_s = sorted(t for r in untraced for t in r["op_s"])
    pct = tail_percentile(len(op_s))
    notes = {"op_s_p50": f"n={len(op_s)}", "op_s_tail": f"p{pct:g}, n={len(op_s)}",
             "setup_s": f"median of {len(untraced)} repeats"}
    return {
        "tokens_per_s": tokens_per_s(untraced),
        "op_s_p50": nearest_rank(op_s, 50.0),
        "op_s_tail": nearest_rank(op_s, pct),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        **quality,
    }, notes


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """The per-layer metrics from the traced repeats (see README.md)."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, list] = {}
    for r in traced:
        for name, entry in r["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(entry, 0.0))
            for key in acc:
                acc[key] += entry[key]
        for key, values in r["counts"].items():
            counts.setdefault(key, []).extend(values)

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def self_ms(*names: str, per: float | None = None) -> float:
        calls = span(names[0], "calls") if per is None else per
        return 1e3 * sum(span(x, "self_s") for x in names) / calls if calls else 0.0

    def mean(key: str) -> float:
        return statistics.fmean(counts[key]) if counts[key] else 0.0

    encode_flop = sum(counts["model.encode_flop"])
    encode_s = span("model.encode", "self_s")
    slots = sum(counts["model.slots"])
    op_s = sum(sum(r["op_s"]) for r in traced)
    untraced_rate, traced_rate = tokens_per_s(untraced), tokens_per_s(traced)
    return {
        "corpus.ingest_s": span("corpus.ingest", "total_s") / len(traced),
        "corpus.read_packed_s": span("corpus.read_packed", "total_s") / len(traced),
        "corpus.tokenize_pack_s": span("corpus.tokenize_pack", "total_s") / len(traced),
        "sampler.sample_batch_ms": self_ms("sampler.sample_batch"),
        "sampler.refresh_ms": self_ms("sampler.refresh"),
        "sampler.domains_drawn": mean("sampler.domains_drawn"),
        "sampler.eff_domains_mean": mean("sampler.eff_domains"),
        "masking.make_masked_batch_ms": self_ms("masking.make_masked_batch"),
        "masking.flat_targets_ms": self_ms("masking.flat_targets"),
        "masking.targets_per_batch": mean("masking.targets"),
        "model.encode_ms": self_ms("model.encode"),
        "model.encode_backward_ms": self_ms("model.encode_backward"),
        "model.mlm_logits_eal_ms": self_ms("model.mlm_logits_eal"),
        "model.mlm_head_backward_ms": self_ms("model.mlm_head_backward"),
        # forward plus backward, per micro-batch
        "model.domain_head_ms": self_ms("model.domain_logits", "model.domain_head_backward"),
        "model.encode_gflop": mean("model.encode_flop") / 1e9,
        "model.encode_gflops_per_s": encode_flop / encode_s / 1e9 if encode_s else 0.0,
        "model.valid_token_share": sum(counts["model.valid_tokens"]) / slots if slots else 0.0,
        "objective.forward_self_ms": self_ms("objective.forward"),
        "objective.backward_self_ms": self_ms("objective.backward"),
        "objective.regularizer_grad_ms": self_ms("objective.regularizer_grad"),
        "trainer.adamax_ms": self_ms("trainer.adamax"),
        "trainer.step_self_ms": self_ms("trainer.step"),
        "checkpoint.save_ms": self_ms("checkpoint.save"),
        "checkpoint.bytes": statistics.fmean(r["checkpoint_bytes"] for r in traced),
        "checkpoint.stall_share": sum(r["checkpoint_stall_s"] for r in traced) / op_s,
        "checkpoint.load_ms": self_ms("checkpoint.load"),
        "evalbench.score_self_ms": self_ms(
            "evalbench.score", per=sum(len(r["op_s"]) for r in traced)),
        "trace.untraced_tokens_per_s": untraced_rate,
        "trace.traced_tokens_per_s": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    }


# ---------------------------------------------------------------------------
# Running a workload


def run_repeat(wl, seed: int, in_dir: Path, rep_dir: Path, traced: bool,
               deadline: float) -> dict:
    """Run one repeat in a fresh process; returns its result record."""
    result_path = ROOT / rep_dir.parent / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", wl.name,
           "--seed", str(seed), "--in-dir", str(in_dir), "--work-dir", str(rep_dir),
           "--trace", str(int(traced)), "--result", str(result_path)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"repeat did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not result_path.is_file():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise CheckFailed(f"repeat exited with status {proc.returncode}: {tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(wl, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    from dombert.errors import DombertError

    base = WORK / wl.name
    shutil.rmtree(ROOT / base, ignore_errors=True)
    in_dir, rep_dir = base / "inputs", base / "repeat"
    make_inputs(wl, seed, ROOT / in_dir)

    n = repeats_for(wl, seconds)
    # An untimed warm-up repeat comes first: on a shared host the first
    # process after a pause runs slower. Traced runs alternate untraced and
    # traced repeats in ABBA order so that drift cancels in the overhead.
    abba = ["untraced", "traced", "traced", "untraced"]
    plan = ["warm-up"] + ((abba * n)[:2 * max(2, n // 2)] if trace else ["untraced"] * n)
    records: list[tuple[str, dict | None, str | None]] = []
    reference = quality = None
    for kind in plan:
        traced = kind == "traced"
        shutil.rmtree(ROOT / rep_dir, ignore_errors=True)
        result = error = None
        try:
            result = run_repeat(wl, seed, in_dir, rep_dir, traced, deadline)
            if wl.kind == "train":
                fingerprint, q = check_train(ROOT / rep_dir, result)
            else:
                fingerprint, q = check_score(ROOT / in_dir, result)
            fingerprint["checkpoint_bytes"] = result["checkpoint_bytes"]
            if traced:
                fingerprint["counts"] = json.dumps(result["counts"], sort_keys=True)
            if reference is None:
                reference, quality = fingerprint, q
            else:
                differs = sorted(k for k in fingerprint
                                 if k in reference and fingerprint[k] != reference[k])
                if differs:
                    raise CheckFailed("outputs differ from the first repeat: "
                                      + ", ".join(differs))
                reference.update(fingerprint)
        except (CheckFailed, DombertError, OSError, ValueError, LookupError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        records.append((kind, result, error))
    shutil.rmtree(ROOT / base, ignore_errors=True)

    sizes = [len(r["op_s"]) for _, r, _ in records if r is not None]
    expected = max(sizes, default=1)
    attempted = sum(len(r["op_s"]) if r is not None else expected for _, r, _ in records)
    failed = sum(len(r["op_s"]) if r is not None else expected
                 for _, r, e in records if e is not None)
    untraced = [r for kind, r, e in records if e is None and kind == "untraced"]
    traced_runs = [r for kind, r, e in records if e is None and kind == "traced"]
    metrics, notes = {}, {}
    if trace and untraced and traced_runs:
        metrics = layer_metrics(traced_runs, untraced)
    elif not trace and untraced:
        metrics, notes = end_to_end_metrics(untraced, quality)
    return {
        "workload": wl.name, "plan": plan, "attempted": attempted,
        "failed": failed, "errors": [e for _, _, e in records if e is not None],
        "metrics": metrics, "notes": notes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dombert" / "cli.py").is_file():
        print(f"error: no dombert source under {ROOT / 'src'}; run from the "
              "root of a dombert checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END

    print("ENV\t" + json.dumps(environment(), sort_keys=True))
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    outcomes = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), deadline) for name in names]
    shutil.rmtree(ROOT / WORK, ignore_errors=True)

    summary: dict[str, dict] = {}
    for out in outcomes:
        plan = out["plan"]
        print(f"workload {out['workload']}: seed {args.seed}, repeats: 1 warm-up, "
              f"{plan.count('untraced')} untraced, {plan.count('traced')} traced")
        for name, unit in units.items():
            value = out["metrics"].get(name)
            if value is None:
                continue
            note = "computed" if name in COMPUTED else out["notes"].get(name)
            print(f"  {name:<30} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
            key = name if len(outcomes) == 1 else f"{out['workload']}.{name}"
            summary[key] = {"value": value, "unit": unit}
        print(f"  {'failed_share':<30} {out['failed'] / out['attempted']:.6g} "
              f"({out['failed']}/{out['attempted']} operations)")
        for error in out["errors"]:
            print(f"  FAILED: {error}")

    correct = all(not out["errors"] and out["metrics"] for out in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out["attempted"] for out in outcomes),
        "failed": sum(out["failed"] for out in outcomes),
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
