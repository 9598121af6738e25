"""Command-line entry point.

Every command prints a one-line run manifest (command name, every parsed
argument, artifact version) sufficient to replay the run; for training the
manifest is also the first line of the log file. The corpus module writes
and reads the ingest directory and the trainer writes the whole run
directory, so no file name lives here; checkpoints store arrays in the
model's dtype, which the CLI leaves at float32. Exit statuses: 0 success, 1 runtime/data error,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__, checkpoint, corpus, evalbench, sampler, trainer
from .errors import ConfigError, DombertError
from .masking import MaskingPolicy
from .model import ModelConfig


def manifest_line(args: argparse.Namespace) -> str:
    payload = {"version": __version__, **vars(args)}
    del payload["func"]
    return "MANIFEST\t" + json.dumps(payload, sort_keys=True)


def _ingest(args: argparse.Namespace) -> int:
    table, records = corpus.load_corpus(args.corpus, args.target)
    vocab = corpus.build_vocab([text for _, text in records],
                               args.min_count, args.max_vocab)
    packed = corpus.pack_corpus(table, records, vocab, args.max_len)
    corpus.write_ingested(args.out, packed, vocab)
    print(f"packed {len(packed.examples)} examples over {table.n_plus_1} domains;"
          f" vocabulary size {vocab.size}")
    return 0


def _train(args: argparse.Namespace) -> int:
    packed = corpus.read_ingested(args.packed)
    model_config = ModelConfig(
        vocab_size=packed.vocab_size,
        n_domains=packed.table.n_plus_1,
        max_len=packed.max_len,
        d_domain=args.m,
    )
    train_config = trainer.TrainConfig(
        lam=args.lam, tau=args.tau, explore=args.explore, lr=args.lr,
        micro_batch=args.batch, accum_steps=args.accum, epochs=args.epochs,
        seed=args.seed, checkpoint_interval=args.checkpoint_interval,
        target_only=args.target_only,
    )
    result = trainer.train(train_config, packed, model_config, out_dir=args.out,
                           manifest=manifest_line(args))
    print(f"trained {len(result.records)} optimizer steps; outputs in {args.out}")
    return 0


def _domains(bundle: checkpoint.CheckpointBundle) -> tuple[list[str], int]:
    """Domain names and target index of a checkpoint, with placeholders for
    a file saved without them."""
    names = bundle.domain_names or [f"domain_{i}" for i in range(bundle.config.n_domains)]
    return names, bundle.target_index if bundle.target_index is not None else 0


def _report(args: argparse.Namespace) -> int:
    bundle = checkpoint.load(args.ckpt)
    names, target = _domains(bundle)
    k = min(args.top, bundle.config.n_domains - 1)
    report = sampler.report_top_domains(bundle.params["dom_emb"], target, k, names)
    for row in sampler.format_top_domains(report):
        print(row)
    return 0


def _gen_synth(args: argparse.Namespace) -> int:
    try:
        mix = tuple(float(v) for v in args.mix.split(","))
    except ValueError:
        mix = ()
    if len(mix) != 3:
        raise ConfigError("--mix expects three comma-separated ratios")
    spec = evalbench.SyntheticSpec(
        n_clusters=args.clusters,
        domains_per_cluster=args.domains_per_cluster,
        shared_vocab=args.shared_vocab,
        unique_vocab=args.unique_vocab,
        background_vocab=args.background_vocab,
        docs_per_domain=args.docs_per_domain,
        doc_len_min=args.min_len,
        doc_len_max=args.max_len,
        mix=mix,
        seed=args.seed,
    )
    records, truth = evalbench.gen_synthetic_corpus(spec)
    evalbench.write_corpus(args.out, records)
    truth_out = args.truth_out or args.out + ".truth"
    evalbench.write_truth(truth_out, truth)
    print(f"wrote {len(records)} documents over {spec.n_domains} domains")
    return 0


def _eval(args: argparse.Namespace) -> int:
    if args.truth is None and args.heldout is None:
        raise DombertError("nothing to evaluate: pass --truth and/or --heldout")
    bundle = checkpoint.load(args.ckpt)
    names, target = _domains(bundle)
    if args.truth is not None:
        truth = evalbench.read_truth(args.truth)
        precision = evalbench.eval_domain_recovery(
            bundle.params["dom_emb"], target, names, truth
        )
        k = len(evalbench.cluster_mates(truth, names, target))
        print(f"precision_at_{k}\t{precision:.6f}")
    if args.heldout is not None:
        if args.vocab is None:
            raise DombertError("--heldout requires --vocab")
        vocab = corpus.read_vocab(args.vocab)
        texts = [text for _, text in corpus.read_records(args.heldout)]
        ppl = evalbench.eval_pseudo_perplexity(
            bundle.params, bundle.config, texts, vocab,
            MaskingPolicy(), args.mask_seed,
        )
        print(f"pseudo_perplexity\t{ppl:.6f}")
    return 0


def _bench_eal(args: argparse.Namespace) -> int:
    config = ModelConfig(vocab_size=args.vocab, n_domains=2, max_len=args.len)
    report = evalbench.bench_eal(config, mask_rate=args.mask_rate,
                                 reps=args.reps, batch_size=args.batch)
    for row in evalbench.format_bench_report(report):
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dombert",
        description="Domain-oriented masked-LM training at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="pack a domain-tagged corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-len", type=int, default=128, dest="max_len")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--max-vocab", type=int, default=8000, dest="max_vocab")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_ingest)

    p = sub.add_parser("train", help="run domain-oriented training")
    p.add_argument("--packed", required=True,
                   help="ingest output directory (or the packed file inside it)")
    p.add_argument("--lambda", type=float, default=0.9, dest="lam")
    p.add_argument("--tau", type=float, default=0.13)
    p.add_argument("--explore", type=float, default=0.2,
                   help="uniform share mixed into the sampling distribution, "
                        "with importance-weighted domain classification; "
                        "0 is the plain softmax sampler and unweighted loss")
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--accum", type=int, default=4)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint-interval", type=int, default=50,
                   dest="checkpoint_interval")
    p.add_argument("--target-only", action="store_true", dest="target_only",
                   help="pin sampling to the target domain (comparison runs)")
    p.set_defaults(func=_train)

    p = sub.add_parser("report", help="top-k relevant domains from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=_report)

    p = sub.add_parser("gen-synth", help="generate a synthetic clustered corpus")
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--domains-per-cluster", type=int, default=4,
                   dest="domains_per_cluster")
    p.add_argument("--shared-vocab", type=int, default=200, dest="shared_vocab")
    p.add_argument("--unique-vocab", type=int, default=100, dest="unique_vocab")
    p.add_argument("--background-vocab", type=int, default=500,
                   dest="background_vocab")
    p.add_argument("--docs-per-domain", type=int, default=300,
                   dest="docs_per_domain")
    p.add_argument("--min-len", type=int, default=20, dest="min_len")
    p.add_argument("--max-len", type=int, default=60, dest="max_len")
    p.add_argument("--mix", default="0.5,0.3,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None, dest="truth_out")
    p.set_defaults(func=_gen_synth)

    p = sub.add_parser("eval", help="relevance recovery and pseudo-perplexity")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--heldout", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--mask-seed", type=int, default=0, dest="mask_seed")
    p.set_defaults(func=_eval)

    p = sub.add_parser("bench-eal", help="sparse vs dense masked-token timing")
    p.add_argument("--vocab", type=int, default=8000)
    p.add_argument("--len", type=int, default=128)
    p.add_argument("--mask-rate", type=float, default=0.15, dest="mask_rate")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--batch", type=int, default=8)
    p.set_defaults(func=_bench_eal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(manifest_line(args))
    try:
        return args.func(args)
    except DombertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
