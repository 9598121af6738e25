"""Digests of the criterion-7 pipeline artifacts: the "same behaviour" gate.

Runs four gen-synth -> ingest -> train -> report pipelines, each in its own
temporary directory, through `python -m dombert.cli` subprocesses:

- criterion7: the commands of tests/test_acceptance.py's
  test_criterion_7_pipeline_determinism (4x32 batches of a tiny corpus);
- interval2: the same train with --checkpoint-interval 2;
- target-only: that run with --target-only;
- default-shape: the default 12-domain corpus at 8x128 micro-batches, the
  shapes the train-default benchmark runs, for 4 steps with a checkpoint
  and a top-20 report every 2nd.

Every pipeline runs twice: once with OPENBLAS_NUM_THREADS=1 in the child
environment and once with the variable unset. The program pins OpenBLAS to
one thread itself, so both settings must give the recorded bytes.

It prints one line per artifact and setting (setting, pipeline, file,
first 16 hex of its sha256; `report` is the report command's stdout). With
--check it compares them with the digests recorded below and exits 1 on
any difference.

The bytes depend on the CPU's OpenBLAS kernel as well as on the code, so
this is not a tier-1 test; the recorded values come from a 2-vCPU Xeon. A
change that keeps behaviour keeps every digest.

Usage: python3 tools/digests.py [--check]
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

GEN_SYNTH = ["gen-synth", "--clusters", "2", "--domains-per-cluster", "2",
             "--shared-vocab", "20", "--unique-vocab", "10",
             "--background-vocab", "30", "--docs-per-domain", "10",
             "--min-len", "8", "--max-len", "14", "--seed", "3",
             "--out", "synth.tsv"]
INGEST = ["ingest", "--corpus", "synth.tsv", "--target", "c1_d1",
          "--max-len", "32", "--out", "ingested"]
TRAIN = ["train", "--packed", "ingested", "--epochs", "2", "--batch", "4",
         "--accum", "1", "--m", "8", "--seed", "9", "--out", "run"]
REPORT = ["report", "--ckpt", "run/final.ckpt", "--top", "3"]

# name -> the commands it runs, in order.
PIPELINES = {
    "criterion7": [GEN_SYNTH, INGEST, TRAIN + ["--checkpoint-interval", "5"], REPORT],
    "interval2": [GEN_SYNTH, INGEST, TRAIN + ["--checkpoint-interval", "2"], REPORT],
    "target-only": [GEN_SYNTH, INGEST,
                    TRAIN + ["--checkpoint-interval", "2", "--target-only"], REPORT],
    "default-shape": [
        ["gen-synth", "--out", "synth.tsv"],
        ["ingest", "--corpus", "synth.tsv", "--target", "c0_d0", "--max-len", "128",
         "--out", "ingested"],
        ["train", "--packed", "ingested", "--batch", "8", "--accum", "4", "--m", "16",
         "--epochs", "1", "--checkpoint-interval", "2", "--out", "run"],
        ["report", "--ckpt", "run/final.ckpt"],
    ],
}

# (pipeline, artifact) -> first 16 hex of sha256; 32 artifacts, 29 values.
RECORDED = {
    ("criterion7", "synth.tsv"): "e391f821c574ddb5",
    ("criterion7", "synth.tsv.truth"): "6599892ab3870759",
    ("criterion7", "ingested/packed.tsv"): "3c89101302fd409f",
    ("criterion7", "ingested/vocab.tsv"): "af086791c669b400",
    ("criterion7", "ingested/domains.tsv"): "e9fc7c1a72a7eef5",
    ("criterion7", "ingested/stats.tsv"): "21a5c37d45aeb7cb",
    ("criterion7", "run/final.ckpt"): "f015cf1ff8106bd0",
    ("criterion7", "run/log.tsv"): "cad7cfe0491d5fa0",
    ("criterion7", "run/top_domains.tsv"): "d41aa71dc55da9fc",
    ("criterion7", "report"): "35946f1c755b2be4",
    ("interval2", "run/ckpt_step000002.ckpt"): "cac66163d6be6dbf",
    ("interval2", "run/final.ckpt"): "f015cf1ff8106bd0",
    ("interval2", "run/log.tsv"): "77b787132b2b4fac",
    ("interval2", "run/top_domains.tsv"): "d41aa71dc55da9fc",
    ("interval2", "report"): "35946f1c755b2be4",
    ("target-only", "run/ckpt_step000002.ckpt"): "5b4f6603dabb632a",
    ("target-only", "run/final.ckpt"): "0ce96189cba15707",
    ("target-only", "run/log.tsv"): "781cbfdbae48e96e",
    ("target-only", "run/top_domains.tsv"): "ec13c5dd620fae9a",
    ("target-only", "report"): "2b4b5738258b761e",
    ("default-shape", "synth.tsv"): "25f4b5b04685dec5",
    ("default-shape", "synth.tsv.truth"): "de202817392335e4",
    ("default-shape", "ingested/packed.tsv"): "57f8cfca1080cdf8",
    ("default-shape", "ingested/vocab.tsv"): "49b7d19be42634a3",
    ("default-shape", "ingested/domains.tsv"): "485677135af8dbef",
    ("default-shape", "ingested/stats.tsv"): "1926c99d3f6cf5cc",
    ("default-shape", "run/ckpt_step000002.ckpt"): "af02f38cddcff793",
    ("default-shape", "run/ckpt_step000004.ckpt"): "22746d0729b71896",
    ("default-shape", "run/final.ckpt"): "86fceb1b8ee27f8a",
    ("default-shape", "run/log.tsv"): "f1dd96a13290abbb",
    ("default-shape", "run/top_domains.tsv"): "437e03ee9d2a365a",
    ("default-shape", "report"): "c6ed8218ad0a76e8",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# BLAS setting -> the OPENBLAS_NUM_THREADS each child gets (None: unset).
SETTINGS = {"blas-1": "1", "blas-unset": None}


def run_pipeline(name: str, commands: list[list[str]], blas_threads: str | None) -> dict[str, str]:
    """Digests of every artifact `name` records, from a fresh directory."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as tmp:
        root = Path(tmp)
        report = b""
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "dombert.cli", *argv],
                                  cwd=root, env=env, capture_output=True)
            if done.returncode != 0:
                sys.exit(f"{name}: `dombert {argv[0]}` exited {done.returncode}:\n"
                         + done.stderr.decode(errors="replace"))
            report = done.stdout
        return {
            artifact: _digest(report) if artifact == "report"
            else _digest((root / artifact).read_bytes())
            for (pipeline, artifact) in RECORDED if pipeline == name
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests; exit 1 on a difference")
    args = parser.parse_args(argv)
    any_differ = False
    for setting, blas_threads in SETTINGS.items():
        differ = 0
        for name, commands in PIPELINES.items():
            for artifact, digest in run_pipeline(name, commands, blas_threads).items():
                expected = RECORDED[(name, artifact)]
                mark = ""
                if args.check and digest != expected:
                    differ += 1
                    mark = f"  DIFFERS (recorded {expected})"
                print(f"{setting}\t{name}\t{artifact}\t{digest}{mark}")
        if args.check:
            print(f"{setting}: {len(RECORDED) - differ} of {len(RECORDED)} digests as recorded")
        any_differ = any_differ or differ > 0
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
