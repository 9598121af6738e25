import argparse
import hashlib
import json

import numpy as np
import pytest

from dombert import checkpoint, evalbench, trainer
from dombert.cli import build_parser, main, manifest_line
from dombert.corpus import build_vocab, write_vocab
from dombert.errors import NonFiniteGradientError
from dombert.model import ModelConfig, init_params
from dombert.nputil import derive_rng


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_tiny_synth(tmp_path, **kwargs):
    out = tmp_path / "synth.tsv"
    args = ["gen-synth", "--clusters", "2", "--domains-per-cluster", "2",
            "--shared-vocab", "20", "--unique-vocab", "10",
            "--background-vocab", "30", "--docs-per-domain", "12",
            "--min-len", "8", "--max-len", "14", "--seed", "0",
            "--out", str(out)]
    for key, value in kwargs.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return out


class TestIngest:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        corpus = gen_tiny_synth(tmp_path)
        out = tmp_path / "ingested"
        rc = main(["ingest", "--corpus", str(corpus), "--target", "c0_d0",
                   "--max-len", "32", "--out", str(out)])
        assert rc == 0
        packed = out / "packed.tsv"
        assert packed.exists()
        header = packed.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("DOMPACK v1 ")
        assert (out / "vocab.tsv").exists()
        assert (out / "domains.tsv").exists()
        assert (out / "stats.tsv").exists()
        manifest = capsys.readouterr().out.splitlines()
        assert any(line.startswith("MANIFEST\t") for line in manifest)

    def test_missing_target_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--corpus", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_missing_corpus_file_is_runtime_error(self, tmp_path):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.tsv"),
                   "--target", "a", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = gen_tiny_synth(tmp_path)
        out1 = tmp_path / "i1"
        out2 = tmp_path / "i2"
        for out in (out1, out2):
            assert main(["ingest", "--corpus", str(corpus), "--target", "c0_d0",
                         "--max-len", "32", "--out", str(out)]) == 0
        for name in ("packed.tsv", "vocab.tsv", "domains.tsv", "stats.tsv"):
            assert file_hash(out1 / name) == file_hash(out2 / name)

    def test_target_that_packs_to_nothing_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "c.tsv"
        path.write_text("a\tsome words\nt\t  \nt\t \t \n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["ingest", "--corpus", str(path), "--target", "t", "--out", str(out)])
        assert rc == 1
        assert "error: target domain has no packed examples" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def _ingest(self, tmp_path):
        corpus = gen_tiny_synth(tmp_path)
        out = tmp_path / "ingested"
        main(["ingest", "--corpus", str(corpus), "--target", "c0_d0",
              "--max-len", "32", "--out", str(out)])
        return out

    def test_train_writes_outputs_and_manifest(self, tmp_path):
        packed = self._ingest(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--packed", str(packed), "--epochs", "1",
                   "--batch", "4", "--accum", "1", "--m", "8",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        log = (out / "log.tsv").read_text(encoding="utf-8").splitlines()
        assert log[0].startswith("MANIFEST\t")
        payload = json.loads(log[0].split("\t", 1)[1])
        assert payload["lam"] == 0.9
        assert payload["tau"] == 0.13
        assert payload["lr"] == 5e-5
        assert payload["explore"] == 0.2
        assert payload["m"] == 8
        assert (out / "final.ckpt").exists()
        assert (out / "top_domains.tsv").exists()

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path):
        packed = self._ingest(tmp_path)
        out = tmp_path / "run0"
        assert main(["train", "--packed", str(packed), "--epochs", "0",
                     "--m", "8", "--seed", "11", "--out", str(out)]) == 0
        bundle = checkpoint.load(out / "final.ckpt")
        expected = init_params(bundle.config, derive_rng(11, 0))
        for name, arr in bundle.params.items():
            np.testing.assert_array_equal(arr, expected[name].astype(np.float32))

    def test_same_seed_same_log(self, tmp_path):
        packed = self._ingest(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}"
            assert main(["train", "--packed", str(packed), "--epochs", "1",
                         "--batch", "4", "--accum", "1", "--m", "8",
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append(out)
        # logs embed the --out path in the manifest; compare step lines only
        a = (outs[0] / "log.tsv").read_text(encoding="utf-8").splitlines()[1:]
        b = (outs[1] / "log.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert a == b
        assert file_hash(outs[0] / "final.ckpt") != ""  # exists and readable

    def test_crash_leaves_the_log_so_far_and_no_final_files(self, tmp_path,
                                                            monkeypatch):
        packed = self._ingest(tmp_path)
        step = trainer.adamax_step
        calls = []

        def failing_step(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NonFiniteGradientError("injected at step 3")
            step(*args)

        monkeypatch.setattr(trainer, "adamax_step", failing_step)
        out = tmp_path / "run"
        rc = main(["train", "--packed", str(packed), "--epochs", "4",
                   "--batch", "2", "--accum", "1", "--m", "8", "--out", str(out)])
        assert rc == 1
        log = (out / "log.tsv").read_text(encoding="utf-8").splitlines()
        assert log[0].startswith("MANIFEST\t")
        assert [line.split("\t")[0] for line in log[1:]] == ["1", "2"]
        assert not (out / "final.ckpt").exists()
        assert not (out / "top_domains.tsv").exists()

    def test_flag_defaults_match_training_recipe(self):
        from dombert.cli import build_parser

        args = build_parser().parse_args(["train", "--packed", "x", "--out", "y"])
        assert args.lam == 0.9
        assert args.tau == 0.13
        assert args.explore == 0.2
        assert args.lr == 5e-5
        assert args.m == 64
        report = build_parser().parse_args(["report", "--ckpt", "x"])
        assert report.top == 20

    def test_bad_lambda_is_runtime_config_error(self, tmp_path):
        packed = self._ingest(tmp_path)
        rc = main(["train", "--packed", str(packed), "--lambda", "1.2",
                   "--epochs", "1", "--out", str(tmp_path / "bad")])
        assert rc == 1

    def test_explore_outside_unit_interval_is_config_error(self, tmp_path, capsys):
        packed = self._ingest(tmp_path)
        rc = main(["train", "--packed", str(packed), "--explore", "1.0",
                   "--epochs", "1", "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert "explore" in capsys.readouterr().err

    def test_negative_checkpoint_interval_is_config_error(self, tmp_path, capsys):
        packed = self._ingest(tmp_path)
        rc = main(["train", "--packed", str(packed), "--checkpoint-interval", "-3",
                   "--epochs", "1", "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert "checkpoint_interval" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda lines: [lines[0].replace(" target=0", "")] + lines[1:],
        lambda lines: lines[:1] + ["0\tc0_d0"] + lines[2:],
        lambda lines: lines[:-1],
        lambda lines: lines[:1] + ["0\tc0_d0\tmany"] + lines[2:],
        lambda lines: lines[:1] + [lines[1].rsplit("\t", 1)[0] + "\t1"] + lines[2:],
    ], ids=["header without target", "row without two TABs", "missing row",
            "non-integer count", "count disagrees with packed.tsv"])
    def test_malformed_domain_table_is_exit_one(self, tmp_path, capsys, edit):
        packed = self._ingest(tmp_path)
        path = packed / "domains.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
        capsys.readouterr()
        rc = main(["train", "--packed", str(packed), "--epochs", "1",
                   "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestManifest:
    ARGV = {
        "ingest": ["ingest", "--corpus", "c", "--target", "t", "--out", "o"],
        "train": ["train", "--packed", "p", "--out", "o"],
        "report": ["report", "--ckpt", "c"],
        "gen-synth": ["gen-synth", "--out", "o"],
        "eval": ["eval", "--ckpt", "c"],
        "bench-eal": ["bench-eal"],
    }

    def test_keys_are_the_parser_dests(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(self.ARGV)
        for command, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions if a.dest != "help"}
            line = manifest_line(parser.parse_args(self.ARGV[command]))
            payload = json.loads(line.split("\t", 1)[1])
            assert set(payload) == dests | {"command", "version"}, command
            assert payload["command"] == command


class TestReport:
    def test_default_top_twenty_lines(self, tmp_path, capsys):
        """With at least 21 domains the default report prints 20 lines."""
        out = tmp_path / "synth.tsv"
        assert main(["gen-synth", "--clusters", "7", "--domains-per-cluster", "3",
                     "--shared-vocab", "10", "--unique-vocab", "5",
                     "--background-vocab", "20", "--docs-per-domain", "3",
                     "--min-len", "6", "--max-len", "10", "--out", str(out)]) == 0
        ingested = tmp_path / "ing"
        assert main(["ingest", "--corpus", str(out), "--target", "c0_d0",
                     "--max-len", "24", "--out", str(ingested)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--packed", str(ingested), "--epochs", "0",
                     "--m", "8", "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["report", "--ckpt", str(run / "final.ckpt")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("MANIFEST")]
        assert len(lines) == 20
        rank, name, cosine = lines[0].split("\t")
        assert rank == "1"
        float(cosine)

    def test_missing_checkpoint_is_exit_one(self, tmp_path):
        assert main(["report", "--ckpt", str(tmp_path / "nope.ckpt")]) == 1


class TestEval:
    def test_oracle_embeddings_score_perfect_precision(self, tmp_path, capsys):
        spec = evalbench.SyntheticSpec(docs_per_domain=1)
        _, truth = evalbench.gen_synthetic_corpus(spec)
        names = sorted(truth, key=lambda n: (truth[n], n))
        cfg = ModelConfig(vocab_size=50, n_domains=12, max_len=8, d_hidden=8,
                          n_layers=1, n_heads=2, d_ff=8, d_domain=16)
        params = init_params(cfg, derive_rng(0, 0))
        d = np.zeros((12, 16), dtype=np.float32)
        for i, name in enumerate(names):
            d[i, truth[name]] = 1.0
            d[i, 3 + i] = 0.01
        params["dom_emb"] = d
        ckpt = tmp_path / "oracle.ckpt"
        checkpoint.save_model(ckpt, cfg, params, domain_names=names, target_index=0)
        truth_path = tmp_path / "truth.tsv"
        evalbench.write_truth(truth_path, truth)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--truth", str(truth_path)]) == 0
        out = capsys.readouterr().out
        assert "precision_at_3\t1.000000" in out

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:8] + lines[9:],
        lambda lines: [lines[0].replace("size=", "size=1")] + lines[1:],
        lambda lines: lines[:8] + ["8\t" + lines[8].split("\t")[1]] + lines[9:],
        lambda lines: lines[:8] + ["seven\tword"] + lines[9:],
    ], ids=["missing id 7", "size disagrees with the rows", "repeated id", "bad id"])
    def test_malformed_vocabulary_is_exit_one(self, tmp_path, capsys, edit):
        corpus = gen_tiny_synth(tmp_path)
        assert main(["ingest", "--corpus", str(corpus), "--target", "c0_d0",
                     "--out", str(tmp_path / "ingested")]) == 0
        vocab = tmp_path / "ingested" / "vocab.tsv"
        lines = vocab.read_text(encoding="utf-8").splitlines()
        vocab.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
        cfg = ModelConfig(vocab_size=len(lines) - 1, n_domains=4, max_len=32,
                          d_hidden=8, n_layers=1, n_heads=2, d_ff=8, d_domain=2)
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_model(ckpt, cfg, init_params(cfg, derive_rng(0, 0)))
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(ckpt), "--heldout", str(corpus),
                   "--vocab", str(vocab)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_heldout_line_without_tab_is_exit_one(self, tmp_path, capsys):
        """eval reads --heldout with the corpus module's reader, as ingest does."""
        heldout = tmp_path / "heldout.tsv"
        heldout.write_text("c0_d0\talpha beta\nalpha beta gamma\n", encoding="utf-8")
        vocab = tmp_path / "vocab.tsv"
        write_vocab(vocab, build_vocab(["alpha beta gamma"], min_count=1, max_size=10))
        cfg = ModelConfig(vocab_size=8, n_domains=2, max_len=8, d_hidden=8,
                          n_layers=1, n_heads=2, d_ff=8, d_domain=2)
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_model(ckpt, cfg, init_params(cfg, derive_rng(0, 0)))
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(ckpt), "--heldout", str(heldout),
                   "--vocab", str(vocab)])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 2: missing TAB separator\n"

    def test_eval_requires_some_input(self, tmp_path):
        cfg = ModelConfig(vocab_size=10, n_domains=2, max_len=8, d_hidden=8,
                          n_layers=1, n_heads=2, d_ff=8, d_domain=2)
        params = init_params(cfg, derive_rng(0, 0))
        ckpt = tmp_path / "m.ckpt"
        checkpoint.save_model(ckpt, cfg, params)
        assert main(["eval", "--ckpt", str(ckpt)]) == 1


def _small_checkpoint(path):
    """A model checkpoint over four named domains, target c0_d0."""
    cfg = ModelConfig(vocab_size=10, n_domains=4, max_len=8, d_hidden=8,
                      n_layers=1, n_heads=2, d_ff=8, d_domain=2)
    checkpoint.save_model(path, cfg, init_params(cfg, derive_rng(0, 0)),
                          domain_names=["c0_d0", "c0_d1", "c1_d0", "c1_d1"],
                          target_index=0)
    return path


def _truth_without_tab(tmp_path):
    truth = tmp_path / "truth.tsv"
    truth.write_text("c0_d0\t0\nc0_d1 0\n", encoding="utf-8")
    return ["eval", "--ckpt", str(_small_checkpoint(tmp_path / "m.ckpt")),
            "--truth", str(truth)]


def _truth_without_target(tmp_path):
    truth = tmp_path / "truth.tsv"
    truth.write_text("c0_d1\t0\nc1_d0\t1\nc1_d1\t1\n", encoding="utf-8")
    return ["eval", "--ckpt", str(_small_checkpoint(tmp_path / "m.ckpt")),
            "--truth", str(truth)]


def _checkpoint_header_not_utf8(tmp_path):
    ckpt = _small_checkpoint(tmp_path / "m.ckpt")
    data = ckpt.read_bytes()
    ckpt.write_bytes(data.replace(b"target_index=0\n", b"target_index=0\n\xff\xfe=1\n", 1))
    return ["report", "--ckpt", str(ckpt), "--top", "2"]


def _edited_checkpoint(old, new):
    """A report of a checkpoint whose header line `old` was rewritten as `new`."""
    def argv(tmp_path):
        ckpt = _small_checkpoint(tmp_path / "m.ckpt")
        data = ckpt.read_bytes()
        assert data.count(old) == 1
        ckpt.write_bytes(data.replace(old, new))
        return ["report", "--ckpt", str(ckpt), "--top", "2"]
    return argv


def _corpus_not_utf8(tmp_path):
    corpus = tmp_path / "bad.tsv"
    corpus.write_bytes(b"a\tx y\xff z\nb\tx w\n")
    return ["ingest", "--corpus", str(corpus), "--target", "a",
            "--out", str(tmp_path / "ingested")]


def _truth_not_utf8(tmp_path):
    truth = tmp_path / "truth.tsv"
    truth.write_bytes(b"c0_d0\t0\nc0_d1\xff\t0\n")
    return ["eval", "--ckpt", str(_small_checkpoint(tmp_path / "m.ckpt")),
            "--truth", str(truth)]


def _vocab_not_utf8(tmp_path):
    heldout = tmp_path / "heldout.tsv"
    heldout.write_text("c0_d0\talpha beta\n", encoding="utf-8")
    vocab = tmp_path / "vocab.tsv"
    write_vocab(vocab, build_vocab(["alpha beta"], min_count=1, max_size=10))
    vocab.write_bytes(vocab.read_bytes().replace(b"alpha", b"alph\xe9"))
    return ["eval", "--ckpt", str(_small_checkpoint(tmp_path / "m.ckpt")),
            "--heldout", str(heldout), "--vocab", str(vocab)]


def _negative_top(tmp_path):
    return ["report", "--ckpt", str(_small_checkpoint(tmp_path / "m.ckpt")), "--top", "-1"]


def _negative_max_vocab(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("a\tx y z\nb\tx w\n", encoding="utf-8")
    return ["ingest", "--corpus", str(corpus), "--target", "a",
            "--max-vocab", "-1", "--out", str(tmp_path / "ingested")]


def _mix_not_numbers(tmp_path):
    return ["gen-synth", "--mix", "a,b,c", "--out", str(tmp_path / "synth.tsv")]


class TestOutsideInput:
    @pytest.mark.parametrize("argv", [
        _truth_without_tab, _truth_without_target, _checkpoint_header_not_utf8,
        _negative_top, _negative_max_vocab, _mix_not_numbers,
        _edited_checkpoint(b"target_index=0\n", b"target_index=x\n"),
        _edited_checkpoint(b"d_ff=8\n", b"d_ff=8x\n"),
        _edited_checkpoint(b"tok_emb 10 8\n", b"tok_emb 10 8q\n"),
        _edited_checkpoint(b"target_index=0\n", b"target_index=4\n"),
        _edited_checkpoint(b"\tc1_d0\tc1_d1\n", b"\n"),
        _corpus_not_utf8, _truth_not_utf8, _vocab_not_utf8,
    ], ids=["truth line without TAB", "truth without the target",
            "checkpoint header not UTF-8", "report --top -1",
            "ingest --max-vocab -1", "gen-synth --mix a,b,c",
            "checkpoint target_index=x", "checkpoint d_ff=8x",
            "checkpoint array dimension 8q", "checkpoint target_index=4 of 4 domains",
            "checkpoint naming 2 of 4 domains", "corpus not UTF-8",
            "truth not UTF-8", "vocabulary not UTF-8"])
    def test_bad_input_is_error_and_exit_one(self, tmp_path, capsys, argv):
        """Malformed files and flag values exit 1 with one error line: no
        traceback, and no output computed from a silently bent value."""
        args = argv(tmp_path)
        capsys.readouterr()
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.startswith("MANIFEST") and out.count("\n") == 1


class TestBenchEalCommand:
    def test_full_mask_rate_reports_unit_speedup(self, capsys):
        rc = main(["bench-eal", "--vocab", "1500", "--len", "48",
                   "--mask-rate", "1.0", "--reps", "2", "--batch", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        values = dict(line.split("\t") for line in out.splitlines()
                      if "\t" in line and not line.startswith("MANIFEST"))
        assert 0.5 <= float(values["speedup"]) <= 1.6

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
