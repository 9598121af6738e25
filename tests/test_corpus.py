import collections
import contextlib
import io
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dombert import cli, corpus as corpuslib, evalbench

from dombert.corpus import (
    CLS_ID,
    NUM_RESERVED,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    DomainTable,
    PackedCorpus,
    build_vocab,
    corpus_stats,
    load_corpus,
    pack_corpus,
    pack_domain,
    read_domain_table,
    read_ingested,
    read_packed,
    read_vocab,
    tokenize,
    validate_packed,
    word_tokens,
    write_domain_table,
    write_ingested,
    write_packed,
    write_stats,
    write_vocab,
)
from dombert.errors import ConfigError, CorpusError

from conftest import (corpus_of, failing_partway, packed_corpus, reference_build_vocab,
                      reference_pack_domain, reference_read_packed, reference_tokenize,
                      reference_write_packed)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadCorpus:
    def test_three_domains(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(path, ["a\tx y", "b\tz", "a\tmore", "c\tw"])
        table, records = load_corpus(path, target="b")
        assert table.n_plus_1 == 3
        assert table.names == ["a", "b", "c"]  # first-seen order
        assert table.target_index == 1
        assert len(records) == 4

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(path, target="a")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(path, ["a\tx", "", "   ", "b\ty"])
        table, records = load_corpus(path, target="a")
        assert len(records) == 2

    def test_missing_tab_reports_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(path, ["a\tx", "no separator here"])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, target="a")

    def test_absent_target_is_config_error(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(path, ["a\tx"])
        with pytest.raises(ConfigError, match="target"):
            load_corpus(path, target="zzz")

    def test_many_domains(self, tmp_path):
        # 4680 distinct domain names leave 4679 source domains.
        path = tmp_path / "c.tsv"
        write_lines(path, [f"dom{i}\tsome text" for i in range(4680)])
        table, _ = load_corpus(path, target="dom0")
        assert table.n_plus_1 == 4680
        assert table.n_plus_1 - 1 == 4679


class TestBuildVocab:
    def test_min_count_filters(self):
        vocab = build_vocab(["a b", "a c"], min_count=2, max_size=100)
        assert vocab.size == NUM_RESERVED + 1
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_max_size_truncates(self):
        vocab = build_vocab(["a b c d e"], min_count=1, max_size=3)
        assert vocab.size == NUM_RESERVED + 3

    def test_tie_at_cutoff_prefers_lexicographically_smaller(self):
        # Brute-force oracle: sort the counter by (-count, token) and cut.
        texts = ["zeta zeta alpha", "beta gamma delta"]
        counts = collections.Counter()
        for t in texts:
            counts.update(word_tokens(t))
        oracle = sorted(counts, key=lambda t: (-counts[t], t))[:3]
        vocab = build_vocab(texts, min_count=1, max_size=3)
        kept = vocab.id_to_token[NUM_RESERVED:]
        assert kept == oracle
        assert kept == ["zeta", "alpha", "beta"]

    def test_reserved_ids_are_fixed(self):
        vocab = build_vocab(["word"], min_count=1, max_size=10)
        assert vocab.id_to_token[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        assert vocab.token_to_id["[PAD]"] == PAD_ID

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], min_count=0, max_size=5)


class TestTokenize:
    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["a a"], min_count=1, max_size=10)
        assert tokenize("A b", vocab) == [vocab.token_to_id["a"], UNK_ID]

    def test_empty_text(self):
        vocab = build_vocab(["a"], min_count=1, max_size=10)
        assert tokenize("", vocab) == []

    def test_case_folding(self):
        vocab = build_vocab(["great screen"], min_count=1, max_size=10)
        assert tokenize("GREAT Screen", vocab) == tokenize("great screen", vocab)

    def test_punctuation_is_split_off(self):
        assert word_tokens("good, bad.") == ["good", ",", "bad", "."]


class TestPackDomain:
    def test_single_short_document(self, rng):
        out = pack_domain([list(range(5, 10))], 0, max_len=16)
        assert len(out) == 1
        ex = out[0]
        assert ex.valid_len == 7
        assert ex.ids[0] == CLS_ID
        assert list(ex.ids[1:6]) == list(range(5, 10))
        assert ex.ids[6] == SEP_ID
        assert np.all(ex.ids[7:] == PAD_ID)

    def test_split_document_carries_over(self):
        # Hand-simulated greedy packing: two 10-token docs at capacity 13.
        # Row 1 = [CLS] + doc1(10) + [SEP] + first token of doc2 -> full.
        # Row 2 = [CLS] + rest of doc2 (9) + [SEP].
        out = pack_domain([[5] * 10, [5] * 10], 0, max_len=13)
        assert len(out) == 2
        assert out[0].valid_len == 13
        assert out[0].ids[11] == SEP_ID
        assert out[0].ids[12] == 5
        assert out[1].valid_len == 11
        assert out[1].ids[10] == SEP_ID

    def test_max_len_floor(self):
        with pytest.raises(ConfigError):
            pack_domain([[5]], 0, max_len=2)

    @given(
        doc_lens=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        max_len=st.integers(min_value=3, max_value=17),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, doc_lens, max_len):
        """Every token appears exactly once, in order, across the packed rows."""
        docs = []
        next_tok = NUM_RESERVED
        for n in doc_lens:
            docs.append(list(range(next_tok, next_tok + n)))
            next_tok += n
        out = pack_domain(docs, 0, max_len=max_len)
        stream = []
        for ex in out:
            assert ex.ids[0] == CLS_ID
            stream.extend(int(v) for v in ex.ids[1 : ex.valid_len])
        expected = []
        for doc in docs:
            expected.extend(doc)
            expected.append(SEP_ID)
        assert stream == expected

    def test_all_tokens_single_domain(self, rng):
        docs = [list(rng.integers(5, 30, size=7)) for _ in range(4)]
        for ex in pack_domain(docs, 2, max_len=9):
            assert ex.domain_id == 2


class TestCorpusStats:
    def _table(self, counts):
        table = DomainTable(names=[f"d{i}" for i in range(len(counts))], target_index=0)
        table.counts = list(counts)
        return table

    def test_sorted_by_count(self):
        table = self._table([3, 1])
        table.names = ["A", "B"]
        assert corpus_stats(table) == [("A", 3), ("B", 1)]

    def test_ties_break_by_name(self):
        table = self._table([2, 2, 5])
        table.names = ["b", "a", "c"]
        assert corpus_stats(table) == [("c", 5), ("a", 2), ("b", 2)]

    def test_long_tail_is_monotone(self, rng):
        counts = sorted(rng.zipf(2.0, size=40).tolist(), reverse=True)
        rng.shuffle(counts)
        table = self._table(counts)
        stats = corpus_stats(table)
        values = [c for _, c in stats]
        assert values == sorted(counts, reverse=True)
        assert sum(values) == sum(counts)


def build_tiny_corpus(tmp_path, lines, target="a", max_len=10):
    path = tmp_path / "c.tsv"
    write_lines(path, lines)
    table, records = load_corpus(path, target=target)
    vocab = build_vocab([t for _, t in records], min_count=1, max_size=100)
    packed = pack_corpus(table, records, vocab, max_len)
    return packed, vocab


class TestPackCorpus:
    def test_counts_and_validation(self, tmp_path):
        packed, _ = build_tiny_corpus(
            tmp_path, ["a\tone two three", "b\tfour five", "a\tsix"]
        )
        assert sum(packed.table.counts) == len(packed.ids)
        validate_packed(packed)

    def test_packing_again_leaves_the_first_corpus_valid(self):
        """Each corpus gets a table of its own; the argument keeps its counts."""
        records = [("a", " ".join(["w"] * 40)), ("b", " ".join(["w"] * 30))]
        vocab = build_vocab([text for _, text in records], min_count=1, max_size=10)
        table = DomainTable(names=["a", "b"], target_index=0)
        first = pack_corpus(table, records, vocab, 16)
        counts = list(first.table.counts)
        second = pack_corpus(table, records, vocab, 8)
        assert table.counts == [0, 0]
        assert first.table.counts == counts != second.table.counts
        assert second.table.names == first.table.names == table.names
        validate_packed(first)
        validate_packed(second)

    def test_deterministic_output(self, tmp_path):
        lines = ["a\thello world", "b\tlorem ipsum dolor", "a\tmore text here"]
        p1, _ = build_tiny_corpus(tmp_path, lines)
        out1 = tmp_path / "p1.tsv"
        out2 = tmp_path / "p2.tsv"
        write_packed(out1, p1)
        p2, _ = build_tiny_corpus(tmp_path, lines)
        write_packed(out2, p2)
        assert out1.read_bytes() == out2.read_bytes()


class TestPackedCorpus:
    """A PackedCorpus is checked when it is built, so none holds a bad row
    or a domain without rows."""

    def test_empty_domain_rejected(self, rng):
        with pytest.raises(CorpusError, match="domain 'dom1' has no packed examples"):
            packed_corpus(rng, [2, 0, 1])

    def test_row_without_cls_rejected(self, rng):
        good = packed_corpus(rng, [2, 1, 1])
        good.ids[1, 0] = SEP_ID
        with pytest.raises(CorpusError, match=r"example 1: row does not start with \[CLS\]"):
            PackedCorpus(good.ids, good.valid_lens, good.domains, good.table, 20)


class TestFileFormats:
    def test_packed_round_trip(self, tmp_path):
        packed, _ = build_tiny_corpus(
            tmp_path, ["a\tone two three four", "b\tfive six", "a\tseven"]
        )
        out = tmp_path / "packed.tsv"
        write_packed(out, packed)
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("DOMPACK v1 ")
        restored = read_packed(out, packed.table)
        assert np.array_equal(restored.ids, packed.ids)
        assert np.array_equal(restored.valid_lens, packed.valid_lens)
        assert np.array_equal(restored.domains, packed.domains)

    def test_packed_bad_header(self, tmp_path):
        packed, _ = build_tiny_corpus(tmp_path, ["a\tone", "b\ttwo"])
        out = tmp_path / "packed.tsv"
        out.write_text("NOTPACK v9\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_packed(out, packed.table)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_row_length_below_one_refused_without_rows(self, tmp_path, max_len):
        out = tmp_path / "packed.tsv"
        out.write_text(f"DOMPACK v1 L_max={max_len} n_plus_1=2 vocab_size=9\n",
                       encoding="utf-8")
        with pytest.raises(CorpusError, match=f"rows of {max_len} ids"):
            read_packed(out, DomainTable(["a", "b"], 0, [0, 0]))

    def test_vocab_round_trip(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma alpha"], min_count=1, max_size=10)
        out = tmp_path / "vocab.tsv"
        write_vocab(out, vocab)
        restored = read_vocab(out)
        assert restored.id_to_token == vocab.id_to_token

    def test_domain_table_round_trip(self, tmp_path):
        packed, _ = build_tiny_corpus(tmp_path, ["a\tone two", "b\tthree"])
        out = tmp_path / "domains.tsv"
        write_domain_table(out, packed.table)
        restored = read_domain_table(out)
        assert restored.names == packed.table.names
        assert restored.counts == packed.table.counts
        assert restored.target_index == packed.table.target_index


def edit_first_row(edit):
    """A corruption of an ingest directory that rewrites the first packed row
    as edit(domain_id, valid_len, ids, corpus) -> (domain_id, valid_len, ids)."""
    def corrupt(root, packed):
        path = root / "packed.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        did, valid_len, ids = lines[1].split("\t")
        did, valid_len, ids = edit(int(did), int(valid_len),
                                   [int(v) for v in ids.split(" ")], packed)
        lines[1] = f"{did}\t{valid_len}\t{' '.join(map(str, ids))}"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return corrupt


def miscount_first_domain(root, packed, by=1):
    path = root / "domains.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    ident, name, count = lines[1].split("\t")
    lines[1] = f"{ident}\t{name}\t{int(count) + by}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def not_utf8(name):
    """A corruption that ends file `name` with a byte that is not UTF-8."""
    def corrupt(root, packed):
        path = root / name
        path.write_bytes(path.read_bytes()[:-1] + b"\xff\n")
    return corrupt


BEYOND_INT64 = 99999999999999999999

CORRUPTIONS = {
    "wrong id count": edit_first_row(lambda d, n, ids, c: (d, n, ids[:-1])),
    "no leading [CLS]": edit_first_row(lambda d, n, ids, c: (d, n, [SEP_ID] + ids[1:])),
    "pad inside the valid region": edit_first_row(
        lambda d, n, ids, c: (d, n, ids[:1] + [PAD_ID] + ids[2:])),
    "token in the padding": edit_first_row(
        lambda d, n, ids, c: (d, n, ids[:-1] + [SEP_ID])),
    "token id at vocab_size": edit_first_row(
        lambda d, n, ids, c: (d, n, ids[:1] + [c.vocab_size] + ids[2:])),
    "domain id at n_plus_1": edit_first_row(
        lambda d, n, ids, c: (c.table.n_plus_1, n, ids)),
    "negative domain id": edit_first_row(lambda d, n, ids, c: (-1, n, ids)),
    "token id beyond int64": edit_first_row(
        lambda d, n, ids, c: (d, n, ids[:1] + [BEYOND_INT64] + ids[2:])),
    "valid_len beyond int64": edit_first_row(lambda d, n, ids, c: (d, BEYOND_INT64, ids)),
    "domain id beyond int64": edit_first_row(lambda d, n, ids, c: (BEYOND_INT64, n, ids)),
    "table counts beyond the packed file": lambda root, packed: miscount_first_domain(
        root, packed, by=10**15),
    "table counts disagree with the rows": miscount_first_domain,
    "packed file not UTF-8": not_utf8("packed.tsv"),
    "domain table not UTF-8": not_utf8("domains.tsv"),
}


class TestIngestDirectory:
    def _write(self, tmp_path):
        packed, vocab = build_tiny_corpus(
            tmp_path, ["a\tone two three", "b\tfour five", "a\tsix"])
        root = tmp_path / "ingested"
        write_ingested(root, packed, vocab)
        return root, packed

    def test_directory_or_packed_file_round_trip(self, tmp_path):
        root, packed = self._write(tmp_path)
        assert sorted(p.name for p in root.iterdir()) == [
            "domains.tsv", "packed.tsv", "stats.tsv", "vocab.tsv"]
        for path in (root, root / "packed.tsv"):
            restored = read_ingested(path)
            assert restored.table.counts == packed.table.counts
            assert restored.domains.tolist() == packed.domains.tolist()

    @pytest.mark.parametrize("name", ["packed.tsv", "vocab.tsv", "domains.tsv", "stats.tsv"])
    def test_failed_rewrite_keeps_the_earlier_file(self, tmp_path, name):
        """A write that fails partway leaves the old bytes and no .tmp file."""
        root, packed = self._write(tmp_path)
        table, vocab, path = packed.table, read_vocab(root / "vocab.tsv"), root / name
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        rewrite = {
            "packed.tsv": lambda: write_packed(path, SimpleNamespace(
                ids=packed.ids, valid_lens=packed.valid_lens, table=table,
                domains=SimpleNamespace(tolist=lambda: failing_partway(packed.domains.tolist())),
                vocab_size=packed.vocab_size)),
            "vocab.tsv": lambda: write_vocab(path, SimpleNamespace(
                size=vocab.size, id_to_token=failing_partway(vocab.id_to_token))),
            "domains.tsv": lambda: write_domain_table(path, SimpleNamespace(
                n_plus_1=table.n_plus_1, target_index=table.target_index,
                names=failing_partway(table.names), counts=table.counts)),
            "stats.tsv": lambda: write_stats(path, failing_partway(corpus_stats(table))),
        }[name]
        with pytest.raises(OSError, match="No space left"):
            rewrite()
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before
        read_ingested(root)

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_is_a_corpus_error(self, tmp_path, case):
        root, packed = self._write(tmp_path)
        CORRUPTIONS[case](root, packed)
        with pytest.raises(CorpusError):
            read_ingested(root)

    @pytest.mark.parametrize("case", [case for case in CORRUPTIONS if "int64" in case])
    def test_a_value_beyond_int64_names_its_line(self, tmp_path, case):
        root, packed = self._write(tmp_path)
        CORRUPTIONS[case](root, packed)
        with pytest.raises(CorpusError, match="^line 2: "):
            read_ingested(root)


def rewrite_first_field(root, field, edit):
    """Replace field `field` of packed.tsv's first row with edit(its text)."""
    path = root / "packed.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[field] = edit(fields[field])
    lines[1] = "\t".join(fields)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def rewrite_first_ids(root, edit):
    """Replace the id field of packed.tsv's first row with edit(its id strings)."""
    rewrite_first_field(root, 2, lambda ids: edit(ids.split(" ")))


def with_second(value):
    return lambda ids: " ".join(ids[:1] + [value] + ids[2:])


# Id fields that the per-token int() reader refused too.
REFUSED_ID_FIELDS = {
    "decimal point": lambda ids: " ".join(ids[:1] + [ids[1] + ".0"] + ids[2:]),
    "minus inside an id": with_second("1-2"),
    "lone minus": with_second("-"),
    "double minus": with_second("--1"),
    "empty field": lambda ids: "",
    "double space": lambda ids: "  ".join(ids[:2]) + " " + " ".join(ids[2:]),
    "trailing space": lambda ids: " ".join(ids) + " ",
    "leading space": lambda ids: " " + " ".join(ids),
    "one id too many": lambda ids: " ".join(ids + ["0"]),
    "one id too few": lambda ids: " ".join(ids[:-1]),
}

# Id fields that only per-token int() accepted: the reader takes the ids
# write_packed writes, ASCII decimal, 18 digits at most.
TIGHTENED_ID_FIELDS = {
    "plus sign": with_second("+5"),
    "digit separator": with_second("1_0"),
    "Arabic-Indic digit": with_second("\u0665"),
}

# Domain and valid_len fields that only int() accepted, as edits of the
# number write_packed wrote there.
TIGHTENED_NUMBER_FIELDS = {
    "plus sign": lambda n: "+" + n,
    "digit separator": lambda n: "0_" + n,
    "Arabic-Indic digits": lambda n: "".join(chr(0x660 + int(c)) for c in n),
    "leading space": lambda n: " " + n,
    "trailing space": lambda n: n + " ",
}


class TestReadPackedIdFields:
    _write = TestIngestDirectory._write

    @pytest.mark.parametrize("case", sorted(REFUSED_ID_FIELDS))
    def test_refused_field_names_its_line(self, tmp_path, case):
        root, packed = self._write(tmp_path)
        rewrite_first_ids(root, REFUSED_ID_FIELDS[case])
        with pytest.raises(CorpusError, match="line 2"):
            reference_read_packed(root / "packed.tsv", packed.table)
        with pytest.raises(CorpusError, match="^line 2: "):
            read_ingested(root)

    @pytest.mark.parametrize("case", sorted(TIGHTENED_ID_FIELDS))
    def test_field_only_int_accepted_is_refused(self, tmp_path, case):
        root, packed = self._write(tmp_path)
        rewrite_first_ids(root, TIGHTENED_ID_FIELDS[case])
        reference_read_packed(root / "packed.tsv", packed.table)
        with pytest.raises(CorpusError, match="^line 2: unparseable example"):
            read_ingested(root)

    @pytest.mark.parametrize("field", [0, 1], ids=["domain", "valid_len"])
    @pytest.mark.parametrize("case", sorted(TIGHTENED_NUMBER_FIELDS))
    def test_number_only_int_accepted_is_refused(self, tmp_path, case, field):
        root, packed = self._write(tmp_path)
        rewrite_first_field(root, field, TIGHTENED_NUMBER_FIELDS[case])
        reference_read_packed(root / "packed.tsv", packed.table)
        with pytest.raises(CorpusError, match="^line 2: unparseable example"):
            read_ingested(root)

    def test_rows_are_views_of_one_array(self, tmp_path):
        root, packed = self._write(tmp_path)
        restored = read_ingested(root)
        n, max_len = len(packed.ids), packed.ids.shape[1]
        assert restored.ids.shape == (n, max_len) and restored.ids.flags.c_contiguous
        assert restored.valid_lens.shape == restored.domains.shape == (n,)
        assert all(np.shares_memory(row, restored.ids) for row in restored.ids)


# The integer fields of the table files: file, line (1 is the header) and the
# pattern of the field's digits on that line.
TABLE_INTEGER_FIELDS = {
    "domains n_plus_1": ("domains.tsv", 1, r"(?<=n_plus_1=)[0-9]+"),
    "domains target": ("domains.tsv", 1, r"(?<=target=)[0-9]+"),
    "domain id": ("domains.tsv", 2, r"^[0-9]+"),
    "domain count": ("domains.tsv", 2, r"[0-9]+$"),
    "vocabulary size": ("vocab.tsv", 1, r"(?<=size=)[0-9]+"),
    "token id": ("vocab.tsv", 2, r"^[0-9]+"),
}


@pytest.mark.parametrize("case, field", [
    (case, field) for case in sorted(TIGHTENED_NUMBER_FIELDS) for field in TABLE_INTEGER_FIELDS
    # a space splits a header's fields, and was refused before
    if not ("space" in case and TABLE_INTEGER_FIELDS[field][1] == 1)])
def test_table_integer_form_no_writer_writes_is_refused(tmp_path, case, field):
    """The table files' integers hold the decimal form their writers write;
    the other forms int() reads are a CorpusError naming the file and line."""
    root, _ = TestIngestDirectory()._write(tmp_path)
    name, lineno, digits = TABLE_INTEGER_FIELDS[field]
    path = root / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = re.sub(digits, lambda m: TIGHTENED_NUMBER_FIELDS[case](m[0]),
                               lines[lineno - 1], count=1)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    read = read_domain_table if name == "domains.tsv" else read_vocab
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))} line {lineno}: "):
        read(path)


def test_validate_packed_makes_no_row_sized_copy(tmp_path, rng):
    """On a read corpus shaped like the 128-domain pool's (10,197 rows of 32
    ids), checking the rows in place allocates less than the ids hold."""
    counts = [80] * 127 + [10197 - 80 * 127]
    path = tmp_path / "packed.tsv"
    write_packed(path, packed_corpus(rng, counts, max_len=32, vocab_size=8005))
    restored = read_packed(path, DomainTable([f"dom{i}" for i in range(128)], 0, counts))
    tracemalloc.start()
    try:
        validate_packed(restored)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < restored.ids.nbytes, (peak, restored.ids.nbytes)


def reference_ingest(corpus_path, target, min_count, max_vocab, max_len, out):
    """The ingest directory as the per-token reference path writes it."""
    table, records = load_corpus(corpus_path, target)
    vocab = reference_build_vocab([text for _, text in records], min_count, max_vocab)
    ids_by_name = {name: i for i, name in enumerate(table.names)}
    by_domain = [[] for _ in table.names]
    for name, text in records:
        by_domain[ids_by_name[name]].append(reference_tokenize(text, vocab))
    rows = [reference_pack_domain(docs, did, max_len) for did, docs in enumerate(by_domain)]
    own = DomainTable(list(table.names), table.target_index, [len(r) for r in rows])
    packed = corpus_of([ex for r in rows for ex in r], own, max_len, vocab.size)
    out.mkdir()
    reference_write_packed(out / "packed.tsv", packed)
    write_vocab(out / "vocab.tsv", vocab)
    write_domain_table(out / "domains.tsv", own)
    write_stats(out / "stats.tsv", corpus_stats(own))


WORDS = ["Alpha", "alpha", "ALPHA", "beta", "Beta", "école", "École", "naïve", "straße",
         "東京", "ω", "Ω", "x1", "don't", ",", ".", "!?", "—", "(", "42", "_", "über-cool"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=14).map(" ".join),
    st.sampled_from(["", " ", "   ", "\u00a0", " \u3000 "]),  # empty or whitespace only
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
            max_size=24),
)


class TestIngestMatchesReference:
    """The array-backed ingest writes the reference path's bytes and reads
    back the reference reader's rows."""

    def _check(self, records, min_count, max_vocab, max_len):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            evalbench.write_corpus(tmp / "corpus.tsv", records)
            target = records[0][0]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main(["ingest", "--corpus", str(tmp / "corpus.tsv"),
                                   "--target", target, "--min-count", str(min_count),
                                   "--max-vocab", str(max_vocab), "--max-len", str(max_len),
                                   "--out", str(tmp / "new")])
            try:
                reference_ingest(tmp / "corpus.tsv", target, min_count, max_vocab, max_len,
                                 tmp / "ref")
            except CorpusError as exc:  # a domain left without rows
                assert (status, err.getvalue()) == (1, f"error: {exc}\n")
                return
            assert status == 0, err.getvalue()
            for name in ("packed.tsv", "vocab.tsv", "domains.tsv", "stats.tsv"):
                assert (tmp / "new" / name).read_bytes() == (tmp / "ref" / name).read_bytes()
            restored = read_ingested(tmp / "new")
            reference = reference_read_packed(tmp / "ref" / "packed.tsv",
                                              read_domain_table(tmp / "ref" / "domains.tsv"))
            assert np.array_equal(restored.ids, reference.ids)
            assert np.array_equal(restored.valid_lens, reference.valid_lens)
            assert np.array_equal(restored.domains, reference.domains)

    @given(records=st.lists(st.tuples(st.sampled_from(["a", "b", "Ωmega", "d 4"]), TEXTS),
                            min_size=1, max_size=30),
           min_count=st.sampled_from([1, 2]),
           max_vocab=st.integers(min_value=0, max_value=30),
           max_len=st.integers(min_value=3, max_value=12))
    # min_count 2 keeps b, c, d, zeta and é (two each); the cut at 2 falls
    # inside that tie, and domain b's words all become [UNK]
    @example(records=[("a", "Zeta zeta b b c, c d d É é"), ("b", "x y")],
             min_count=2, max_vocab=2, max_len=4)
    @settings(max_examples=60, deadline=None)
    def test_files_and_rows_match_the_reference(self, records, min_count, max_vocab, max_len):
        self._check(records, min_count, max_vocab, max_len)

    def test_default_synthetic_corpus(self):
        records, _ = evalbench.gen_synthetic_corpus(evalbench.SyntheticSpec(
            docs_per_domain=20, seed=3))
        shuffled = [records[i] for i in np.random.default_rng(0).permutation(len(records))]
        self._check(shuffled, 1, 8000, 32)


def test_ingest_splits_each_record_once(tmp_path, monkeypatch):
    records = [("a", "One two, three"), ("b", ""), ("a", "two Two"), ("b", "four")]
    evalbench.write_corpus(tmp_path / "corpus.tsv", records)
    seen = []

    def counted(text):
        seen.append(text)
        return word_tokens(text)

    monkeypatch.setattr(corpuslib, "word_tokens", counted)
    assert cli.main(["ingest", "--corpus", str(tmp_path / "corpus.tsv"), "--target", "a",
                     "--max-len", "8", "--out", str(tmp_path / "out")]) == 0
    assert sorted(seen) == sorted(text for _, text in records)
