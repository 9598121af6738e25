import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dombert.corpus import (
    CLS_ID,
    NUM_RESERVED,
    PAD_ID,
    SEP_ID,
    UNK_ID,
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
    write_vocab,
)
from dombert.errors import ConfigError, CorpusError


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
        from dombert.corpus import DomainTable

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
        assert sum(packed.table.counts) == len(packed.examples)
        validate_packed(packed)

    def test_deterministic_output(self, tmp_path):
        lines = ["a\thello world", "b\tlorem ipsum dolor", "a\tmore text here"]
        p1, _ = build_tiny_corpus(tmp_path, lines)
        out1 = tmp_path / "p1.tsv"
        out2 = tmp_path / "p2.tsv"
        write_packed(out1, p1)
        p2, _ = build_tiny_corpus(tmp_path, lines)
        write_packed(out2, p2)
        assert out1.read_bytes() == out2.read_bytes()


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
        assert len(restored.examples) == len(packed.examples)
        for a, b in zip(restored.examples, packed.examples):
            assert np.array_equal(a.ids, b.ids)
            assert a.valid_len == b.valid_len
            assert a.domain_id == b.domain_id

    def test_packed_bad_header(self, tmp_path):
        packed, _ = build_tiny_corpus(tmp_path, ["a\tone", "b\ttwo"])
        out = tmp_path / "packed.tsv"
        out.write_text("NOTPACK v9\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_packed(out, packed.table)

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


def miscount_first_domain(root, packed):
    path = root / "domains.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    ident, name, count = lines[1].split("\t")
    lines[1] = f"{ident}\t{name}\t{int(count) + 1}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def not_utf8(name):
    """A corruption that ends file `name` with a byte that is not UTF-8."""
    def corrupt(root, packed):
        path = root / name
        path.write_bytes(path.read_bytes()[:-1] + b"\xff\n")
    return corrupt


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
            assert [ex.domain_id for ex in restored.examples] == [
                ex.domain_id for ex in packed.examples]

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_is_a_corpus_error(self, tmp_path, case):
        root, packed = self._write(tmp_path)
        CORRUPTIONS[case](root, packed)
        with pytest.raises(CorpusError):
            read_ingested(root)
