"""Domain-tagged corpus loading, vocabulary building, and example packing.

Input format (dom-corpus v1): UTF-8 text, one record per line,
``domain_name<TAB>document_text``, no escaping, empty lines skipped.
Domain names must not contain TAB.

This module is the one writer and the one reader of the ingest directory
(``packed.tsv``, ``vocab.tsv``, ``domains.tsv``, ``stats.tsv``); every read
turns a malformed file into a CorpusError.
"""
from __future__ import annotations

import os
import re
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, CorpusError
from .nputil import open_replacing

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
NUM_RESERVED = len(RESERVED_TOKENS)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

PACKED_MAGIC = "DOMPACK v1"
VOCAB_MAGIC = "DOMVOCAB v1"
TABLE_MAGIC = "DOMTABLE v1"

PACKED_FILE = "packed.tsv"
VOCAB_FILE = "vocab.tsv"
DOMAINS_FILE = "domains.tsv"
STATS_FILE = "stats.tsv"


def word_tokens(text: str) -> list[str]:
    """Lowercased word-level split; punctuation marks become their own tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class DomainTable:
    """All domain names in first-seen order, the target index, and per-domain
    packed-example counts (zeros until pack_corpus builds a packed table)."""

    names: list[str]
    target_index: int
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise CorpusError("duplicate domain names")
        if not 0 <= self.target_index < len(self.names):
            raise ConfigError(f"target index {self.target_index} out of range")
        if not self.counts:
            self.counts = [0] * len(self.names)

    @property
    def n_plus_1(self) -> int:
        return len(self.names)


class Vocabulary:
    """Bijection between retained token strings and ids >= NUM_RESERVED.

    Ids 0..4 are fixed: [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3, [MASK]=4.
    """

    def __init__(self, retained: list[str]):
        self.id_to_token = RESERVED_TOKENS + list(retained)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)


@dataclass(eq=False, slots=True)
class PackedExample:
    """One fixed-capacity token-id row of same-domain documents, as a sampler
    draw or pack_domain hands it out.

    ids[0] is [CLS]; document boundaries inside the row are [SEP]; positions
    at and beyond valid_len are [PAD].
    """

    ids: np.ndarray
    valid_len: int
    domain_id: int


@dataclass
class PackedCorpus:
    """N packed rows as three arrays, the (N, max_len) ids, the (N,) valid
    lengths and the (N,) domain ids, beside their domain table; checked by
    validate_packed when built: a corpus that exists holds at least one row
    of every domain."""

    ids: np.ndarray
    valid_lens: np.ndarray
    domains: np.ndarray
    table: DomainTable
    vocab_size: int

    def __post_init__(self) -> None:
        validate_packed(self)


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file for reading; bytes that are not UTF-8 are a CorpusError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text") from exc


def read_records(path: str | Path) -> list[tuple[str, str]]:
    """The (domain name, text) records of a dom-corpus v1 file, in file order."""
    records: list[tuple[str, str]] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise CorpusError(f"line {lineno}: missing TAB separator")
            name, text = line.split("\t", 1)
            records.append((name, text))
    if not records:
        raise CorpusError("empty corpus")
    return records


def load_corpus(path: str | Path, target: str) -> tuple[DomainTable, list[tuple[str, str]]]:
    """Read a dom-corpus v1 file; returns the domain table and raw records.

    Domain names are enumerated in first-seen order. `target` selects the
    target domain by name and must be present.
    """
    records = read_records(path)
    names = list(dict.fromkeys(name for name, _ in records))
    if target not in names:
        raise ConfigError(f"target domain {target!r} not present in corpus")
    return DomainTable(names=names, target_index=names.index(target)), records


class _FirstSeen(dict):
    """Word -> index in first-seen order; a lookup of a new word adds it."""

    def __missing__(self, word: str) -> int:
        self[word] = index = len(self)
        return index


@dataclass
class TokenStream:
    """The word tokens of a list of texts, split once: every token as its
    index into `words` (distinct words in first-seen order), all texts
    end to end in `ids`; text i is ids[offsets[i]:offsets[i + 1]]."""

    words: list[str]
    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, texts: Iterable[str]) -> TokenStream:
        index = _FirstSeen()
        ids, offsets = array("q"), array("q", [0])
        for text in texts:
            ids.extend(map(index.__getitem__, word_tokens(text)))
            offsets.append(len(ids))
        return cls(list(index), np.frombuffer(ids, dtype=np.int64),
                   np.frombuffer(offsets, dtype=np.int64))

    def vocabulary(self, min_count: int, max_size: int) -> Vocabulary:
        """The most frequent words with count >= min_count, at most max_size
        of them; ties at equal count break lexicographically."""
        if min_count < 1:
            raise ConfigError("min_count must be >= 1")
        if max_size < 0:
            raise ConfigError("max vocabulary size must be >= 0")
        counts = np.bincount(self.ids, minlength=len(self.words)).tolist()
        kept = [i for i, c in enumerate(counts) if c >= min_count]
        kept.sort(key=lambda i: (-counts[i], self.words[i]))
        return Vocabulary([self.words[i] for i in kept[:max_size]])

    def ids_in(self, vocab: Vocabulary) -> np.ndarray:
        """Every token's id in vocab, [UNK] for words it lacks."""
        get = vocab.token_to_id.get
        lookup = np.array([get(w, UNK_ID) for w in self.words], dtype=np.int64)
        return lookup[self.ids]


def build_vocab(texts: list[str], min_count: int, max_size: int) -> Vocabulary:
    """Most frequent word tokens with count >= min_count, at most max_size of
    them; ties at equal count break lexicographically."""
    return TokenStream.of(texts).vocabulary(min_count, max_size)


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for a text; out-of-vocabulary words map to [UNK]."""
    return list(map(vocab.token_to_id.get, word_tokens(text), repeat(UNK_ID)))


def _cut_rows(stream: np.ndarray, dom_len: np.ndarray,
              max_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every domain's token stream cut into [CLS]-prefixed rows of capacity
    max_len - 1, its last row padded: the (N, max_len) rows, their valid
    lengths and their domains. stream holds the domains' streams end to
    end, domain d's dom_len[d] long."""
    if max_len < 3:
        raise ConfigError("max_len must be >= 3")
    capacity = max_len - 1
    n_rows = -(-dom_len // capacity)
    rows = np.full((int(n_rows.sum()), max_len), PAD_ID, dtype=np.int64)
    rows[:, 0] = CLS_ID
    valid = np.full(len(rows), max_len, dtype=np.int64)
    start = row = 0
    for length, k in zip(dom_len.tolist(), n_rows.tolist()):
        if k:
            rows[row:row + k, 1:].flat[:length] = stream[start:start + length]
            valid[row + k - 1] = 1 + length - (k - 1) * capacity
        start, row = start + length, row + k
    return rows, valid, np.repeat(np.arange(len(dom_len)), n_rows)


def pack_domain(docs: list[list[int]], domain_id: int, max_len: int) -> list[PackedExample]:
    """Greedy packing of one domain's token-id documents in input order.

    Each non-empty document contributes its tokens followed by one [SEP]; the
    resulting stream is cut into [CLS]-prefixed rows of capacity max_len - 1,
    so a document that does not fit is split and its remainder carries into
    the next row. The final row is padded to max_len.
    """
    docs = list(filter(None, docs))
    size = sum(map(len, docs)) + len(docs)
    stream = np.fromiter(chain.from_iterable(map(chain, docs, repeat((SEP_ID,)))),
                         np.int64, size)
    rows, valid, _ = _cut_rows(stream, np.array([size]), max_len)
    return [PackedExample(ids=r, valid_len=v, domain_id=domain_id)
            for r, v in zip(rows, valid.tolist())]


def pack_corpus(
    table: DomainTable,
    records: list[tuple[str, str]],
    vocab: Vocabulary,
    max_len: int,
    tokens: TokenStream | None = None,
) -> PackedCorpus:
    """Tokenize and pack every domain; the corpus gets a table of its own
    with table's names and target and the packed counts. tokens, when the
    caller has it, is the TokenStream of the records' texts, which are then
    not split again.

    Records whose text tokenizes to nothing are dropped, and a domain left
    with no rows is a CorpusError. Output order is domain id ascending, then
    packing order within the domain; a domain's rows are pack_domain's of
    its documents.
    """
    if tokens is None:
        tokens = TokenStream.of(text for _, text in records)
    ids_by_name = {n: i for i, n in enumerate(table.names)}
    doc_domain = np.array([ids_by_name[name] for name, _ in records], dtype=np.int64)
    ids, lens = tokens.ids_in(vocab), np.diff(tokens.offsets)
    if (np.diff(doc_domain) < 0).any():  # bring each domain's documents together
        order = np.argsort(doc_domain, kind="stable")
        ids = np.concatenate([ids[tokens.offsets[i]:tokens.offsets[i + 1]]
                              for i in order.tolist()])
        lens, doc_domain = lens[order], doc_domain[order]
    # the domains' streams end to end: each non-empty document's tokens, then [SEP]
    stream = np.insert(ids, np.cumsum(lens)[lens > 0], SEP_ID)
    dom_len = np.bincount(doc_domain, weights=lens + (lens > 0),
                          minlength=table.n_plus_1).astype(np.int64)
    rows, valid, row_domain = _cut_rows(stream, dom_len, max_len)
    counts = np.bincount(row_domain, minlength=table.n_plus_1).tolist()
    own_table = DomainTable(list(table.names), table.target_index, counts)
    return PackedCorpus(rows, valid, row_domain, own_table, vocab.size)


def corpus_stats(table: DomainTable) -> list[tuple[str, int]]:
    """(domain name, packed-example count) sorted by count descending,
    ties by name ascending."""
    return sorted(
        zip(table.names, table.counts), key=lambda item: (-item[1], item[0])
    )


def validate_packed(corpus: PackedCorpus) -> None:
    """Check every row's invariants on the corpus arrays in place (no copy of
    the ids), the table's counts against the rows, and that every domain has
    a row, the target first; raises CorpusError naming the lowest bad example
    index or the empty domain."""
    ids, lens, dom = corpus.ids, corpus.valid_lens, corpus.domains
    max_len = ids.shape[1]
    in_valid = np.arange(max_len) < lens[:, None]
    misplaced = (ids == PAD_ID) == in_valid  # a pad inside the valid region, or a token after it
    # in each row's order of precedence: the first true check names the fault
    checks = [
        (ids[:, 0] != CLS_ID, "row does not start with [CLS]"),
        ((lens < 1) | (lens > max_len), "bad valid_len {valid_len}"),
        ((misplaced & ~in_valid).any(axis=1), "non-pad token in padding region"),
        ((misplaced & in_valid).any(axis=1), "pad token inside valid region"),
        ((ids.min(axis=1) < 0) | (ids.max(axis=1) >= corpus.vocab_size),
         "token id out of range"),
        ((dom < 0) | (dom >= corpus.table.n_plus_1), "domain id out of range"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in checks]))
    if bad.size:
        i = int(bad[0])
        message = next(text for flags, text in checks if flags[i])
        raise CorpusError(f"example {i}: " + message.format(valid_len=lens[i]))
    counts = np.bincount(dom, minlength=corpus.table.n_plus_1).tolist()
    if counts != list(corpus.table.counts):
        raise CorpusError("table counts disagree with packed examples")
    if counts[corpus.table.target_index] < 1:
        raise CorpusError("target domain has no packed examples")
    if 0 in counts:
        raise CorpusError(f"domain {corpus.table.names[counts.index(0)]!r} has no packed examples")


# ---------------------------------------------------------------------------
# File formats


def write_ingested(out_dir: str | Path, packed: PackedCorpus, vocab: Vocabulary) -> None:
    """Write the ingest directory: packed rows, vocabulary, domain table and
    the rank-size stats of the table's counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_packed(out / PACKED_FILE, packed)
    write_vocab(out / VOCAB_FILE, vocab)
    write_domain_table(out / DOMAINS_FILE, packed.table)
    write_stats(out / STATS_FILE, corpus_stats(packed.table))


def read_ingested(path: str | Path) -> PackedCorpus:
    """The checked corpus of an ingest directory, given the directory or the
    packed file inside it; the domain table is read beside the packed file."""
    path = Path(path)
    if path.is_dir():
        path = path / PACKED_FILE
    return read_packed(path, read_domain_table(path.parent / DOMAINS_FILE))


# A number as the writers write it: decimal digits after an optional minus.
# 18 digits always fit int64, which np.fromstring would silently clip.
_NUMBER = "-?[0-9]{1,18}"
_DECIMAL = re.compile(_NUMBER)


def _read_header(fh: TextIO, magic: str, keys: tuple[str, ...], what: str) -> list[int]:
    """The integer values of `keys` in a ``magic key=value ...`` header line."""
    header = fh.readline().rstrip("\n")
    fields = header.split(" ")
    if fields[:2] == magic.split(" "):
        try:
            kv = dict(f.split("=", 1) for f in fields[2:])
            if all(_DECIMAL.fullmatch(kv[key]) for key in keys):
                return [int(kv[key]) for key in keys]
        except (KeyError, ValueError):
            pass
    raise CorpusError(f"{fh.name} line 1: bad {what} header: {header!r}")


def _read_rows(fh: TextIO, n: int, row: re.Pattern, what: str) -> list[tuple[str, ...]]:
    """The groups after the first of each line's fullmatch of `row`, in id
    order: the first group is the id, and the ids must be 0..n-1, each
    exactly once. A line that `row` does not match is a CorpusError."""
    rows: dict[int, tuple[str, ...]] = {}
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = row.fullmatch(line)
        if fields is None:
            raise CorpusError(f"{fh.name} line {lineno}: expected {what}")
        ident = int(fields[1])
        if not 0 <= ident < n or ident in rows:
            raise CorpusError(f"{fh.name} line {lineno}: id {ident} out of range or repeated")
        rows[ident] = fields.groups()[1:]
    if len(rows) != n:
        raise CorpusError(f"{fh.name} has {len(rows)} rows, its header says {n}")
    return [rows[i] for i in range(n)]


def write_packed(path: str | Path, corpus: PackedCorpus) -> None:
    """Packed-corpus file: one header line, then one line per example
    ``domain_id<TAB>valid_len<TAB>space-separated ids`` (all max_len ids)."""
    max_len = corpus.ids.shape[1]
    line = "%d\t%d\t" + " ".join(["%d"] * max_len) + "\n"
    with open_replacing(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{PACKED_MAGIC} L_max={max_len} "
            f"n_plus_1={corpus.table.n_plus_1} vocab_size={corpus.vocab_size}\n"
        )
        for did, valid_len, ids in zip(corpus.domains.tolist(), corpus.valid_lens.tolist(),
                                       corpus.ids):
            fh.write(line % (did, valid_len, *ids.tolist()))


# The rows as write_packed, write_vocab and write_domain_table write them:
# decimal numbers, a packed row's ids one space apart.
_ROW = re.compile(rf"{_NUMBER}\t{_NUMBER}\t{_NUMBER}(?: {_NUMBER})*")
_VOCAB_ROW = re.compile(rf"({_NUMBER})\t([^\t]*)")
_TABLE_ROW = re.compile(rf"({_NUMBER})\t([^\t]*)\t({_NUMBER})")


def read_packed(path: str | Path, table: DomainTable) -> PackedCorpus:
    """The packed rows of `path` as one array of the table's row count,
    checked against `table` and its counts."""
    with open_text(path) as fh:
        max_len, n_plus_1, vocab_size = _read_header(
            fh, PACKED_MAGIC, ("L_max", "n_plus_1", "vocab_size"), "packed-corpus")
        if n_plus_1 != table.n_plus_1:
            raise CorpusError(
                f"packed corpus has {n_plus_1} domains, table has {table.n_plus_1}"
            )
        n = sum(table.counts)
        # a row's line holds at least its max_len ids and their spaces
        if max_len < 1 or not 0 <= n * 2 * max_len <= os.fstat(fh.fileno()).st_size:
            raise CorpusError(f"the packed file cannot hold the domain table's {n} rows"
                              f" of {max_len} ids")
        rows = np.empty((n, max_len), dtype=np.int64)
        valid_lens = np.empty(n, dtype=np.int64)
        domains = np.empty(n, dtype=np.int64)
        i = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: expected 3 TAB-separated fields")
            if i == n:
                raise CorpusError("table counts disagree with packed examples")
            if not _ROW.fullmatch(line):
                raise CorpusError(f"line {lineno}: unparseable example")
            ids = np.fromstring(parts[2], dtype=np.int64, sep=" ")
            if ids.shape != (max_len,):
                raise CorpusError(f"line {lineno}: expected {max_len} ids")
            rows[i], valid_lens[i], domains[i] = ids, int(parts[1]), int(parts[0])
            i += 1
    return PackedCorpus(rows[:i], valid_lens[:i], domains[:i], table, vocab_size)


def write_vocab(path: str | Path, vocab: Vocabulary) -> None:
    with open_replacing(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_MAGIC} size={vocab.size}\n")
        for i, tok in enumerate(vocab.id_to_token):
            fh.write(f"{i}\t{tok}\n")


def read_vocab(path: str | Path) -> Vocabulary:
    with open_text(path) as fh:
        (size,) = _read_header(fh, VOCAB_MAGIC, ("size",), "vocabulary")
        tokens = [tok for tok, in _read_rows(fh, size, _VOCAB_ROW, "a decimal id<TAB>token")]
    if tokens[:NUM_RESERVED] != RESERVED_TOKENS:
        raise CorpusError("vocabulary file lacks the reserved tokens")
    return Vocabulary(tokens[NUM_RESERVED:])


def write_domain_table(path: str | Path, table: DomainTable) -> None:
    with open_replacing(path, "w", encoding="utf-8") as fh:
        fh.write(f"{TABLE_MAGIC} n_plus_1={table.n_plus_1} target={table.target_index}\n")
        for i, name in enumerate(table.names):
            fh.write(f"{i}\t{name}\t{table.counts[i]}\n")


def read_domain_table(path: str | Path) -> DomainTable:
    with open_text(path) as fh:
        n_plus_1, target = _read_header(fh, TABLE_MAGIC, ("n_plus_1", "target"),
                                        "domain-table")
        rows = _read_rows(fh, n_plus_1, _TABLE_ROW,
                          "a decimal id<TAB>name<TAB>decimal count")
    return DomainTable(names=[name for name, _ in rows], target_index=target,
                       counts=[int(count) for _, count in rows])


def write_stats(path: str | Path, stats: list[tuple[str, int]]) -> None:
    """Rank-size report: ``rank<TAB>name<TAB>count``, rank starting at 1."""
    with open_replacing(path, "w", encoding="utf-8") as fh:
        for rank, (name, count) in enumerate(stats, start=1):
            fh.write(f"{rank}\t{name}\t{count}\n")
