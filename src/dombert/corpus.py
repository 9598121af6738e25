"""Domain-tagged corpus loading, vocabulary building, and example packing.

Input format (dom-corpus v1): UTF-8 text, one record per line,
``domain_name<TAB>document_text``, no escaping, empty lines skipped.
Domain names must not contain TAB.

This module is the one writer and the one reader of the ingest directory
(``packed.tsv``, ``vocab.tsv``, ``domains.tsv``, ``stats.tsv``); every read
turns a malformed file into a CorpusError.
"""
from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, CorpusError

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
    packed-example counts (filled in after packing)."""

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

    def domain_id(self, name: str) -> int:
        return self.names.index(name)


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


@dataclass(eq=False)
class PackedExample:
    """Fixed-capacity token-id row built from same-domain documents.

    ids[0] is [CLS]; document boundaries inside the row are [SEP]; positions
    at and beyond valid_len are [PAD].
    """

    ids: np.ndarray
    valid_len: int
    domain_id: int


@dataclass
class PackedCorpus:
    examples: list[PackedExample]
    table: DomainTable
    max_len: int
    vocab_size: int


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


def build_vocab(texts: list[str], min_count: int, max_size: int) -> Vocabulary:
    """Most frequent word tokens with count >= min_count, at most max_size of
    them; ties at equal count break lexicographically."""
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if max_size < 0:
        raise ConfigError("max vocabulary size must be >= 0")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(word_tokens(text))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept[:max_size])


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for a text; out-of-vocabulary words map to [UNK]."""
    get = vocab.token_to_id.get
    return [get(t, UNK_ID) for t in word_tokens(text)]


def pack_domain(docs: list[list[int]], domain_id: int, max_len: int) -> list[PackedExample]:
    """Greedy packing of one domain's token-id documents in input order.

    Each non-empty document contributes its tokens followed by one [SEP]; the
    resulting stream is cut into [CLS]-prefixed rows of capacity max_len - 1,
    so a document that does not fit is split and its remainder carries into
    the next row. The final row is padded to max_len.
    """
    if max_len < 3:
        raise ConfigError("max_len must be >= 3")
    stream: list[int] = []
    for tokens in docs:
        if tokens:
            stream.extend(tokens)
            stream.append(SEP_ID)

    capacity = max_len - 1
    out: list[PackedExample] = []
    for start in range(0, len(stream), capacity):
        chunk = stream[start : start + capacity]
        ids = np.full(max_len, PAD_ID, dtype=np.int64)
        ids[0] = CLS_ID
        ids[1 : 1 + len(chunk)] = chunk
        out.append(PackedExample(ids=ids, valid_len=1 + len(chunk), domain_id=domain_id))
    return out


def pack_corpus(
    table: DomainTable,
    records: list[tuple[str, str]],
    vocab: Vocabulary,
    max_len: int,
) -> PackedCorpus:
    """Tokenize and pack every domain; updates table.counts in place.

    Records whose text tokenizes to nothing are dropped, and a target domain
    left with no rows is a CorpusError. Output order is domain id ascending,
    then packing order within the domain.
    """
    by_domain: list[list[list[int]]] = [[] for _ in table.names]
    ids_by_name = {n: i for i, n in enumerate(table.names)}
    for name, text in records:
        by_domain[ids_by_name[name]].append(tokenize(text, vocab))
    examples: list[PackedExample] = []
    for did, docs in enumerate(by_domain):
        packed = pack_domain(docs, did, max_len)
        table.counts[did] = len(packed)
        examples.extend(packed)
    if table.counts[table.target_index] < 1:
        raise CorpusError("target domain has no packed examples")
    return PackedCorpus(examples=examples, table=table, max_len=max_len, vocab_size=vocab.size)


def corpus_stats(table: DomainTable) -> list[tuple[str, int]]:
    """(domain name, packed-example count) sorted by count descending,
    ties by name ascending."""
    return sorted(
        zip(table.names, table.counts), key=lambda item: (-item[1], item[0])
    )


def validate_packed(corpus: PackedCorpus) -> None:
    """Check every packed-example invariant, and the table's counts against
    the rows; raises CorpusError naming the lowest bad example index."""
    examples, max_len = corpus.examples, corpus.max_len
    fits = np.array([ex.ids.shape == (max_len,) for ex in examples], dtype=bool)
    blank = np.zeros(max_len, dtype=np.int64)  # stands in for a wrong-length row
    ids = np.array([ex.ids if ok else blank for ex, ok in zip(examples, fits)],
                   dtype=np.int64).reshape(-1, max_len)
    lens = np.array([ex.valid_len for ex in examples], dtype=np.int64)
    dom = np.array([ex.domain_id for ex in examples], dtype=np.int64)
    in_valid = np.arange(max_len) < lens[:, None]
    is_pad = ids == PAD_ID
    # in each row's order of precedence: the first true check names the fault
    checks = [
        (~fits, "wrong row length"),
        (ids[:, 0] != CLS_ID, "row does not start with [CLS]"),
        ((lens < 1) | (lens > max_len), "bad valid_len {valid_len}"),
        ((~is_pad & ~in_valid).any(axis=1), "non-pad token in padding region"),
        ((is_pad & in_valid).any(axis=1), "pad token inside valid region"),
        (((ids < 0) | (ids >= corpus.vocab_size)).any(axis=1), "token id out of range"),
        ((dom < 0) | (dom >= corpus.table.n_plus_1), "domain id out of range"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([flags for flags, _ in checks]))
    if bad.size:
        i = int(bad[0])
        message = next(text for flags, text in checks if flags[i])
        raise CorpusError(f"example {i}: " + message.format(valid_len=lens[i]))
    counted = np.bincount(dom, minlength=corpus.table.n_plus_1)
    if counted.tolist() != list(corpus.table.counts):
        raise CorpusError("table counts disagree with packed examples")
    if corpus.table.counts[corpus.table.target_index] < 1:
        raise CorpusError("target domain has no packed examples")


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


def _read_header(fh: TextIO, magic: str, keys: tuple[str, ...], what: str) -> list[int]:
    """The integer values of `keys` in a ``magic key=value ...`` header line."""
    header = fh.readline().rstrip("\n")
    fields = header.split(" ")
    if fields[:2] == magic.split(" "):
        try:
            kv = dict(f.split("=", 1) for f in fields[2:])
            return [int(kv[key]) for key in keys]
        except (KeyError, ValueError):
            pass
    raise CorpusError(f"bad {what} header: {header!r}")


def _read_rows(fh: TextIO, n: int, n_fields: int, what: str) -> list[list[str]]:
    """The fields after the id of ``id<TAB>field...`` lines, in id order;
    the ids must be 0..n-1, each exactly once."""
    rows: dict[int, list[str]] = {}
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        try:
            ident = int(parts[0])
        except ValueError as exc:
            raise CorpusError(f"{what} line {lineno}: bad id {parts[0]!r}") from exc
        if len(parts) != n_fields:
            raise CorpusError(f"{what} line {lineno}: expected {n_fields} TAB-separated fields")
        if not 0 <= ident < n or ident in rows:
            raise CorpusError(f"{what} line {lineno}: id {ident} out of range or repeated")
        rows[ident] = parts[1:]
    if len(rows) != n:
        raise CorpusError(f"{what} has {len(rows)} rows, its header says {n}")
    return [rows[i] for i in range(n)]


def write_packed(path: str | Path, corpus: PackedCorpus) -> None:
    """Packed-corpus file: one header line, then one line per example
    ``domain_id<TAB>valid_len<TAB>space-separated ids`` (all max_len ids)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{PACKED_MAGIC} L_max={corpus.max_len} "
            f"n_plus_1={corpus.table.n_plus_1} vocab_size={corpus.vocab_size}\n"
        )
        for ex in corpus.examples:
            ids = " ".join(str(int(v)) for v in ex.ids)
            fh.write(f"{ex.domain_id}\t{ex.valid_len}\t{ids}\n")


def read_packed(path: str | Path, table: DomainTable) -> PackedCorpus:
    """The packed rows of `path`, validated against `table` and its counts."""
    with open_text(path) as fh:
        max_len, n_plus_1, vocab_size = _read_header(
            fh, PACKED_MAGIC, ("L_max", "n_plus_1", "vocab_size"), "packed-corpus")
        if n_plus_1 != table.n_plus_1:
            raise CorpusError(
                f"packed corpus has {n_plus_1} domains, table has {table.n_plus_1}"
            )
        examples: list[PackedExample] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"line {lineno}: expected 3 TAB-separated fields")
            try:
                did = int(parts[0])
                valid_len = int(parts[1])
                ids = np.array([int(v) for v in parts[2].split(" ")], dtype=np.int64)
            except ValueError as exc:
                raise CorpusError(f"line {lineno}: unparseable example") from exc
            if ids.shape != (max_len,):
                raise CorpusError(f"line {lineno}: expected {max_len} ids")
            examples.append(PackedExample(ids=ids, valid_len=valid_len, domain_id=did))
    corpus = PackedCorpus(examples=examples, table=table, max_len=max_len, vocab_size=vocab_size)
    validate_packed(corpus)
    return corpus


def write_vocab(path: str | Path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_MAGIC} size={vocab.size}\n")
        for i, tok in enumerate(vocab.id_to_token):
            fh.write(f"{i}\t{tok}\n")


def read_vocab(path: str | Path) -> Vocabulary:
    with open_text(path) as fh:
        (size,) = _read_header(fh, VOCAB_MAGIC, ("size",), "vocabulary")
        tokens = [tok for tok, in _read_rows(fh, size, 2, "vocabulary")]
    if tokens[:NUM_RESERVED] != RESERVED_TOKENS:
        raise CorpusError("vocabulary file lacks the reserved tokens")
    return Vocabulary(tokens[NUM_RESERVED:])


def write_domain_table(path: str | Path, table: DomainTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{TABLE_MAGIC} n_plus_1={table.n_plus_1} target={table.target_index}\n")
        for i, name in enumerate(table.names):
            fh.write(f"{i}\t{name}\t{table.counts[i]}\n")


def read_domain_table(path: str | Path) -> DomainTable:
    with open_text(path) as fh:
        n_plus_1, target = _read_header(fh, TABLE_MAGIC, ("n_plus_1", "target"),
                                        "domain-table")
        rows = _read_rows(fh, n_plus_1, 3, "domain table")
    try:
        counts = [int(count) for _, count in rows]
    except ValueError as exc:
        raise CorpusError("domain table has a non-integer count") from exc
    return DomainTable(names=[name for name, _ in rows], target_index=target,
                       counts=counts)


def write_stats(path: str | Path, stats: list[tuple[str, int]]) -> None:
    """Rank-size report: ``rank<TAB>name<TAB>count``, rank starting at 1."""
    with open(path, "w", encoding="utf-8") as fh:
        for rank, (name, count) in enumerate(stats, start=1):
            fh.write(f"{rank}\t{name}\t{count}\n")
