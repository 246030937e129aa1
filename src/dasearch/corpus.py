"""Dataset ingestion, vocabulary handling and a synthetic summarization corpus.

The synthetic task: sources are sequences of templated fact clauses over a
closed vocabulary of entities/attributes; references keep the most salient
clauses and paraphrase part of their tokens, so they are abstractive
(nonzero unigram novelty) and never repeat a 3-gram.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

SOS_TOKEN = "<s>"
EOS_TOKEN = "$"
UNK_TOKEN = "<unk>"
RESERVED = (SOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class InputError(ValueError):
    """Input the program refuses: a file, a setting or an argument. Each
    module's error is one; the CLI exits 1 on it and 2 on any other error."""


class CorpusError(InputError):
    pass


def finite_float(text: str) -> float:
    """float(text), refusing nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# a float field that finite_float refuses, as str(float) writes it
_NON_FINITE_FIELD = re.compile(r"(?<!\S)-?(?:nan|inf)(?!\S)")


def write_model_file(path, version: str, error, header: dict, body) -> None:
    """Write the model file `path` in the frame read_model_file reads: the
    line `version`; a `<n> <sha256>` line, the number of lines after it and
    the sha256 of their bytes; a `key value` line per `header` item, in
    order; then the `body` lines, each ending in a newline. A nan or
    infinite field, which read_model_file would refuse, raises `error`
    before anything is written."""
    lines = [*(f"{key} {value}\n" for key, value in header.items()), *body]
    text = "".join(lines)
    bad = _NON_FINITE_FIELD.search(text)
    if bad:
        start = text.rfind("\n", 0, bad.start()) + 1
        n, key = text.count("\n", 0, start) + 3, text[start:].split(None, 1)[0]
        raise error(f"not writing model file {path}: line {n} ({key} ...) holds "
                    f"{bad.group()}, not a finite number")
    with atomic_write(path, newline="") as f:
        f.write(f"{version}\n{len(lines)} {hashlib.sha256(text.encode()).hexdigest()}\n{text}")


def read_model_file(path, kind: str, version: str, error, header: dict, parse,
                    vocab: "Vocabulary | None" = None, many=()) -> tuple[dict, dict]:
    """(header, body) of the `kind` model file `path` that write_model_file
    wrote as `version`, checked before anything is parsed: its first line,
    UTF-8, and line 2's count and sha256 of the lines after it. `header`
    maps each key, in order, to the parser of its one value (of its list of
    values for a key in `many`); `parse` maps a body line's fields to its
    (key, value). With a `vocab`, the file's vocab_hash and the length of its
    logfreq, where set, must be that vocabulary's. Raises `error`."""
    with open(path, "rb") as f:
        first, _, rest = f.read().partition(b"\n")
    try:
        first = first.decode()
    except UnicodeDecodeError as e:
        raise error(f"not a {kind} model file: {path}: {e}") from None
    if first != version:
        raise error(f"not a {kind} model file: {path}: its first line is {first!r}, not "
                    f"{version!r}; re-run train-{kind} to write one")
    try:
        stamp, _, data = rest.partition(b"\n")
        recorded, _, digest = stamp.decode().partition(" ")
        *lines, cut = data.decode().split("\n")
        if cut or recorded != str(len(lines)):
            raise ValueError(f"line 2 counts {recorded!r} lines after it, but {len(lines)} "
                             f"whole ones follow")
        if digest != hashlib.sha256(data).hexdigest():
            raise ValueError("the lines after line 2 do not have the sha256 it records")
        rows, values = iter(lines), {}
        for key, convert in header.items():
            name, *fields = next(rows, "").split() or ("",)
            if name != key:
                raise ValueError(f"no {key!r} line where one belongs")
            if key not in many and len(fields) != 1:
                raise ValueError(f"the {key!r} line holds {len(fields)} values, not 1")
            values[key] = convert(fields if key in many else fields[0])
        body, first_line = {}, {}
        for n, line in enumerate(rows, start=3 + len(header)):
            try:
                key, value = parse(line.split())
            except ValueError as e:
                raise ValueError(f"line {n}: {line.strip()!r}: {e}") from None
            if first_line.setdefault(key, n) != n:
                raise ValueError(f"line {n}: {line.strip()!r} repeats the key of line "
                                 f"{first_line[key]}")
            body[key] = value
    except ValueError as e:
        raise error(f"truncated or malformed {kind} model file: {path}: {e}") from None
    if vocab is not None:
        n = len(values.get("logfreq", ()))
        if n and n != len(vocab):
            raise error(f"{kind} model {path} was built for a {n}-token vocabulary, but the "
                        f"vocabulary has {len(vocab)} tokens")
        if values.get("vocab_hash") not in ("", None, vocab.digest()):
            raise error(f"{kind} model {path} was built for another vocabulary than "
                        f"{vocab.path or 'the one given'}")
    return values, body


@contextmanager
def atomic_write(path, newline: str | None = None):
    """A UTF-8 text file to write `path` through. It is a temporary file in the
    same directory that replaces `path` when the block ends without an error
    and is removed when it raises, so `path` holds either its old content or
    all of the new. It creates the directory `path` is in if it is missing,
    so a directory exists once something is written to it, and not before."""
    directory, name = os.path.split(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries.

    Raw text that collides with a reserved token string (notably "$")
    becomes UNK so encoding can never produce the SOS or EOS ids.
    """
    return [UNK_TOKEN if t in RESERVED else t
            for t in _TOKEN_RE.findall(text.lower())]


class Vocabulary:
    """Bidirectional token<->id map with reserved SOS/EOS/UNK ids 0/1/2."""

    def __init__(self, tokens: list[str], path=None):
        for t in tokens:
            if t in RESERVED:
                raise CorpusError(f"reserved token {t!r} passed as corpus token")
        if len(set(tokens)) != len(tokens):
            raise CorpusError("duplicate tokens in vocabulary")
        self._tokens = list(RESERVED) + list(tokens)
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        self.path = path  # the file it was read from, which model-file errors name

    sos = 0
    eos = 1
    unk = 2

    def __len__(self) -> int:
        return len(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self.unk)

    def token_of(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, tokens: list[str]) -> tuple[int, ...]:
        return tuple(map(self._ids.get, tokens, itertools.repeat(self.unk)))

    def decode(self, ids) -> list[str]:
        return [self._tokens[i] for i in ids]

    def digest(self) -> str:
        """The first 16 hex digits of the sha256 of the token list: what model
        files record as `vocab_hash`, to be checked against the vocabulary
        they are loaded with."""
        return hashlib.sha256("\n".join(self._tokens).encode()).hexdigest()[:16]

    def save(self, path) -> None:
        with atomic_write(path) as f:
            for t in self._tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a file `save` wrote: the reserved tokens' lines, then one token
        per line; a blank, reserved or repeated token is refused with its line."""
        with open(path, encoding="utf-8") as f:
            try:
                lines = [ln.rstrip("\n") for ln in f]
            except UnicodeDecodeError as e:
                raise CorpusError(f"vocabulary file {path}: not UTF-8: {e}") from None
        if lines[:3] != list(RESERVED):
            raise CorpusError(f"vocabulary file {path} missing reserved header lines")
        first: dict[str, int] = {}
        for n, token in enumerate(lines[3:], start=4):
            if not token:
                problem = "blank token"
            elif token in RESERVED:
                problem = f"reserved token {token!r}"
            elif token in first:
                problem = f"token {token!r} repeats line {first[token]}"
            else:
                first[token] = n
                continue
            raise CorpusError(f"vocabulary file {path}: line {n}: {problem}")
        return cls(lines[3:], path)


@dataclass(frozen=True)
class DocumentPair:
    """A source text with its human reference summary, as token ids."""

    id: str
    source: tuple[int, ...]
    reference: tuple[int, ...]

    def __post_init__(self):
        if not self.source:
            raise CorpusError(f"empty source in pair {self.id!r}")
        if not self.reference:
            raise CorpusError(f"empty reference in pair {self.id!r}")
        for tok in (Vocabulary.sos, Vocabulary.eos):
            if tok in self.source or tok in self.reference:
                raise CorpusError(f"reserved id {tok} inside pair {self.id!r}")


@dataclass(frozen=True)
class Corpus:
    pairs: tuple[DocumentPair, ...]
    vocab: Vocabulary
    split: str = "train"

    def __post_init__(self):
        ids = [p.id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise CorpusError(f"duplicate pair ids in split {self.split!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    def subset(self, ids) -> "Corpus":
        """The pairs whose id is in `ids`, in corpus order, same vocab and split."""
        return Corpus(tuple(p for p in self.pairs if p.id in ids), self.vocab, self.split)

    def reencoded(self, vocab: Vocabulary) -> "Corpus":
        """The same pairs with each token's id in `vocab`, UNK for a token it
        lacks, as load_corpus would encode them with `vocab`."""
        def ids(tokens):
            return vocab.encode(self.vocab.decode(tokens))
        return Corpus(tuple(DocumentPair(p.id, ids(p.source), ids(p.reference))
                            for p in self.pairs), vocab, self.split)


def read_records(path):
    """(where, record) for every non-blank line of the JSON-lines file `path`;
    `where` is "<path> line <n>". Each record is an object with a string "id"
    that no earlier line holds; any other line raises CorpusError there."""
    first_line = {}
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            where = f"{path} line {lineno}"
            try:
                rec = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as e:
                raise CorpusError(f"{where}: not UTF-8: {e}") from None
            except json.JSONDecodeError as e:
                raise CorpusError(f"{where}: malformed JSON: {e}") from None
            if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
                raise CorpusError(f"{where}: not an object with a string \"id\"")
            first = first_line.setdefault(rec["id"], lineno)
            if first != lineno:
                raise CorpusError(f"{where}: id {rec['id']!r} repeats line {first}")
            yield where, rec


def write_records(path, records) -> None:
    """`records` as a JSON-lines file: one object per line. A record that
    holds a nan or infinite float, which JSON has no number for, is refused."""
    with atomic_write(path) as f:
        for rec in records:
            try:
                f.write(json.dumps(rec, allow_nan=False) + "\n")
            except ValueError:
                raise CorpusError(f"{path}: record {rec.get('id')!r} holds a nan or infinite "
                                  f"number, which JSON cannot write") from None


def load_corpus(path, vocab: Vocabulary | None = None, split: str = "train") -> Corpus:
    """Load a line-delimited {"id","source","summary"} file.

    With no vocabulary given, a full one (min_count=1) is built from the file
    itself; otherwise out-of-vocabulary tokens map to UNK.
    """
    tokenized = []
    for where, rec in read_records(path):
        for key in ("source", "summary"):
            if not isinstance(rec.get(key), str):
                raise CorpusError(f"{where}: missing string field {key!r}")
        src_toks, ref_toks = tokenize(rec["source"]), tokenize(rec["summary"])
        if not src_toks:
            raise CorpusError(f"{where}: empty source")
        if not ref_toks:
            raise CorpusError(f"{where}: empty reference")
        tokenized.append((rec["id"], src_toks, ref_toks))
    if not tokenized:
        raise CorpusError(f"empty file: {path}")
    if vocab is None:
        vocab = _vocab_from_counts((toks for _, src, ref in tokenized for toks in (src, ref)), 1)
    pairs = tuple(
        DocumentPair(rid, vocab.encode(src_toks), vocab.encode(ref_toks))
        for rid, src_toks, ref_toks in tokenized
    )
    return Corpus(pairs, vocab, split)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus back as line-delimited records (space-joined tokens)."""
    write_records(path, ({"id": p.id, "source": " ".join(corpus.vocab.decode(p.source)),
                          "summary": " ".join(corpus.vocab.decode(p.reference))}
                         for p in corpus.pairs))


def _vocab_from_counts(token_lists, min_count: int) -> Vocabulary:
    """The tokens of `token_lists` seen at least `min_count` times, reserved
    ones left out; ids by descending count, lex tie-break."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    kept = [t for t, c in counts.items() if c >= min_count and t not in RESERVED]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def build_vocabulary(corpus: Corpus, min_count: int = 1) -> Vocabulary:
    """Frequency-thresholded vocabulary; ids by descending count, lex tie-break."""
    if not corpus.pairs:
        raise CorpusError("empty corpus")
    if min_count < 1:
        raise CorpusError("min_count must be >= 1")
    return _vocab_from_counts((corpus.vocab.decode(ids) for p in corpus.pairs
                               for ids in (p.source, p.reference)), min_count)


# --- synthetic corpus -------------------------------------------------------

_ENTITIES = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "henry",
    "iris", "jack", "karen", "leo", "mona", "nate", "olga", "peter",
]
# Order encodes salience: earlier verbs describe more report-worthy facts.
_VERBS = [
    "announced", "built", "opened", "bought", "sold",
    "found", "lost", "visited", "painted", "repaired",
]
_ADJS = [
    "red", "old", "small", "large", "new",
    "quiet", "busy", "ancient", "modern", "wooden",
]
_NOUNS = [
    "car", "house", "bridge", "garden", "library",
    "market", "tower", "museum", "farm", "harbor",
]
_PLACES = ["north", "south", "east", "west", "downtown", "uptown", "valley", "hills"]

# Paraphrase targets never occur in sources, so substituting one guarantees
# a novel reference unigram.
_PARAPHRASE = {
    "announced": "declared", "built": "constructed", "opened": "unveiled",
    "bought": "purchased", "sold": "auctioned", "found": "recovered",
    "lost": "misplaced", "visited": "toured", "painted": "decorated",
    "repaired": "restored",
    "red": "crimson", "old": "aged", "small": "tiny", "large": "vast",
    "new": "fresh", "quiet": "calm", "busy": "crowded", "ancient": "antique",
    "modern": "sleek", "wooden": "timber",
    "car": "vehicle", "house": "residence", "bridge": "crossing",
    "garden": "grove", "library": "archive", "market": "bazaar",
    "tower": "spire", "museum": "gallery", "farm": "homestead",
    "harbor": "port",
}


_SOURCE_CLAUSES = (6, 12)  # inclusive range of clauses per source
_SUMMARY_CLAUSES = (2, 4)  # inclusive range of clauses a reference aims for
_PARAPHRASE_RATE = 0.35
_FRONTED_FIRST_CLAUSE_RATE = 0.4


def _entity_fact(ent_idx: int) -> tuple[str, str, str, str, str]:
    """Each entity has one fixed fact, keeping clause n-gram statistics peaked."""
    ent = _ENTITIES[ent_idx]
    verb = _VERBS[ent_idx % len(_VERBS)]
    adj = _ADJS[(ent_idx * 7 + 2) % len(_ADJS)]
    noun = _NOUNS[(ent_idx * 3 + 1) % len(_NOUNS)]
    place = _PLACES[(ent_idx * 5 + 3) % len(_PLACES)]
    return ent, verb, adj, noun, place


def _render_clause(ent_idx: int, fronted: bool) -> list[str]:
    ent, verb, adj, noun, place = _entity_fact(ent_idx)
    if fronted:
        return ["the", adj, noun, "was", verb, "by", ent, "in", "the", place, "."]
    return [ent, verb, "the", adj, noun, "in", "the", place, "."]


def _paraphrase(tokens: list[str], rng: random.Random) -> list[str]:
    out = list(tokens)
    candidates = [i for i, t in enumerate(out) if t in _PARAPHRASE]
    hits = [i for i in candidates if rng.random() < _PARAPHRASE_RATE]
    if candidates and not hits:
        hits = [candidates[0]]  # references must carry at least one novel token
    for i in hits:
        out[i] = _PARAPHRASE[out[i]]
    return out


def _has_repeated_trigram(tokens: list[str]) -> bool:
    grams = [tuple(tokens[i : i + 3]) for i in range(len(tokens) - 2)]
    return len(set(grams)) != len(grams)


def generate_synthetic_corpus(seed: int, n_pairs: int, split: str = "train") -> Corpus:
    """Deterministic-in-seed templated summarization corpus."""
    if n_pairs < 1:
        raise CorpusError("n_pairs must be >= 1")
    rng = random.Random(seed)
    records = []
    for k in range(n_pairs):
        n_clauses = rng.randint(*_SOURCE_CLAUSES)
        ent_ids = rng.sample(range(len(_ENTITIES)), n_clauses)
        src_tokens: list[str] = []
        for e in ent_ids:
            src_tokens.extend(_render_clause(e, fronted=False))
        # Reference: most salient clauses (verb rank), kept in source order and
        # paraphrased. Entities sharing a place slot would repeat the
        # "in the <place> ." 3-gram, so each place is used at most once.
        target = rng.randint(*_SUMMARY_CLAUSES)
        by_salience = sorted(ent_ids, key=lambda e: (e % len(_VERBS), e))
        chosen: list[int] = []
        used_places: set[str] = set()
        for e in by_salience:
            if len(chosen) == target:
                break
            place = _entity_fact(e)[4]
            if place in used_places:
                continue
            used_places.add(place)
            chosen.append(e)
        chosen.sort(key=ent_ids.index)
        fronted = rng.random() < _FRONTED_FIRST_CLAUSE_RATE
        ref_tokens: list[str] = []
        for j, e in enumerate(chosen):
            clause = _paraphrase(_render_clause(e, fronted=(j == 0 and fronted)), rng)
            if _has_repeated_trigram(ref_tokens + clause):
                # entities e and e + 10 share a noun, so "<noun> in the" can
                # repeat (105 clauses of the quickstart's 300 training pairs)
                continue
            ref_tokens.extend(clause)
        records.append((f"synth-{seed}-{k}", src_tokens, ref_tokens))

    vocab = _vocab_from_counts((toks for _, src, ref in records for toks in (src, ref)), 1)
    pairs = tuple(
        DocumentPair(rid, vocab.encode(src), vocab.encode(ref)) for rid, src, ref in records
    )
    return Corpus(pairs, vocab, split)
