import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from dasearch import corpus as corpus_mod
from dasearch.corpus import (
    RESERVED,
    Corpus,
    CorpusError,
    DocumentPair,
    Vocabulary,
    atomic_write,
    build_vocabulary,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)
from dasearch.metrics import novelty_n, repetition_n

from conftest import CORPUS_FILE_REFUSALS, make_corpus, make_vocab


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return path


# --- tokenize -----------------------------------------------------------------


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]


def test_tokenize_splits_each_punctuation_mark():
    assert tokenize("a, b!") == ["a", ",", "b", "!"]


def test_tokenize_maps_reserved_strings_to_unk():
    # a raw "$" must not round-trip into the reserved end-of-sequence id
    toks = tokenize("pay $ now")
    assert toks == ["pay", "<unk>", "now"]
    vocab = make_vocab("pay", "now")
    assert Vocabulary.eos not in vocab.encode(toks)


# --- vocabulary ---------------------------------------------------------------


def test_reserved_ids_are_fixed():
    vocab = make_vocab("a")
    assert vocab.tokens[:3] == ["<s>", "$", "<unk>"]
    assert (Vocabulary.sos, Vocabulary.eos, Vocabulary.unk) == (0, 1, 2)


def test_vocabulary_rejects_reserved_and_duplicate_tokens():
    with pytest.raises(CorpusError):
        Vocabulary(["$"])
    with pytest.raises(CorpusError):
        Vocabulary(["a", "a"])


def test_encode_decode_identity():
    vocab = make_vocab("a", "b", "c")
    toks = ["a", "c", "b", "a"]
    assert vocab.decode(vocab.encode(toks)) == toks


def test_out_of_vocabulary_encodes_to_unk():
    vocab = make_vocab("a")
    assert vocab.encode(["a", "zebra"]) == (3, Vocabulary.unk)


@settings(max_examples=200, deadline=None)
@given(known=st.lists(st.text(min_size=1, max_size=3), unique=True, max_size=8),
       extra=st.lists(st.text(max_size=3), max_size=8), data=st.data())
def test_encode_gives_the_ids_of_the_per_token_lookup(known, extra, data):
    """One map over the tokens gives the ids a lookup per token gives,
    unknown tokens as UNK and the reserved tokens as their own ids."""
    vocab = Vocabulary([t for t in known if t not in RESERVED])
    pool = known + extra + list(RESERVED)
    tokens = data.draw(st.lists(st.sampled_from(pool), max_size=20))
    assert vocab.encode(tokens) == tuple(vocab.id_of(t) for t in tokens)
    assert vocab.encode(list(RESERVED)) == (Vocabulary.sos, Vocabulary.eos, Vocabulary.unk)


def test_vocabulary_save_load_roundtrip(tmp_path):
    vocab = make_vocab("b", "a")
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert Vocabulary.load(path) == vocab


def test_vocabulary_load_rejects_missing_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n")
    with pytest.raises(CorpusError):
        Vocabulary.load(path)


@pytest.mark.parametrize("body, message", [
    ("foo\n\nbar\n", "line 5: blank token"),
    ("foo\nbar\nfoo\n", "line 6: token 'foo' repeats line 4"),
    ("foo\n<unk>\n", "line 5: reserved token '<unk>'"),
], ids=["blank", "repeated", "reserved"])
def test_vocabulary_load_names_the_file_and_line_of_a_bad_token(tmp_path, body, message):
    path = tmp_path / "vocab.txt"
    path.write_text("".join(t + "\n" for t in make_vocab().tokens) + body)
    with pytest.raises(CorpusError, match=re.escape(f"vocabulary file {path}: {message}")):
        Vocabulary.load(path)


# --- load_corpus --------------------------------------------------------------


def test_load_corpus_tokenizes_source(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl",
                       [{"id": "a", "source": "The cat sat.", "summary": "cat sat"}])
    corpus = load_corpus(path)
    assert corpus.vocab.decode(corpus.pairs[0].source) == ["the", "cat", "sat", "."]
    assert corpus.vocab.decode(corpus.pairs[0].reference) == ["cat", "sat"]


def test_load_corpus_empty_reference_error(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl",
                       [{"id": "a", "source": "x", "summary": ""}])
    with pytest.raises(CorpusError, match="line 1: empty reference"):
        load_corpus(path)


@pytest.mark.parametrize("name", CORPUS_FILE_REFUSALS)
def test_load_corpus_refuses_a_missing_field_an_empty_source_and_an_empty_file(tmp_path, name):
    text, message = CORPUS_FILE_REFUSALS[name]
    path = tmp_path / "c.jsonl"
    path.write_text(text)
    with pytest.raises(CorpusError, match=re.escape(message.format(path=path))):
        load_corpus(path)


@pytest.mark.parametrize("source, reference, message", [
    ((), (3,), "empty source in pair 'p'"),
    ((3,), (), "empty reference in pair 'p'"),
    ((3, Vocabulary.sos), (3,), "reserved id 0 inside pair 'p'"),
    ((3,), (3, Vocabulary.eos), "reserved id 1 inside pair 'p'"),
], ids=["empty-source", "empty-reference", "sos-in-source", "eos-in-reference"])
def test_document_pair_refuses_an_empty_side_and_a_reserved_id(source, reference, message):
    with pytest.raises(CorpusError, match=re.escape(message)):
        DocumentPair("p", source, reference)


def test_corpus_refuses_duplicate_pair_ids():
    vocab = make_vocab("a")
    pair = DocumentPair("p", (3,), (3,))
    with pytest.raises(CorpusError, match="duplicate pair ids in split 'test'"):
        Corpus((pair, DocumentPair("q", (3,), (3,)), pair), vocab, "test")


def test_load_corpus_preserves_file_order(tmp_path):
    recs = [{"id": f"r{i}", "source": "a b", "summary": "a"} for i in range(3)]
    corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", recs))
    assert [p.id for p in corpus.pairs] == ["r0", "r1", "r2"]


def test_load_corpus_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"a","source":"x","summary":"y"}\nnot json\n')
    with pytest.raises(CorpusError, match="2"):
        load_corpus(path)


def test_load_corpus_with_vocab_maps_oov_to_unk(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl",
                       [{"id": "a", "source": "a zebra", "summary": "a"}])
    vocab = make_vocab("a")
    corpus = load_corpus(path, vocab)
    assert corpus.pairs[0].source == (vocab.id_of("a"), Vocabulary.unk)


def test_save_corpus_roundtrip(tmp_path):
    corpus = generate_synthetic_corpus(3, 5)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    reloaded = load_corpus(path, corpus.vocab)
    assert [p.source for p in reloaded.pairs] == [p.source for p in corpus.pairs]
    assert [p.reference for p in reloaded.pairs] == [p.reference for p in corpus.pairs]


# --- atomic writes ------------------------------------------------------------


def test_atomic_write_replaces_the_file_with_the_default_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as f:
        f.write("x\n")
    path = tmp_path / "vocab.txt"
    make_vocab("a").save(path)
    make_vocab("b", "c").save(path)
    assert Vocabulary.load(path) == make_vocab("b", "c")
    assert sorted(os.listdir(tmp_path)) == ["plain.txt", "vocab.txt"]
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_atomic_write_failure_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, newline="") as f:
            f.write("new\n")
            f.flush()
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_save_corpus_failing_mid_write_keeps_the_old_corpus(tmp_path, monkeypatch):
    corpus = generate_synthetic_corpus(3, 5)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    old = path.read_bytes()
    records, dumps = [], json.dumps

    def dumps_then_fail(rec, **kwargs):
        records.append(rec)
        if len(records) == 3:
            raise OSError("disk full")
        return dumps(rec, **kwargs)

    monkeypatch.setattr(corpus_mod.json, "dumps", dumps_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(generate_synthetic_corpus(4, 5), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["c.jsonl"]


# --- build_vocabulary ---------------------------------------------------------


def _freq_corpus():
    vocab = make_vocab("the", "zebra")
    return make_corpus(vocab, [
        ("p0", ["the", "the", "the"], ["the", "the"]),
        ("p1", ["zebra"], ["the"]),
    ])


def test_build_vocabulary_min_count_threshold():
    corpus = _freq_corpus()
    v2 = build_vocabulary(corpus, min_count=2)
    assert "the" in v2.tokens and "zebra" not in v2.tokens
    v1 = build_vocabulary(corpus, min_count=1)
    assert "the" in v1.tokens and "zebra" in v1.tokens


def test_build_vocabulary_id_order_frequency_then_lexicographic():
    vocab = make_vocab("b", "a", "c")
    corpus = make_corpus(vocab, [("p", ["c", "c", "a", "b"], ["a"])])
    built = build_vocabulary(corpus, min_count=1)
    # c appears twice, a twice, b once; ties broken lexicographically
    assert built.tokens[3:] == ["a", "c", "b"]


def test_build_vocabulary_deterministic_file(tmp_path):
    corpus = _freq_corpus()
    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    build_vocabulary(corpus, 1).save(p1)
    build_vocabulary(corpus, 1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_build_vocabulary_validates_inputs():
    corpus = _freq_corpus()
    with pytest.raises(CorpusError):
        build_vocabulary(corpus, min_count=0)
    with pytest.raises(CorpusError, match="empty corpus"):
        build_vocabulary(Corpus((), corpus.vocab))


# --- synthetic corpus ---------------------------------------------------------


def test_synthetic_corpus_deterministic_in_seed():
    a = generate_synthetic_corpus(7, 2)
    b = generate_synthetic_corpus(7, 2)
    assert a.vocab == b.vocab
    assert [(p.id, p.source, p.reference) for p in a.pairs] == \
           [(p.id, p.source, p.reference) for p in b.pairs]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_synthetic_references_are_clean_and_abstractive(seed):
    corpus = generate_synthetic_corpus(seed, 25)
    for p in corpus.pairs:
        assert repetition_n(p.reference, 3) == 0.0
        assert novelty_n(p.reference, p.source, 1) > 0.0


def test_synthetic_corpus_rejects_bad_n_pairs():
    with pytest.raises(CorpusError):
        generate_synthetic_corpus(0, 0)


# --- subsets ------------------------------------------------------------------


def test_corpus_subset_keeps_corpus_order_vocab_and_split():
    vocab = make_vocab("a", "b")
    corpus = make_corpus(vocab, [("p3", ["a"], ["a"]), ("p1", ["b"], ["b"]),
                                 ("p2", ["a", "b"], ["a"])], split="validation")
    sub = corpus.subset({"p2", "p3", "absent"})
    assert [p.id for p in sub.pairs] == ["p3", "p2"]
    assert sub.pairs == (corpus.pairs[0], corpus.pairs[2])
    assert sub.vocab is vocab and sub.split == "validation"


def test_write_records_refuses_a_number_json_has_no_form_for(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text("old\n")
    records = [{"id": "a", "s_gen": -1.5}, {"id": "b", "s_gen": float("-inf")}]
    with pytest.raises(CorpusError, match=re.escape(f"{path}: record 'b' holds a nan or infinite")):
        corpus_mod.write_records(path, records)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["r.jsonl"]


def test_write_records_then_read_records_round_trips(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [{"id": "a", "text": "naïve \"quoted\"\n"}, {"id": "b", "n": [1, 2.5, None]}]
    corpus_mod.write_records(path, iter(records))
    assert path.read_text(encoding="utf-8").count("\n") == 2
    assert list(corpus_mod.read_records(path)) == [(f"{path} line 1", records[0]),
                                                   (f"{path} line 2", records[1])]
