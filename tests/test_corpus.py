import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import re
import shutil
import tempfile
import tracemalloc
import types
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkrisk import anonymity, cli, corpus, evaluation, lm


@pytest.fixture(scope="module")
def cfg():
    return corpus.NormalizationConfig.default()


# --- golden normalization behavior ---------------------------------------


def test_repeated_characters_collapse(cfg):
    assert corpus.normalize("cooooooool", cfg) == ["coool"]


def test_emphasis_unwrapped(cfg):
    assert corpus.normalize("*text*", cfg) == ["text"]


def test_url_replaced_by_hostname(cfg):
    assert "see" in cfg.stopwords
    assert corpus.normalize("see https://www.mypage.com/a?q=1", cfg) == ["www.mypage.com"]


def test_inline_code_removed_completely(cfg):
    assert corpus.normalize("`rm -rf`", cfg) == []


def test_smiley_survives_punctuation(cfg):
    assert corpus.normalize("nice :) day", cfg) == ["nice", ":)", "day"]
    # uppercase smiley forms are matched after lowercasing
    assert ":d" in cfg.smilies
    assert corpus.normalize("great :D", cfg) == ["great", ":d"]


def test_lowercasing(cfg):
    assert corpus.normalize("MiXeD CaSe WoRdS", cfg) == ["mixed", "case", "words"]


def test_fenced_code_and_quotes_removed(cfg):
    body = "keep1\n```\nsecret code\n```\n> quoted reply\nkeep2"
    tokens = corpus.normalize(body, cfg)
    assert "secret" not in tokens and "code" not in tokens
    assert "quoted" not in tokens and "reply" not in tokens
    assert "keep1" in tokens and "keep2" in tokens


def test_indented_code_removed(cfg):
    tokens = corpus.normalize("normal line\n    indented = code()\nending", cfg)
    assert "indented" not in tokens
    assert "normal" in tokens and "ending" in tokens


def test_markdown_link_keeps_text_and_hostname(cfg):
    tokens = corpus.normalize("[my page](http://www.mypage.com/sub)", cfg)
    assert tokens == ["page", "www.mypage.com"]  # "my" is a stopword


def test_heading_list_table_markers_stripped(cfg):
    body = "# title\n- item1\n2. item2\n|cell1|cell2|\n|---|---|\n"
    tokens = corpus.normalize(body, cfg)
    assert tokens == ["title", "item1", "item2", "cell1", "cell2"]


def test_diacritics_composed_letters_survive(cfg):
    # e + combining acute composes; the stray second accent is dropped
    tokens = corpus.normalize("café́", cfg)
    assert tokens == ["café"]


def test_stacked_diacritics_removed(cfg):
    zalgo = "z̶̡e̴̢b̴͈r̶͉a̵̯"
    assert corpus.normalize(zalgo, cfg) == ["zebra"]


def test_url_variants(cfg):
    assert corpus.normalize("ftp://files.example.org/pub", cfg) == ["files.example.org"]
    assert corpus.normalize("http://user:pw@host.net:8080/x", cfg) == ["host.net"]
    assert corpus.normalize("www.example.com", cfg) == ["www.example.com"]
    assert corpus.normalize("(www.example.com)", cfg) == ["www.example.com"]


def test_numerals_kept(cfg):
    assert corpus.normalize("42 things", cfg) == ["42", "things"]


def test_empty_and_pathological_inputs(cfg):
    assert corpus.normalize("", cfg) == []
    assert corpus.normalize("   \n\t  ", cfg) == []
    assert corpus.normalize("!!! ... ???", cfg) == []


def test_token_order_follows_text_order(cfg):
    assert corpus.normalize("zebra apple mango", cfg) == ["zebra", "apple", "mango"]


# --- pipeline invariants on fuzzed input ----------------------------------

FULL_POOL = list("abcdefgh .,!?*_`[]()>#|/:~é😀") + ["́", "w", "o"]
IDEMPOTENT_POOL = list("abcdefgh .,!?é:;") + ["́", "w", "o", "."]


def _random_text(rng, pool, max_len=60):
    n = int(rng.integers(0, max_len))
    return "".join(pool[i] for i in rng.integers(0, len(pool), size=n))


def test_fuzz_no_stopwords_and_no_long_runs(cfg):
    rng = np.random.default_rng(21)
    for _ in range(300):
        tokens = corpus.normalize(_random_text(rng, FULL_POOL), cfg)
        for tok in tokens:
            assert tok not in cfg.stopwords
            assert tok != ""
            run, last = 1, ""
            for ch in tok:
                run = run + 1 if ch == last else 1
                last = ch
                assert run <= corpus._MAX_CHAR_REPEAT


def test_fuzz_idempotence_without_markdown(cfg):
    rng = np.random.default_rng(22)
    for _ in range(300):
        text = _random_text(rng, IDEMPOTENT_POOL)
        once = corpus.normalize(text, cfg)
        twice = corpus.normalize(" ".join(once), cfg)
        assert set(twice) == set(once)


def test_configured_smilies_survive_verbatim(cfg):
    rng = np.random.default_rng(23)
    smilies = sorted(cfg.smilies)
    for smiley in rng.choice(smilies, size=30, replace=False):
        tokens = corpus.normalize(f"pad {smiley} pad", cfg)
        assert smiley in tokens


# --- config validation -----------------------------------------------------


def test_config_requires_smilies_with_punctuation():
    with pytest.raises(ValueError, match="smilies"):
        corpus.NormalizationConfig(stopwords=frozenset(), smilies=frozenset())


# --- ingestion --------------------------------------------------------------


def _ingest(data, lenient=False):
    """`ingest_jsonl` of `data` (bytes, or str written as UTF-8) saved to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "comments.jsonl")
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        return corpus.ingest_jsonl(path, lenient=lenient)


def test_ingest_basic_mapping():
    result = _ingest('{"author":"u1","community":"lost","body":"hi"}')
    assert len(result.comments) == 1
    c = result.comments[0]
    assert (c.author_id, c.community_id, c.body) == ("u1", "lost", "hi")
    assert c.created_at is None


def test_ingest_empty_stream():
    result = _ingest("")
    assert result.comments == [] and result.errors == []


def test_ingest_lenient_counts_errors():
    result = _ingest('not json\n{"author":"a","community":"c","body":""}', lenient=True)
    assert len(result.errors) == 1
    assert result.errors[0][0] == 1
    assert len(result.comments) == 1


def test_ingest_strict_raises_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        _ingest('{"author":"a","community":"c","body":"x"}\nbroken', lenient=False)


def test_ingest_missing_field():
    result = _ingest('{"author":"a","body":"x"}', lenient=True)
    assert result.comments == []
    assert "community" in result.errors[0][1]
    # a field that is present but not a JSON string is as bad as a missing one
    for field, value in (("author", None), ("author", 7), ("community", [1]), ("body", None), ("body", 1.5)):
        line = json.dumps({"author": "a", "community": "c", "body": "x", field: value})
        result = _ingest(line, lenient=True)
        assert result.comments == [] and result.errors == [(1, f"'{field}' must be a string")]
        with pytest.raises(ValueError, match=f"^line 2: '{field}' must be a string$"):
            _ingest('{"author":"a","community":"c","body":"x"}\n' + line)


def test_ingest_created_at_and_bytes():
    blob = b'{"author":"a","community":"c","body":"x","created_at":123}'
    result = _ingest(blob)
    assert result.comments[0].created_at == 123


@pytest.mark.parametrize("value", [True, False, "12", 12.9, 12.0, 1e400, [12], {"t": 12}])
def test_ingest_created_at_must_be_an_integer_or_null(value):
    line = json.dumps({"author": "a", "community": "c", "body": "x", "created_at": value})
    result = _ingest(line, lenient=True)
    assert result.comments == [] and result.errors == [(1, "'created_at' must be an integer or null")]
    with pytest.raises(ValueError, match="^line 2: 'created_at' must be an integer or null$"):
        _ingest('{"author":"a","community":"c","body":"x","created_at":null}\n' + line)
    ok = _ingest(line.replace(json.dumps(value), "-7"))
    assert ok.comments[0].created_at == -7


def test_raw_comment_validates_keys():
    with pytest.raises(ValueError):
        corpus.RawComment(author_id="", community_id="c", body="")
    with pytest.raises(ValueError):
        corpus.RawComment(author_id="a", community_id="", body="")


# --- aggregation and filtering ----------------------------------------------


def _stream(n_comments):
    return corpus.TokenStream(tokens=["t"], n_comments=n_comments)


def test_aggregate_profiles_orders_and_counts(cfg):
    comments = [
        corpus.RawComment("bob", "lost", "first words"),
        corpus.RawComment("alice", "lost", "apple"),
        corpus.RawComment("bob", "lost", "more words"),
    ]
    profiles = corpus.aggregate_profiles(comments, cfg)
    assert list(profiles) == [("alice", "lost"), ("bob", "lost")]
    assert profiles[("bob", "lost")].n_comments == 2
    # "first" and "more" are stopwords in the default list
    assert profiles[("bob", "lost")].tokens == ["words", "words"]


def test_filter_drops_profile_below_min_comments():
    profiles = {
        ("a", "c"): corpus.TokenStream(["t"], n_comments=99),
        ("b", "c"): corpus.TokenStream(["t"], n_comments=100),
    }
    kept = corpus.filter_interesting(profiles, min_comments=100, min_profiles=1)
    assert set(kept) == {("b", "c")}


def test_filter_zero_thresholds_identity():
    profiles = {("a", "c"): corpus.TokenStream([], n_comments=0)}
    assert corpus.filter_interesting(profiles, 0, 0) == profiles


def test_filter_community_threshold_inclusive():
    profiles = {
        (f"u{i}", "c"): corpus.TokenStream(["t"], n_comments=100)
        for i in range(100)
    }
    kept = corpus.filter_interesting(profiles, min_comments=100, min_profiles=100)
    assert len(kept) == 100
    kept = corpus.filter_interesting(profiles, min_comments=100, min_profiles=101)
    assert kept == {}


def test_filter_community_dropped_after_profile_qualification():
    profiles = {
        ("a", "c"): corpus.TokenStream(["t"], n_comments=100),
        ("b", "c"): corpus.TokenStream(["t"], n_comments=5),
    }
    kept = corpus.filter_interesting(profiles, min_comments=100, min_profiles=2)
    assert kept == {}


def test_filter_exclude_communities():
    profiles = {
        ("a", "big"): corpus.TokenStream(["t"], n_comments=10),
        ("a", "ok"): corpus.TokenStream(["t"], n_comments=10),
    }
    kept = corpus.filter_interesting(profiles, 1, 1, exclude_communities=["big"])
    assert set(kept) == {("a", "ok")}


# --- persistence and hashing -------------------------------------------------


def test_profiles_roundtrip(tmp_path):
    profiles = {
        ("a", "c"): corpus.TokenStream(["x", "y"], n_comments=2),
        ("b", "d"): corpus.TokenStream([], n_comments=1),
    }
    path = tmp_path / "profiles.jsonl"
    corpus.write_profiles(profiles, path)
    loaded = corpus.load_profiles(path)
    assert loaded == profiles


def test_load_profiles_shares_equal_tokens(tmp_path):
    path = tmp_path / "profiles.jsonl"
    records = [
        {"author": "a", "community": "c", "tokens": ["word", "other", "word"]},
        {"author": "b", "community": "d", "tokens": ["other", "word"]},
    ]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    loaded = corpus.load_profiles(path)
    a, b = loaded[("a", "c")].tokens, loaded[("b", "d")].tokens
    assert (a, b) == (["word", "other", "word"], ["other", "word"])
    assert a[0] is a[2] is b[1]
    assert a[1] is b[0]


def test_load_profiles_holds_each_distinct_token_once(tmp_path):
    path = tmp_path / "profiles.jsonl"
    words = ["alpha", "bravo", "charlie", "delta"]
    with open(path, "w", encoding="utf-8") as fh:
        for user in range(100):  # 100k tokens, 4 distinct
            fh.write(json.dumps({"author": f"u{user}", "community": "c", "tokens": words * 250}) + "\n")
    tracemalloc.start()
    try:
        profiles = corpus.load_profiles(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(stream.tokens) for stream in profiles.values()) == 100_000
    # 100 lists of 1000 pointers take 0.8 MB; a string per token would add about 5 MB
    assert peak < 2_000_000


def test_wordlist_hash_is_order_independent(tmp_path):
    assert corpus.wordlist_hash(["b", "a"]) == corpus.wordlist_hash(["a", "b", "a"])
    assert corpus.wordlist_hash(["a"]) != corpus.wordlist_hash(["b"])


def test_load_wordlist_skips_comments(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# heading\nalpha\n\nbeta\n", encoding="utf-8")
    assert corpus.load_wordlist(path) == {"alpha", "beta"}


def test_packaged_and_user_word_lists_share_one_parser(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    text = "# heading\n  # indented note\n\talpha \n\n beta\n#gamma\ndelta # not a comment\n"
    (data / "list.txt").write_text(text, encoding="utf-8")
    expected = {"alpha", "beta", "delta # not a comment"}
    assert corpus.load_wordlist(data / "list.txt") == expected
    monkeypatch.setattr(corpus, "resources", types.SimpleNamespace(files=lambda package: tmp_path))
    assert corpus._packaged_list("list.txt") == expected


def test_packaged_word_list_hashes_are_unchanged():
    # the sha256 recorded in every ingest manifest; a parser change must not move them
    assert corpus.wordlist_hash(corpus.default_stopwords()) == \
        "683a9d7fa6a0e1e68da6625280aa67ccf932efe2e458299b3334271068568146"
    assert corpus.wordlist_hash(corpus.default_smilies()) == \
        "10cd3af4bcbd193fa3ac4000767ef1eee2a1273721b9e96e52a204d17b840275"


def test_load_profiles_rejects_malformed_lines(tmp_path):
    good = '{"author":"u0","community":"c","n_comments":1,"tokens":["a"]}'
    path = tmp_path / "profiles.jsonl"
    for bad, message in (
        ('{"author":"u0","tokens":["a"]}', "missing required field(s): community"),
        ('{"community":"c","tokens":["a"]}', "missing required field(s): author"),
        ('{"author":"u0","community":"c"}', "missing required field(s): tokens"),
        ('["u0","c"]', "not a JSON object"),
        ("{oops", "not valid JSON"),
        ('{"author":"u0","community":"c","tokens":"ab"}', "'tokens' must be a list"),
        ('{"author":1,"community":"c","tokens":[]}', "must be strings"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":null}', "'n_comments'"),
        ('{"author":"u0","community":"c","tokens":["x",1]}', "'tokens' must be a list of strings"),
        ('{"author":"u0","community":"c","tokens":[null]}', "'tokens' must be a list of strings"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":2.9}', "non-negative integer"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":2.0}', "non-negative integer"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":-1}', "non-negative integer"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":true}', "non-negative integer"),
        ('{"author":"u0","community":"c","tokens":[],"n_comments":"3"}', "non-negative integer"),
    ):
        path.write_text(good + "\n\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: ") as info:
            corpus.load_profiles(path)
        assert message in str(info.value)
        assert "\n" not in str(info.value)


_GOOD_RECORDS = {
    corpus.load_profiles: b'{"author":"u0","community":"c","n_comments":1,"tokens":["a"]}',
    lm.load_models: b'{"counts":{"a":1},"key":["u0","c"],"kind":"profile"}',
}


@pytest.mark.parametrize("bad, message", [
    (b'"caf\xff"', "line 4: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
    (b"{oops", "line 4: not valid JSON (Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1))"),
    (b"[" * 100_000, "line 4: not valid JSON (maximum recursion depth exceeded"),
    (b"\n \t\n]", "line 6: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
], ids=["not-utf8", "invalid-json", "nested-too-deep", "more-blank-lines"])
def test_profile_and_model_stores_refuse_a_line_alike(tmp_path, bad, message):
    # blank lines around a good record count toward the line number and are skipped
    path = tmp_path / "store.jsonl"
    errors = []
    for reader, good in _GOOD_RECORDS.items():
        path.write_bytes(b"\n" + good + b"\n \t\n" + bad + b"\n")
        with pytest.raises(ValueError) as info:
            reader(path)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(message)
    assert "\n" not in errors[0]


def test_every_store_and_header_line_is_canonical_json(tmp_path):
    canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    profiles = {
        ("u1", "c"): corpus.TokenStream(["z", "café", "z"], n_comments=2),
        ("u0", "c"): corpus.TokenStream([" ", "a"], n_comments=1),
    }
    corpus.write_profiles(profiles, tmp_path / "profiles.jsonl")
    models = lm.build_models(profiles)[0]
    lm.save_models(tmp_path / "models.jsonl", models)
    comments = [corpus.RawComment("u0", "c", "bödy \"q\"", created_at=7), corpus.RawComment("u1", "c", "x")]
    (tmp_path / "comments.jsonl").write_text(evaluation.comments_to_jsonl(comments), encoding="utf-8")
    anonymity.DistanceMatrix.build({"u0": models[("u0", "c")], "u1": models[("u1", "c")]}).save(tmp_path / "c.dmat")
    lines = []
    for name in ("profiles.jsonl", "models.jsonl", "comments.jsonl"):
        lines += (tmp_path / name).read_bytes().decode("utf-8").split("\n")[:-1]
    lines.append((tmp_path / "c.dmat").read_bytes().split(b"\n", 1)[0].decode("utf-8"))
    assert len(lines) == 7
    for line in lines:
        assert line == canonical(json.loads(line))


# --- reference loops: the normalization steps before translate tables ----------
#
# Oracle for the table-driven steps and the no-op skips: the per-character
# loops of punctuation and diacritic stripping, and the markdown, URL and
# repeat steps run unconditionally.


def _ref_strip_punctuation(text, smilies):
    chunks = []
    for chunk in text.split():
        if chunk in smilies:
            chunks.append(chunk)
            continue
        kept = []
        protected = False
        for ch in chunk:
            if ch == corpus._SENTINEL:
                protected = not protected
                continue
            if protected:
                kept.append(ch)
                continue
            if unicodedata.category(ch)[0] in ("P", "S"):
                continue
            kept.append(ch)
        if kept:
            chunks.append("".join(kept))
    return " ".join(chunks)


def _ref_strip_diacritics(text):
    composed = unicodedata.normalize("NFC", text)
    return "".join(ch for ch in composed if not unicodedata.combining(ch))


def _ref_strip_markdown(text, smilies):
    placeholders = {}
    parts = corpus._WS_SPLIT.split(text)
    for i, part in enumerate(parts):
        if part in smilies:
            key = f"{corpus._SMILEY_MARK}{len(placeholders)}{corpus._SMILEY_MARK}"
            placeholders[key] = part
            parts[i] = key
    text = "".join(parts)
    for pattern, repl in (
        (corpus._MD_FENCE, " "),
        (corpus._MD_INDENT_CODE, " "),
        (corpus._MD_INLINE_CODE, " "),
        (corpus._MD_QUOTE, " "),
        (corpus._MD_LINK, r"\1 \2"),
        (corpus._MD_TABLE_SEP, " "),
        (corpus._MD_HR, " "),
        (corpus._MD_LIST, ""),
        (corpus._MD_HEADING, ""),
        (corpus._MD_EMPHASIS, r"\2"),
    ):
        text = pattern.sub(repl, text)
    text = text.replace("|", " ")
    for key, smiley in placeholders.items():
        text = text.replace(key, smiley)
    return text


def _ref_replace_urls(text):
    def repl(match):
        host = corpus._hostname(match.group(0))
        return f"{corpus._SENTINEL}{host}{corpus._SENTINEL}" if host else " "

    return corpus._URL.sub(repl, text)


def _ref_normalize(body, cfg):
    text = body.replace(corpus._SENTINEL, " ").replace(corpus._SMILEY_MARK, " ")
    text = text.lower()
    text = _ref_strip_markdown(text, cfg.smilies)
    text = _ref_strip_diacritics(text)
    text = _ref_replace_urls(text)
    text = _ref_strip_punctuation(text, cfg.smilies)
    n = corpus._MAX_CHAR_REPEAT
    text = re.sub(r"(.)\1{%d,}" % n, lambda m: m.group(1) * n, text, flags=re.DOTALL)
    return [tok for tok in text.split() if tok not in cfg.stopwords]


# --- properties: the pipeline against the reference loops ---------------------

_SMILIES = sorted(corpus.default_smilies())
_FRAGMENTS = st.one_of(
    st.sampled_from(["\x00", "\x02", "\x00www.a.b\x00"]),
    st.characters(categories=["Mn", "Mc", "Me"]),
    st.characters(categories=["Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sm", "Sc", "Sk", "So"],
                  min_codepoint=128),
    st.sampled_from(_SMILIES + [s.upper() for s in _SMILIES]),
    st.sampled_from(["://", "http://", "https://u:p@host.org:80/x?q=1#f", "www.", "www.ex.com",
                     "ftp://a.b", "x.www.y", "@", "/", "?", "#", ":"]),
    st.sampled_from(["`", "```", ">", "[", "](", ")", "|", "*", "**", "_", "__", "~", "~~", "#",
                     "##", "+", "-", "---", "1.", "\u0663.", "    ", "\t", "\n", "\n    ", "\n\t",
                     " ", "\u00a0", "\u3000", "\x1c", "\x85"]),
    st.sampled_from(["e\u0301", "\u00e9", "A\u030a", "\ufb01", "\u05b0", "\u0345", "\U0001f600"]),
    st.text(alphabet="abcxyz019.,!?:;'\"", max_size=4),
)
_TRICKY_TEXT = st.lists(_FRAGMENTS, max_size=30).map("".join)
# plain text around exactly one markdown trigger, so no other trigger forces the full path
_PLAIN = st.lists(st.sampled_from(["kw", "19", " ", "\n"]), max_size=4).map("".join)
_ONE_TRIGGER = st.builds(
    lambda before, trigger, after: before + trigger + after,
    _PLAIN,
    st.sampled_from(["`", "``", ">", "[a](b)", "|", "*", "_", "~~", "#", "+", "-", "1.", "\u0663.",
                     "    ", "\t"]),
    _PLAIN,
)


@pytest.mark.parametrize(
    "text_strategy", [st.text(), _TRICKY_TEXT, _ONE_TRIGGER], ids=["arbitrary", "tricky", "one-trigger"]
)
def test_normalize_matches_reference_loops(cfg, text_strategy):
    @settings(max_examples=400, deadline=None)
    @given(text_strategy)
    def check(body):
        assert corpus.normalize(body, cfg) == _ref_normalize(body, cfg)

    check()


@pytest.mark.parametrize(
    "text_strategy", [_TRICKY_TEXT, _ONE_TRIGGER, st.sampled_from(["___", "x\n___", "- _a_", "`a`\t|"])],
    ids=["tricky", "one-trigger", "rules"],
)
def test_guarded_markdown_passes_match_the_unguarded_ones(cfg, text_strategy):
    # normalize drops leftover punctuation, which can hide a pass wrongly skipped
    @settings(max_examples=400, deadline=None)
    @given(text_strategy)
    def check(text):
        assert corpus._strip_markdown(text, cfg.smilies) == _ref_strip_markdown(text, cfg.smilies)

    check()


@pytest.mark.parametrize(
    "body",
    ["    kw", "kw\n\tkw", "1. kw", "\u0663. kw", "kw|kw", "# kw", "+ kw", "- kw", "> kw", "`kw`",
     "[kw](http://x.y)", "*kw*", "_kw_", "~~kw~~", "kw\n---", "kw 1.5", "kw:-)kw", "www.x.y kw",
     "a://b", "_www.x.y_", "\x00kw\x00", "caf\u00e9 e\u0301 \u2014 \u20ac kw"],
)
def test_normalize_matches_reference_at_each_skip_condition(cfg, body):
    assert corpus.normalize(body, cfg) == _ref_normalize(body, cfg)


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(st.text(), _TRICKY_TEXT))
def test_normalize_is_total_and_matches_reference_for_any_config(cfg, body):
    tokens = corpus.normalize(body, cfg)
    assert tokens == _ref_normalize(body, cfg)
    assert all(tok and tok == "".join(tok.split()) for tok in tokens)


# --- the per-chunk memo of a config ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(_TRICKY_TEXT, max_size=8))
def test_a_warm_config_normalizes_as_a_fresh_one(cfg, bodies):
    warm = dataclasses.replace(cfg)
    first = [corpus.normalize(body, warm) for body in bodies]
    again = [corpus.normalize(body, warm) for body in bodies]
    fresh = [corpus.normalize(body, dataclasses.replace(cfg)) for body in bodies]
    assert first == again == fresh
    # equal tokens are one shared string
    shared = {}
    for tok in (tok for tokens in first + again for tok in tokens):
        assert shared.setdefault(tok, tok) is tok


def test_a_bounded_memo_changes_no_output(cfg, monkeypatch):
    rng = random.Random(5)
    words = ["kw", "Kw!", "kwww", "the", ":)", "www.x.y", "\x00", "caf\u00e9", "**b**", "a,b"]
    comments = [corpus.RawComment(f"u{rng.randrange(4)}", "c", " ".join(rng.choices(words, k=6)))
                for _ in range(200)]
    unbounded = corpus.aggregate_profiles(comments, dataclasses.replace(cfg))
    bounded = dataclasses.replace(cfg)
    sizes = []
    chunk_token = corpus._chunk_token

    def recording(chunk, smilies, stopwords):
        sizes.append(len(bounded._chunk_tokens))
        return chunk_token(chunk, smilies, stopwords)

    monkeypatch.setattr(corpus, "_TAIL_CACHE_MAX", 2)
    monkeypatch.setattr(corpus, "_chunk_token", recording)
    assert corpus.aggregate_profiles(comments, bounded) == unbounded
    assert len(sizes) > len(words)  # the memo was emptied and filled again
    # each insert finds fewer entries than the bound, so the memo never holds more
    assert max(sizes) < 2 and len(bounded._chunk_tokens) <= 2


def test_the_memo_leaves_equality_hash_and_repr_alone(cfg):
    used, unused = dataclasses.replace(cfg), dataclasses.replace(cfg)
    before = repr(used)
    corpus.normalize("some words, *more* words :) http://x.org", used)
    assert len(used._chunk_tokens) > 0
    assert used == unused and hash(used) == hash(unused)
    assert repr(used) == before == f"NormalizationConfig(stopwords={used.stopwords!r}, smilies={used.smilies!r})"
    assert len(dataclasses.replace(used)._chunk_tokens) == 0


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_RECORDS = st.dictionaries(
    st.sampled_from(["author", "community", "body", "created_at", "other"]), _JSON_VALUES
).map(json.dumps)
_LINES = st.one_of(
    _RECORDS,
    st.text(),
    st.sampled_from(['{"author":"a","community":"c","body":"x","created_at":1e400}',
                     "[" * 5000 + "]" * 5000, "null", "[]", '"str"', "{", "\ufeff"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=8))
def test_lenient_ingest_never_raises(lines):
    blob = "\n".join(lines)
    result = _ingest(blob, lenient=True)
    # every nonblank line ends up as either a comment or an error; a BOM that
    # starts the file is not part of its first line
    assert len(result.comments) + len(result.errors) == sum(
        1 for ln in blob.removeprefix("\ufeff").split("\n") if ln.strip())
    for line_no, message in result.errors:
        assert line_no >= 1 and isinstance(message, str)


def test_ingest_bytes_line_with_invalid_byte_is_a_bad_line():
    blob = (b'{"author":"u0","community":"c","body":"fine"}\n'
            b'{"author":"u1","community":"c","body":"caf\xff"}\n')
    result = _ingest(blob, lenient=True)
    assert [c.author_id for c in result.comments] == ["u0"]
    assert [line_no for line_no, _ in result.errors] == [2]
    assert "0xff" in result.errors[0][1]
    with pytest.raises(ValueError, match="^line 2: .*0xff"):
        _ingest(blob)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_LINES.map(lambda s: s.encode("utf-8")), st.binary(max_size=40)), max_size=8))
def test_lenient_ingest_of_bytes_never_raises(lines):
    blob = b"\n".join(lines)
    result = _ingest(blob, lenient=True)
    lines = blob.removeprefix(b"\xef\xbb\xbf").split(b"\n")  # a BOM that starts the file is dropped
    assert len(result.comments) + len(result.errors) == sum(
        1 for ln in lines if ln.decode("utf-8", errors="replace").strip())
    for line_no, message in result.errors:
        assert line_no >= 1 and isinstance(message, str)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.tuples(st.text(max_size=5), st.text(max_size=5)),
    st.tuples(st.lists(st.text(max_size=5), max_size=12), st.integers(min_value=0, max_value=10**6)),
    max_size=6,
))
def test_profile_store_roundtrip(streams):
    profiles = {
        key: corpus.TokenStream(tokens=tokens, n_comments=n)
        for key, (tokens, n) in streams.items()
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profiles.jsonl")
        corpus.write_profiles(profiles, path)
        loaded = corpus.load_profiles(path)
    assert sorted(loaded) == sorted(profiles)
    for key, stream in profiles.items():
        assert loaded[key].tokens == stream.tokens
        assert loaded[key].n_comments == stream.n_comments


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
@pytest.mark.parametrize("form", ["str", "bytes", "binary-file"])
def test_ingest_keeps_unicode_line_separators_inside_a_line(separator, form, tmp_path):
    # the file is written as text, as bytes, or copied from a binary stream;
    # none of these writers splits at the separator, and neither does ingest
    blob = '{"author":"a","community":"c","body":"x' + separator + 'y"}\n{"author":"b",'
    path = tmp_path / "comments.jsonl"
    if form == "str":
        path.write_text(blob, encoding="utf-8", newline="")
    elif form == "bytes":
        path.write_bytes(blob.encode("utf-8"))
    else:
        with open(path, "wb") as fh:
            shutil.copyfileobj(io.BytesIO(blob.encode("utf-8")), fh)
    assert path.read_bytes() == blob.encode("utf-8")
    result = corpus.ingest_jsonl(path, lenient=True)
    assert [c.body for c in result.comments] == ["x" + separator + "y"]
    assert [line_no for line_no, _ in result.errors] == [2]


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_ingest_control_separator_makes_one_bad_line(separator):
    # JSON forbids raw control characters in strings: one bad line, not two
    result = _ingest('{"author":"a","community":"c","body":"x' + separator + 'y"}\n', lenient=True)
    assert result.comments == []
    assert [line_no for line_no, _ in result.errors] == [1]


def test_ingest_lone_carriage_return_does_not_end_a_line():
    first = b'{"author":"a","community":"c","body":"x"}'
    second = b'{"author":"b","community":"c","body":"y"}'
    result = _ingest(first + b"\r" + second + b"\n", lenient=True)
    assert result.comments == []
    assert [line_no for line_no, _ in result.errors] == [1]
    # CRLF still ends a line: the carriage return is stripped with the line
    result = _ingest(first + b"\r\n" + second + b"\r\n")
    assert [c.author_id for c in result.comments] == ["a", "b"]


# --- pinned output of a messy corpus -----------------------------------------------

_MESSY_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "shi", "po", "an", "el", "gra", "ton")
_MESSY_PIECES = (
    "*{w}*", "**{w}**", "_{w}_", "__{w}__", "~~{w}~~", "`{w}`", "[{w}](http://{h}/{w})",
    "[{w}]( https://{h}:8080/a?b=1 )", "\n# {w}\n", "\n## {w} ##\n", "\n- {w}\n", "\n3. {w}\n",
    "\n> {w} said\n", "\n```\n{w} = 1\n```\n", "\n    {w}()\n", "\n| {w} | {w} |\n|---|:-:|\n",
    "\n---\n", "http://{h}/{w}", "https://u:p@{h}:80/x#f", "www.{h}", "({w}: www.{h}/{w})",
    "x.www.{w}", "{w}!!!!!!", "{w}{w}{w}", "sooooo", "HAHAHAHA", "caf\u00e9", "cafe\u0301",
    "A\u030angstrom", "na\u00efve", "\ufb01ne", "\u05b0{w}", "\x00{w}\x00", "\x02", "\x00www.{h}\x00",
    "{w}\u2014{w}", "\u20ac5", "{w}\u2026", "\u00a0", "\u3000", "\x85", "\t", "{w},", "{w}.", "'{w}'",
    "the", "and", "of", "It", "\U0001f600",
)
_MESSY_HOSTS = ("example.com", "news.example.org", "wiki-site.net", "r\u00e9seau.fr", "a.b")


def _messy_lines(seed, n_comments=3000, n_authors=25, n_bad=30):
    """A seeded markup-heavy JSONL corpus of 2 communities, with malformed lines mixed in."""
    rng = random.Random(seed)
    words = ["".join(rng.choices(_MESSY_SYLLABLES, k=rng.randint(1, 3))) for _ in range(300)]
    smilies = _SMILIES + [s.upper() for s in _SMILIES]
    lines = []
    for n in range(n_comments):
        parts = []
        for _ in range(rng.randint(0, 14)):
            roll = rng.random()
            if roll < 0.4:
                word = rng.choice(words)
                parts.append(word.capitalize() if rng.random() < 0.2 else word)
            elif roll < 0.55:
                parts.append(rng.choice(smilies))
            else:
                parts.append(rng.choice(_MESSY_PIECES).format(w=rng.choice(words), h=rng.choice(_MESSY_HOSTS)))
        rec = {"author": f"u{rng.randrange(n_authors)}", "community": rng.choice(("alpha", "beta")),
               "body": rng.choice((" ", "", "  ")).join(parts) if rng.random() < 0.1 else " ".join(parts),
               "created_at": 1_400_000_000 + n}
        lines.append(json.dumps(rec, ensure_ascii=rng.random() < 0.5).encode("utf-8"))
    bad = (b'{"author": "u1", "community": "alpha", "body": "caf\xff"}', b'{"author": "u1",',
           b'{"author": "u1", "community": "alpha"}', b'{"author": "u1", "community": "beta", "body": 7}',
           b'{"author": "u1", "community": "beta", "body": "x", "created_at": true}', b'["not", "an", "object"]')
    for n in range(n_bad):
        lines.insert(rng.randrange(len(lines) + 1), bad[n % len(bad)])
    return lines


def test_messy_corpus_profiles_are_pinned(tmp_path, capsys):
    src = tmp_path / "comments.jsonl"
    src.write_bytes(b"\n".join(_messy_lines(2024)) + b"\n")
    out = tmp_path / "out"
    code = cli.dispatch(["ingest", "--input", str(src), "--min-comments", "1", "--min-profiles", "1",
                         "--lenient", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and "kept 50 of 50 profiles" in captured.out
    assert "skipped 30 malformed line(s)" in captured.err
    digest = hashlib.sha256((out / "profiles.jsonl").read_bytes()).hexdigest()
    assert digest == "2cd960b16a995aa7d772924298f42a475e7f8215bad642c6e20ad304b1552c86"
