import json
import math
import os
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkrisk import lm


def test_from_tokens_counts():
    model = lm.UnigramModel.from_tokens(["a", "a", "b"])
    assert model.counts == {"a": 2, "b": 1}
    assert model.total == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]) | st.text(max_size=3), max_size=20),
                min_size=1, max_size=4))
def test_counting_matches_a_plain_loop(batches):
    model = lm.UnigramModel.from_tokens(tok for tokens in batches for tok in tokens)  # read once
    counts, total = {}, 0
    for tokens in batches:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
            total += 1
    assert type(model.counts) is dict
    assert list(model.counts.items()) == list(counts.items())  # same keys in the same order
    assert model.total == total


def _merged(*models):
    out = lm.UnigramModel()
    for m in models:
        out.merge_in(m)
    return out


def test_merge_additivity():
    a = lm.UnigramModel.from_tokens(["a"])
    b = lm.UnigramModel.from_tokens(["b"])
    merged = _merged(a, b)
    assert merged.counts == {"a": 1, "b": 1}
    assert merged.total == 2


def test_total_is_the_sum_of_the_counts():
    model = lm.UnigramModel(counts={"a": 5, "b": 0})
    assert model.total == 5
    model.merge_in(lm.UnigramModel.from_tokens(["a", "c"]))
    assert model.counts == {"a": 6, "b": 0, "c": 1} and model.total == 7
    with pytest.raises(AttributeError):
        model.total = 3
    with pytest.raises(TypeError):
        lm.UnigramModel(counts={}, total=0)


def test_to_distribution_values():
    model = lm.UnigramModel.from_tokens(["a", "a", "b"])
    dist = lm.to_distribution(model)
    assert dist == {"a": pytest.approx(2 / 3), "b": pytest.approx(1 / 3)}


def test_to_distribution_point_mass():
    model = lm.UnigramModel(counts={"a": 5})
    assert lm.to_distribution(model) == {"a": 1.0}


def test_to_distribution_empty_model_errors():
    with pytest.raises(ValueError, match="empty model"):
        lm.to_distribution(lm.UnigramModel())


def test_merged_distribution_is_count_weighted_mixture():
    a = lm.UnigramModel.from_tokens(["x", "x", "y"])
    b = lm.UnigramModel.from_tokens(["y", "z", "z", "z"])
    merged = _merged(a, b)
    da, db, dm = (lm.to_distribution(m) for m in (a, b, merged))
    wa = a.total / merged.total
    wb = b.total / merged.total
    for token in set(da) | set(db):
        expected = wa * da.get(token, 0.0) + wb * db.get(token, 0.0)
        assert dm[token] == pytest.approx(expected, abs=1e-12)


def test_top_k_ordering_and_ties():
    model = lm.UnigramModel(counts={"b": 3, "a": 3, "c": 7, "d": 1})
    assert lm.top_k(model, 3) == [("c", 7), ("a", 3), ("b", 3)]
    assert lm.top_k(model, 0) == []
    assert lm.top_k(model, 99) == [("c", 7), ("a", 3), ("b", 3), ("d", 1)]
    with pytest.raises(ValueError):
        lm.top_k(model, -1)


def test_top_k_on_community_style_fixtures():
    # counts mirror well-known community-level token tallies
    lost = lm.UnigramModel(counts={"island": 832, "show": 750, "lost": 653})
    assert lm.top_k(lost, 1) == [("island", 832)]
    tot = lm.UnigramModel(counts={"www.youtube.com": 3663, "song": 1542})
    assert lm.top_k(tot, 1) == [("www.youtube.com", 3663)]


def test_build_models_aggregates_per_level():
    streams = {
        ("alice", "lost"): ["a", "a", "b"],
        ("bob", "lost"): ["b"],
        ("alice", "cooking"): ["c"],
    }
    profiles, communities, global_model = lm.build_models(streams)
    assert profiles[("alice", "lost")].counts == {"a": 2, "b": 1}
    assert communities["lost"].counts == {"a": 2, "b": 2}
    assert communities["cooking"].counts == {"c": 1}
    assert global_model.counts == {"a": 2, "b": 2, "c": 1}
    assert global_model.total == 5


def test_build_models_empty_input():
    profiles, communities, global_model = lm.build_models({})
    assert profiles == {} and communities == {}
    assert global_model.total == 0


def test_build_models_accepts_token_streams():
    from linkrisk.corpus import TokenStream

    streams = {
        ("a", "c"): TokenStream(tokens=["x", "x"], n_comments=2),
    }
    profiles, _, _ = lm.build_models(streams)
    assert profiles[("a", "c")].counts == {"x": 2}


def test_save_load_roundtrip(tmp_path):
    streams = {
        ("alice", "lost"): ["a", "a", "b"],
        ("bob", "lost"): ["b"],
        ("carol", "cooking"): ["c", "d"],
    }
    built = lm.build_models(streams)
    path = tmp_path / "models.jsonl"
    lm.save_models(path, built[0])
    assert lm.load_models(path) == built
    assert path.read_text(encoding="utf-8") == (
        '{"counts":{"a":2,"b":1},"key":["alice","lost"],"kind":"profile"}\n'
        '{"counts":{"b":1},"key":["bob","lost"],"kind":"profile"}\n'
        '{"counts":{"c":1,"d":1},"key":["carol","cooking"],"kind":"profile"}\n'
    )


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=3), st.integers(min_value=0, max_value=10**9), max_size=12))
@example({"a": 0, "b": 0})
def test_to_distribution_is_a_plain_dict_of_the_positive_counts(counts):
    model = lm.UnigramModel(counts=counts)
    if model.total == 0:  # no tokens, or only zero counts
        with pytest.raises(ValueError, match="empty model"):
            lm.to_distribution(model)
        return
    dist = lm.to_distribution(model)
    assert type(dist) is dict
    assert list(dist) == [tok for tok, c in counts.items() if c > 0]
    assert all(0.0 < p <= 1.0 for p in dist.values())
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "record",
    [
        '{"kind":"profile","counts":{"a":1}}',
        '{"kind":"community","key":"c"}',
        '{"kind":"global","key":null,"counts":[1]}',
        "[1, 2]",
        '{"kind":"global","key":null,"counts":{"b":2}}',
    ],
)
def test_load_models_rejects_record_without_key_or_counts(tmp_path, record):
    path = tmp_path / "models.jsonl"
    path.write_text('{"kind":"profile","key":["u","c"],"counts":{"a":1}}\n' + record + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="^line 2: "):
        lm.load_models(path)


@pytest.mark.parametrize(
    "record",
    [
        '{"kind":"profile","key":"ab","counts":{"a":1}}',
        '{"kind":"profile","key":["a"],"counts":{"a":1}}',
        '{"kind":"profile","key":["a","b","c"],"counts":{"a":1}}',
        '{"kind":"profile","key":["a",1],"counts":{"a":1}}',
    ],
)
def test_load_models_rejects_malformed_keys(tmp_path, record):
    path = tmp_path / "models.jsonl"
    path.write_text('{"kind":"profile","key":["u","c"],"counts":{"a":1}}\n' + record + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="^line 2: .* key must be "):
        lm.load_models(path)


@pytest.mark.parametrize("record, message", [
    ('{"kind":"profile","key":["u","c"],"counts":{"b":2}}', "duplicate profile ('u', 'c')"),
], ids=["profile"])
def test_load_models_rejects_a_repeated_record(tmp_path, record, message):
    path = tmp_path / "models.jsonl"
    path.write_text('{"kind":"profile","key":["u","c"],"counts":{"a":1}}\n' + record + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"line 2: {message}") + "$"):
        lm.load_models(path)


def test_load_models_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "models.jsonl"
    for kind in ("author", "profle", None):
        path.write_text('{"kind":"profile","key":["u","c"],"counts":{"a":1}}\n'
                        + json.dumps({"kind": kind, "key": "u", "counts": {"a": 1}}) + "\n", encoding="utf-8")
        message = f"line 2: model kind {kind!r} is not read; re-run linkrisk build-models"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            lm.load_models(path)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.tuples(st.text(max_size=5), st.text(max_size=5)),
    st.lists(st.text(max_size=5), max_size=12),
    max_size=6,
))
def test_model_store_roundtrip(streams):
    built = lm.build_models(streams)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "models.jsonl")
        lm.save_models(path, built[0])
        loaded = lm.load_models(path)
    # UnigramModel compares counts; the dicts compare their keys
    assert loaded == built
    profiles, communities, global_model = loaded
    assert set(communities) == {community for _, community in profiles}
    for name, model in communities.items():
        members = [m for (_, community), m in profiles.items() if community == name]
        assert model.counts == dict(sum((Counter(m.counts) for m in members), Counter()))
        assert model.total == sum(m.total for m in members)
    assert global_model.total == sum(m.total for m in profiles.values())
