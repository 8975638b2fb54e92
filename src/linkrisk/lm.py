"""Unigram language models for profiles, communities, and the whole corpus.

A model is a sparse token->count table; normalizing the counts by their sum
yields the token distribution that the distance metric consumes, a plain
dict from each token of positive count to its probability.  Only
profile models are counted from tokens and stored: a community model is the
count-wise sum of its member profiles, and the global model the sum of all
communities, both summed by one function when models are built and when a
store is loaded for a caller that needs them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from .corpus import ProfileKey, _store_records, _write_records

__all__ = [
    "UnigramModel",
    "build_models",
    "to_distribution",
    "as_distribution",
    "top_k",
    "save_models",
    "load_models",
]

@dataclass
class UnigramModel:
    """Token counts for one profile or community; `total` is their sum."""

    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "UnigramModel":
        """Count `tokens` into a new model.

        `collections.Counter` does the per-token counting in C; the counts
        are a plain dict keyed in the order tokens are first seen.
        """
        return cls(counts=dict(Counter(tokens)))

    def merge_in(self, other: "UnigramModel") -> None:
        counts = self.counts
        for tok, c in other.counts.items():
            counts[tok] = counts.get(tok, 0) + c


def to_distribution(model: UnigramModel) -> Dict[str, float]:
    """Token->probability dict of the positive-count tokens.  Raises on an empty model."""
    total = float(model.total)
    if total <= 0:
        raise ValueError("empty model: cannot normalize zero total count")
    return {tok: c / total for tok, c in model.counts.items() if c > 0}


def as_distribution(model):
    """Normalize a `UnigramModel`; a token->probability mapping passes through as is."""
    return to_distribution(model) if isinstance(model, UnigramModel) else model


def _distributions(models: Mapping[str, object]) -> Tuple[List[str], Iterator[Mapping[str, float]]]:
    """The sorted keys, the one row order, and a lazy generator of their distributions for `_prepare`."""
    keys = sorted(models)
    return keys, (as_distribution(models[key]) for key in keys)


def top_k(model: UnigramModel, k: int) -> List[Tuple[str, int]]:
    """The k most frequent tokens, ties broken by token ascending."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(model.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def _aggregate(profiles: Mapping[ProfileKey, UnigramModel]) -> Tuple[Dict[str, UnigramModel], UnigramModel]:
    """Community models summed over their profiles in sorted key order, then
    the global model summed over the communities in sorted name order."""
    communities: Dict[str, UnigramModel] = {}
    for key in sorted(profiles):
        communities.setdefault(key[1], UnigramModel()).merge_in(profiles[key])
    global_model = UnigramModel()
    for name in sorted(communities):
        global_model.merge_in(communities[name])
    return communities, global_model


def build_models(
    token_streams: Mapping[ProfileKey, Iterable[str]],
) -> Tuple[Dict[ProfileKey, UnigramModel], Dict[str, UnigramModel], UnigramModel]:
    """Per-profile, per-community and global models of the token streams.

    `token_streams` maps (author, community) to an iterable of normalized
    tokens (a TokenStream works too).  Profiles are counted in sorted key
    order and summed by `_aggregate`, so the result does not depend on how
    the streams were produced.
    """
    profiles: Dict[ProfileKey, UnigramModel] = {}
    for key in sorted(token_streams):
        stream = token_streams[key]
        profiles[key] = UnigramModel.from_tokens(stream.tokens if hasattr(stream, "tokens") else stream)
    return (profiles, *_aggregate(profiles))


def save_models(path, profiles: Mapping[ProfileKey, UnigramModel]) -> None:
    """Persist the profile models, one JSON record per line in sorted key order.

    Community and global models are not stored: `load_models` sums them
    from the profiles.
    """
    _write_records(path, (
        {"kind": "profile", "key": list(key), "counts": model.counts} for key, model in sorted(profiles.items())
    ))


def load_models(path):
    """Read back a model store written by `save_models`.

    Returns the profile, community and global models, the last two summed
    from the profiles by `_aggregate` as `build_models` sums them.  A caller
    that needs the profile models alone reads them with
    `_load_profile_models`, which raises as described there, and skips the
    sums.
    """
    profiles = _load_profile_models(path)
    return (profiles, *_aggregate(profiles))


def _load_profile_models(path) -> Dict[ProfileKey, UnigramModel]:
    """The profile models of a model store written by `save_models`.

    Lines end at line feeds and are decoded as UTF-8 one at a time; a
    leading BOM is dropped.  A bad line, a second record for a profile, or
    a record of any kind but "profile" (community and global records were
    stored by earlier releases) raises ValueError("line N: ...").  So do
    counts whose sum is beyond the float range, which no distribution has.
    """
    profiles: Dict[ProfileKey, UnigramModel] = {}
    for line_no, rec in _store_records(path):
        if not isinstance(rec, dict) or "key" not in rec or not isinstance(rec.get("counts"), dict):
            raise ValueError(f"line {line_no}: model record needs 'key' and a 'counts' object")
        kind, key, counts = rec.get("kind"), rec["key"], rec["counts"]  # JSON object keys are strings already
        if kind != "profile":
            raise ValueError(f"line {line_no}: model kind {kind!r} is not read; re-run linkrisk build-models")
        if not (isinstance(key, list) and len(key) == 2 and all(isinstance(p, str) for p in key)):
            raise ValueError(f"line {line_no}: profile key must be a list of two strings")
        if not all(type(c) is int and c >= 0 for c in counts.values()):  # bool is not a count
            raise ValueError(f"line {line_no}: counts must be non-negative integers")
        try:
            float(sum(counts.values()))
        except OverflowError:
            raise ValueError(f"line {line_no}: counts sum beyond the float range") from None
        key = tuple(key)
        if key in profiles:
            raise ValueError(f"line {line_no}: duplicate profile {key!r}")
        profiles[key] = UnigramModel(counts=counts)
    return profiles
