"""Divergences and the square-root Jensen-Shannon distance on sparse distributions.

All logarithms are base 2, so the Jensen-Shannon divergence of two
distributions lies in [0, 1] and its square root is a metric on the same
range, 1 exactly when the supports are disjoint; see Endres and Schindelin,
IEEE Trans. Inf. Theory 49(7), 2003.  In floating point a disjoint pair
gives 1 up to the rounding of the two masses' sums (exactly 1 for dyadic
masses, else possibly an ulp or two below); identical profiles give 0.

A distribution is a token->probability mapping, such as the dict
`lm.to_distribution` returns; every function here reads it as a mapping and
refuses a mass that is not a finite number >= 0 (an explicit 0 is an absent
token).  The scalar `js` and `distance` are the reference definition.
`pairwise_distances` and `cross_distances` read collections that `_prepare`
packs once over one sorted vocabulary, row-major and token-major;
collections it already packed are read as they are.  `_prepare` reads each
collection once and keeps only the packed arrays, so a caller that passes a
generator of distributions holds one of them at a time, and a packed
collection gives each row back as a dict when iterated.  The row kernel expands
only the target entries sharing a token with the source row; memory is
O(vocabulary + support entries).  Results are bit-stable: independent of the
row split and the worker count, exactly symmetric, and exactly 0 for
identical profiles.  `pairwise_distances` returns the packed upper triangle
(the `.dmat` payload, scipy's condensed form).  `workers` has no effect.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "js",
    "distance",
    "pairwise_distances",
    "cross_distances",
]


def js(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Jensen-Shannon divergence in bits, in [0, 1].

    JS(P, Q) = KL(P||M)/2 + KL(Q||M)/2 with M = (P+Q)/2.  Tokens missing
    from both sides, or 0 on both, are skipped; a token present on exactly
    one side contributes p*log2(2) to that side's KL term since M(token) = p/2.
    A mass that is not a finite number >= 0 raises ValueError.  The result
    is clamped into [0, 1] to absorb last-ulp rounding.
    """
    total = 0.0
    for token in sorted(p.keys() | q.keys()):
        pv = p.get(token, 0.0)
        qv = q.get(token, 0.0)
        for v in (pv, qv):
            if not 0.0 <= v < math.inf:  # NaN fails every comparison
                raise ValueError(f"mass {v!r} is not a finite number >= 0")
        m = 0.5 * (pv + qv)
        if m <= 0.0:
            continue
        term = 0.0
        if pv > 0.0:
            term += pv * math.log2(pv / m)
        if qv > 0.0:
            term += qv * math.log2(qv / m)
        total += 0.5 * term
    return min(1.0, max(0.0, total))


def distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Square-root Jensen-Shannon distance, a metric in [0, 1]."""
    return math.sqrt(js(p, q))


class _Profiles:
    """A collection of distributions packed for the row kernel over a shared vocabulary.

    Only the packed arrays and the vocabulary are kept, never the mappings
    themselves.  `vocab` maps each token to its id, in id order.  Row r holds
    `ids[indptr[r]:indptr[r+1]]` (token ids, ascending) and the matching
    positive `probs`; `sums` holds each row's mass, added in entry order as
    the kernel adds its shared terms, so identical profiles give exactly 0.
    The token-major index holds token t's rows, ascending, in
    `col_rows[colptr[t]:colptr[t+1]]` and their probabilities in `col_probs`.
    `len()` is the row count, and iterating yields each row as a fresh
    token->probability dict.
    """

    def __init__(self, rows: Sequence[tuple], vocab: Mapping[str, int]):
        """Pack `rows`, each a token list and the float64 array of their probabilities."""
        self.vocab = vocab
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        ids = np.empty(sum(len(row_p) for _, row_p in rows), dtype=np.int64)
        probs = np.empty(len(ids), dtype=np.float64)
        pos = 0
        for r, (tokens, row_p) in enumerate(rows):
            row_ids = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))
            order = np.argsort(row_ids)
            order = order[row_p[order] != 0.0]
            end = pos + len(order)
            ids[pos:end], probs[pos:end] = row_ids[order], row_p[order]
            pos = self.indptr[r + 1] = end
        self.ids, self.probs = ids[:pos], probs[:pos]
        if pos and not 0.0 <= self.probs.min() <= self.probs.max() < np.inf:  # NaN fails every comparison
            bad = self.probs[~((self.probs >= 0.0) & (self.probs < np.inf))][0]
            raise ValueError(f"mass {float(bad)!r} is not a finite number >= 0")
        entry_rows = np.repeat(np.arange(len(rows)), np.diff(self.indptr))
        self.sums = np.bincount(entry_rows, self.probs, len(rows))
        self.colptr = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ids, minlength=len(vocab)), out=self.colptr[1:])
        order = np.argsort(self.ids, kind="stable")
        self.col_rows = entry_rows[order]
        del entry_rows  # preparing peaks at these copies: free the row of each entry first
        self.col_probs = self.probs[order]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self) -> Iterator[dict]:
        names = list(self.vocab)
        bounds = self.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield dict(zip(map(names.__getitem__, self.ids[lo:hi].tolist()), self.probs[lo:hi].tolist()))


def _compact(dist: Mapping[str, float]) -> tuple:
    """A distribution as its token list and the float64 array of their probabilities."""
    return list(dist), np.fromiter(dist.values(), dtype=np.float64, count=len(dist))


def _prepare(*collections) -> tuple:
    """Each collection as a `_Profiles`, all over one vocabulary.

    Collections already prepared over one vocabulary are returned as they
    are.  Otherwise each collection is read once, and each distribution
    becomes a compact row as it arrives, so a generator of distributions
    needs only one alive at a time; all are then packed over the sorted
    tokens of every row, so the ids shared across collections keep each
    one's relative order.
    """
    if all(isinstance(c, _Profiles) and c.vocab is collections[0].vocab for c in collections):
        return collections
    # map holds no distribution once it is compacted, while a for loop would
    # hold the last one until the next arrives
    rows = [list(map(_compact, collection)) for collection in collections]
    tokens = set().union(*(row_tokens for compact in rows for row_tokens, _ in compact))
    vocab = {tok: i for i, tok in enumerate(sorted(tokens))}
    del tokens
    return tuple(_Profiles(compact, vocab) for compact in rows)


def _distance_rows(src: _Profiles, dst: _Profiles, out: np.ndarray, pairwise: bool) -> None:
    """Write sqrt-JS distances from each `src` row to `dst` rows into flat `out`, row after row.

    A source row expands only its own tokens' ranges in `dst`'s prepared
    token-major index (`colptr`), so log terms are taken on shared (token,
    target row) pairs alone; other entries enter through the row masses.  One
    `bincount` adds a row's terms per target in ascending token id, so a
    pair's value depends on that pair alone and is exactly symmetric.  With
    `pairwise`, row i reads only targets j > i, filling the upper triangle.
    """
    cursor = dst.colptr[:-1].copy()
    pos = 0
    for i in range(len(src)):
        first = i + 1 if pairwise else 0
        width = len(dst) - first
        if width <= 0:
            break
        lo, hi = src.indptr[i], src.indptr[i + 1]
        tokens = src.ids[lo:hi]
        if pairwise:  # cursor[t] is row i's own entry of t; read from just after it
            cursor[tokens] += 1
        starts = cursor[tokens]  # in cross mode the cursor never moves off each column's start
        counts = dst.colptr[tokens + 1] - starts
        offsets = np.cumsum(counts) - counts
        at = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        p = np.repeat(src.probs[lo:hi], counts)
        q = dst.col_probs[at]
        m2 = p + q
        terms = p * np.log2(2.0 * p / m2) + q * np.log2(2.0 * q / m2) - m2
        shared = np.bincount(dst.col_rows[at] - first, terms, width)
        total = 0.5 * (src.sums[i] + dst.sums[first:] + shared)
        out[pos:pos + width] = np.sqrt(np.clip(total, 0.0, 1.0))
        pos += width


def pairwise_distances(dists: Sequence, workers: int | None = None) -> np.ndarray:
    """sqrt-JS distances of the pairs i < j, row by row: float64 of length n(n-1)/2."""
    (profiles,) = _prepare(dists)
    n = len(profiles)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    _distance_rows(profiles, profiles, out, pairwise=True)
    return out


def cross_distances(dists_a: Sequence, dists_b: Sequence, workers: int | None = None) -> np.ndarray:
    """len(a) x len(b) matrix of sqrt-JS distances between two collections."""
    a, b = _prepare(dists_a, dists_b)
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    _distance_rows(a, b, out.reshape(-1), pairwise=False)
    return out
