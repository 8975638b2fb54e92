"""Divergences and the square-root Jensen-Shannon distance on sparse distributions.

All logarithms are base 2, so the Jensen-Shannon divergence of two
distributions lies in [0, 1] and its square root is a metric on the same
range (1 is reached exactly when the supports are disjoint); see Endres and
Schindelin, IEEE Trans. Inf. Theory 49(7), 2003.

A distribution is a token->probability mapping, such as the dict
`lm.to_distribution` returns; every function here reads it as a mapping.
The scalar `kl`, `js` and `distance` are the reference definition.
`pairwise_distances` and `cross_distances` read collections that `_prepare`
builds once over one sorted vocabulary, row-major and token-major;
collections it already built are read as they are.  Their row kernel expands
only the target entries sharing a token with the source row; memory is
O(vocabulary + support entries).  Results are bit-stable: independent of the
row split and the worker count, exactly symmetric, and exactly 0 for
identical profiles.  `pairwise_distances` returns the packed upper triangle
(the `.dmat` payload, scipy's condensed form).  `workers` has no effect.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "kl",
    "js",
    "distance",
    "pairwise_distances",
    "cross_distances",
]


def kl(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Kullback-Leibler divergence KL(P || Q) in bits.

    Requires support(P) to be contained in support(Q); raises ValueError
    otherwise.  Terms absent from P contribute zero.
    """
    total = 0.0
    for token in sorted(p):
        pv = p[token]
        if pv <= 0.0:
            continue
        qv = q.get(token, 0.0)
        if qv <= 0.0:
            raise ValueError(f"KL undefined: token {token!r} in P but not in Q")
        total += pv * math.log2(pv / qv)
    return total


def js(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Jensen-Shannon divergence in bits, in [0, 1].

    JS(P, Q) = KL(P||M)/2 + KL(Q||M)/2 with M = (P+Q)/2.  Tokens missing
    from both sides are skipped; a token present on exactly one side
    contributes p*log2(2) to that side's KL term since M(token) = p/2.
    The result is clamped into [0, 1] to absorb last-ulp rounding.
    """
    total = 0.0
    for token in sorted(p.keys() | q.keys()):
        pv = p.get(token, 0.0)
        qv = q.get(token, 0.0)
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


class _Profiles(list):
    """A list of token->probability mappings, prepared for the row kernel over a shared vocabulary.

    Row r holds `ids[indptr[r]:indptr[r+1]]` (token ids, ascending) and the
    matching positive `probs`; `sums` holds each row's mass, added in entry
    order as the kernel adds its shared terms, so identical profiles give
    exactly 0.  The token-major index holds token t's rows, ascending, in
    `col_rows[colptr[t]:colptr[t+1]]` and their probabilities in `col_probs`.
    """

    def __init__(self, dists: Iterable[Mapping[str, float]], vocab: Mapping[str, int]):
        super().__init__(dists)
        self.vocab = vocab
        self.indptr = np.zeros(len(self) + 1, dtype=np.int64)
        ids = np.empty(sum(map(len, self)), dtype=np.int64)
        probs = np.empty(len(ids), dtype=np.float64)
        pos = 0
        for r, pm in enumerate(self):
            row_ids = np.fromiter(map(vocab.__getitem__, pm), dtype=np.int64, count=len(pm))
            row_p = np.fromiter(pm.values(), dtype=np.float64, count=len(pm))
            order = np.argsort(row_ids)
            order = order[row_p[order] > 0.0]
            end = pos + len(order)
            ids[pos:end], probs[pos:end] = row_ids[order], row_p[order]
            pos = self.indptr[r + 1] = end
        self.ids, self.probs = ids[:pos], probs[:pos]
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        self.sums = np.bincount(rows, self.probs, len(self))
        self.colptr = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ids, minlength=len(vocab)), out=self.colptr[1:])
        order = np.argsort(self.ids, kind="stable")
        self.col_rows = rows[order]
        del rows  # preparing peaks at these copies: free the row of each entry first
        self.col_probs = self.probs[order]


def _prepare(*collections) -> tuple:
    """Each collection as a `_Profiles`, all over one vocabulary.

    Collections already prepared over one vocabulary are returned as they
    are; otherwise all are prepared over their sorted tokens, so the ids
    shared across collections keep each one's relative order.
    """
    if all(isinstance(c, _Profiles) and c.vocab is collections[0].vocab for c in collections):
        return collections
    tokens = set().union(*(d.keys() for collection in collections for d in collection))
    vocab = {tok: i for i, tok in enumerate(sorted(tokens))}
    return tuple(_Profiles(collection, vocab) for collection in collections)


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
            starts = cursor[tokens]
        else:
            starts = dst.colptr[tokens]
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
