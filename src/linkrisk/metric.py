"""Divergences and the square-root Jensen-Shannon distance on sparse distributions.

All logarithms are base 2, so the Jensen-Shannon divergence of two
distributions lies in [0, 1] and its square root is a metric on the same
range (1 is reached exactly when the supports are disjoint); see Endres and
Schindelin, IEEE Trans. Inf. Theory 49(7), 2003.

The scalar `kl`, `js` and `distance` over token->probability mappings are
the reference definition.  `pairwise_distances` and `cross_distances` share
one row kernel that reads the target collection token-major, so a source row
touches only the target entries sharing one of its tokens; memory is
O(vocabulary + support entries).  Results are bit-stable: independent of
the row split and the worker count, exactly symmetric, and exactly 0 for
identical profiles.  `pairwise_distances` returns the packed upper triangle
(the `.dmat` payload, scipy's condensed form).  `workers` has no effect.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "kl",
    "js",
    "distance",
    "pairwise_distances",
    "cross_distances",
]


def _probs(dist) -> Mapping[str, float]:
    # accept either a raw mapping or an object exposing .probs
    return dist.probs if hasattr(dist, "probs") else dist


def kl(p, q) -> float:
    """Kullback-Leibler divergence KL(P || Q) in bits.

    Requires support(P) to be contained in support(Q); raises ValueError
    otherwise.  Terms absent from P contribute zero.
    """
    pp, qp = _probs(p), _probs(q)
    total = 0.0
    for token in sorted(pp):
        pv = pp[token]
        if pv <= 0.0:
            continue
        qv = qp.get(token, 0.0)
        if qv <= 0.0:
            raise ValueError(f"KL undefined: token {token!r} in P but not in Q")
        total += pv * math.log2(pv / qv)
    return total


def js(p, q) -> float:
    """Jensen-Shannon divergence in bits, in [0, 1].

    JS(P, Q) = KL(P||M)/2 + KL(Q||M)/2 with M = (P+Q)/2.  Tokens missing
    from both sides are skipped; a token present on exactly one side
    contributes p*log2(2) to that side's KL term since M(token) = p/2.
    The result is clamped into [0, 1] to absorb last-ulp rounding.
    """
    pp, qp = _probs(p), _probs(q)
    total = 0.0
    for token in sorted(pp.keys() | qp.keys()):
        pv = pp.get(token, 0.0)
        qv = qp.get(token, 0.0)
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


def distance(p, q) -> float:
    """Square-root Jensen-Shannon distance, a metric in [0, 1]."""
    return math.sqrt(js(p, q))


def build_vocab_index(dists: Iterable) -> Dict[str, int]:
    """Map every token appearing in `dists` to a stable id (sorted order)."""
    vocab = set()
    for d in dists:
        vocab.update(_probs(d).keys())
    return {tok: i for i, tok in enumerate(sorted(vocab))}


class _CSR:
    """Positive probabilities of several distributions in compressed-row form.

    Row r holds `ids[indptr[r]:indptr[r+1]]` (token ids, ascending) and the
    matching `probs`; `sums` holds each row's mass, added in entry order as
    the kernel adds its shared terms, so identical profiles give exactly 0.
    """

    def __init__(self, dists: Sequence, index: Mapping[str, int]):
        maps = [_probs(d) for d in dists]
        n = len(maps)
        capacity = sum(len(pm) for pm in maps)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        ids = np.empty(capacity, dtype=np.int64)
        probs = np.empty(capacity, dtype=np.float64)
        pos = 0
        for r, pm in enumerate(maps):
            row_ids = np.fromiter(map(index.__getitem__, pm), dtype=np.int64, count=len(pm))
            row_p = np.fromiter(pm.values(), dtype=np.float64, count=len(pm))
            keep = row_p > 0.0
            row_ids, row_p = row_ids[keep], row_p[keep]
            order = np.argsort(row_ids)
            end = pos + len(order)
            ids[pos:end] = row_ids[order]
            probs[pos:end] = row_p[order]
            pos = self.indptr[r + 1] = end
        self.ids = ids[:pos]
        self.probs = probs[:pos]
        self.sums = np.bincount(self.rows(), self.probs, n)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


def _distance_rows(src: _CSR, dst: _CSR, vocab_size: int, out: np.ndarray, pairwise: bool) -> None:
    """Write sqrt-JS distances from each `src` row to `dst` rows into flat `out`, row after row.

    A stable sort of `dst`'s entries by token id lists, for each token, the
    target rows that hold it (ascending) and their probabilities; `ptr`
    gives each token's range.  A source row expands the ranges of its own
    tokens only, so log terms are taken on shared (token, target row) pairs
    alone and every other entry enters through the row masses.  One
    `bincount` adds a row's terms per target in ascending token id, so a
    pair's value depends on that pair alone and is exactly symmetric.  With
    `pairwise`, row i reads only targets j > i, filling the upper triangle.
    """
    order = np.argsort(dst.ids, kind="stable")
    rows, probs = dst.rows()[order], dst.probs[order]
    del order  # the kernel's peak memory is these token-major copies
    ptr = np.zeros(vocab_size + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst.ids, minlength=vocab_size), out=ptr[1:])
    cursor = ptr[:-1].copy()
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
            starts = ptr[tokens]
        counts = ptr[tokens + 1] - starts
        offsets = np.cumsum(counts) - counts
        at = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        p = np.repeat(src.probs[lo:hi], counts)
        q = probs[at]
        m2 = p + q
        terms = p * np.log2(2.0 * p / m2) + q * np.log2(2.0 * q / m2) - m2
        shared = np.bincount(rows[at] - first, terms, width)
        total = 0.5 * (src.sums[i] + dst.sums[first:] + shared)
        out[pos:pos + width] = np.sqrt(np.clip(total, 0.0, 1.0))
        pos += width


def pairwise_distances(dists: Sequence, workers: int | None = None) -> np.ndarray:
    """sqrt-JS distances of the pairs i < j, row by row: float64 of length n(n-1)/2."""
    index = build_vocab_index(dists)
    csr = _CSR(dists, index)
    n = len(csr)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    _distance_rows(csr, csr, len(index), out, pairwise=True)
    return out


def cross_distances(dists_a: Sequence, dists_b: Sequence, workers: int | None = None) -> np.ndarray:
    """len(a) x len(b) matrix of sqrt-JS distances between two collections."""
    index = build_vocab_index(list(dists_a) + list(dists_b))
    out = np.zeros((len(dists_a), len(dists_b)), dtype=np.float64)
    _distance_rows(_CSR(dists_a, index), _CSR(dists_b, index), len(index), out.reshape(-1), pairwise=False)
    return out
