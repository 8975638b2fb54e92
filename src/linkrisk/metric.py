"""Divergences and the square-root Jensen-Shannon distance on sparse distributions.

All logarithms are base 2, so the Jensen-Shannon divergence of two
distributions lies in [0, 1] and its square root is a metric on the same
range (1 is reached exactly when the supports are disjoint); see Endres and
Schindelin, IEEE Trans. Inf. Theory 49(7), 2003.

The scalar `kl`, `js` and `distance` over token->probability mappings are
the reference definition.  `pairwise_distances` and `cross_distances` share
one vectorized row kernel whose memory is O(vocabulary + support entries);
each pair is summed in a fixed token order, so results are bit-stable.
`pairwise_distances` returns the packed upper triangle (the `.dmat`
payload, scipy's condensed form).  Their `workers` argument has no effect.
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
    matching `probs`; `sums` holds each row's mass.
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
        self.sums = _segment_sums(self.probs, self.indptr[:-1], np.diff(self.indptr))

    def __len__(self) -> int:
        return len(self.indptr) - 1


def _segment_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pairwise sum of each consecutive run `values[starts[k]:starts[k] + lengths[k]]`.

    The order depends only on the run itself; empty runs give 0.
    """
    out = np.zeros(len(lengths), dtype=np.float64)
    nonempty = np.flatnonzero(lengths)
    if len(nonempty):
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def _distance_rows(src: _CSR, dst: _CSR, vocab_size: int, out: np.ndarray, pairwise: bool) -> None:
    """Write sqrt-JS distances from each `src` row to `dst` rows into flat `out`, row after row.

    Each source row is scattered into dense buffers of length `vocab_size`
    (a presence mask and the probabilities; `buf` is read only where the
    mask is set, so it is never cleared), and the mask is gathered at the
    target entries.  Only shared tokens need the log terms; everything else
    enters through the row masses.  With `pairwise`, row i is compared with
    target rows j > i only, which fills `out` with the upper triangle.  A
    target row's shared entries are summed as one run in ascending token
    id, so a pair's value depends on that pair alone and is exactly symmetric.
    """
    present = np.zeros(vocab_size, dtype=bool)
    buf = np.empty(vocab_size, dtype=np.float64)
    pos = 0
    for i in range(len(src)):
        first = i + 1 if pairwise else 0
        width = len(dst) - first
        if width <= 0:
            break
        lo, hi = src.indptr[i], src.indptr[i + 1]
        src_ids = src.ids[lo:hi]
        buf[src_ids] = src.probs[lo:hi]
        present[src_ids] = True
        t_lo = dst.indptr[first]
        targets = dst.ids[t_lo:]
        hit = np.flatnonzero(present[targets])
        p = buf[targets[hit]]
        q = dst.probs[t_lo:][hit]
        # hits are ascending, so each target row's hits form one run
        bounds = np.searchsorted(hit, dst.indptr[first:] - t_lo)
        starts, lengths = bounds[:-1], np.diff(bounds)
        m2 = p + q
        terms = p * np.log2(2.0 * p / m2) + q * np.log2(2.0 * q / m2)
        shared = _segment_sums(terms, starts, lengths)
        shared_p = _segment_sums(p, starts, lengths)
        shared_q = _segment_sums(q, starts, lengths)
        total = 0.5 * ((src.sums[i] - shared_p) + (dst.sums[first:] - shared_q) + shared)
        out[pos:pos + width] = np.sqrt(np.clip(total, 0.0, 1.0))
        pos += width
        present[src_ids] = False


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
