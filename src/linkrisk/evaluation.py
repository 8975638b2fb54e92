"""Cross-community linkability experiments on real or synthetic corpora.

Ground truth comes from shared pseudonyms: the same author id appearing in
two communities forms a true link.  The experiment ranks every target
community profile by distance from a source profile, reports how often the
true counterpart lands in the top k, and relates that precision to the size
of the source's anonymous neighborhood at the matching distance.

`run_experiment` is the one experiment entry point: its `ExperimentResult`
holds the distance statistics, precision@k, the neighborhood-size bins and
the matched-vs-average scatter.  `rank_candidates` ranks the targets of a
single source and serves as the brute-force reference for it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import lm, metric
from .anonymity import DistanceMatrix, _row, _within
from .corpus import RawComment, _encode_json, _write_csv, _write_json

__all__ = [
    "GroundTruthLink",
    "PrecisionBin",
    "ScatterRow",
    "SynthCorpus",
    "rank_candidates",
    "synth_corpus",
    "run_experiment",
    "ExperimentResult",
    "write_experiment_csvs",
    "comments_to_jsonl",
]

BIN_WIDTH = 10
DEFAULT_KS = (1, 5, 10, 20)
_REPORT_FILES = ("stats.csv", "scatter.csv", "precision_overall.csv", "precision_bins.csv", "metadata.json")


@dataclass(frozen=True)
class GroundTruthLink:
    """A known same-user correspondence between a source and a target profile."""

    source: str
    target: str


@dataclass(frozen=True)
class PrecisionBin:
    size_low: int
    size_high: int
    pair_count: int
    precision: float


@dataclass(frozen=True)
class ScatterRow:
    source: str
    target: str
    avg_nonmatching: float
    matching: float

    @property
    def below_diagonal(self) -> bool:
        return self.matching < self.avg_nonmatching


def _stats(values: np.ndarray) -> Dict[str, float]:
    return {"min": float(values.min()), "max": float(values.max()), "mean": float(values.mean())}


def rank_candidates(
    source_model, target_models: Mapping[str, object]
) -> List[Tuple[str, float]]:
    """Target profiles ordered by ascending distance, ties by key ascending; distances from `anonymity._row`."""
    source_dist = lm.as_distribution(source_model)
    if not source_dist:
        raise ValueError("source model is empty")
    ranked = [(key, float(d)) for key, d in zip(*_row(source_dist, target_models))]
    ranked.sort(key=lambda kv: (kv[1], kv[0]))
    return ranked


@dataclass
class SynthCorpus:
    comments_a: List[RawComment]
    comments_b: List[RawComment]
    links: List[GroundTruthLink]
    communities: Tuple[str, str]


_SYNTH_COMMUNITIES = ("alpha", "beta")


def synth_corpus(
    n_users: int,
    topics: int,
    comments_per_user: int = 60,
    rng_seed: int = 42,
    idiosyncrasy: float = 0.5,
    topic_words: int = 50,
    idio_words: int = 8,
) -> SynthCorpus:
    """Generate paired community corpora with known cross-community links.

    Every user writes in both communities, "alpha" and "beta".  A user's
    token distribution is a mixture of the community's topic blend and a
    private vocabulary unique to the user; the private weight is drawn per
    user around `idiosyncrasy` (exactly 0 or 1 at the endpoints), so the
    knob moves the corpus between unlinkable (0) and trivially linkable (1)
    while intermediate settings produce a realistic spread of hard and easy
    profiles.  Comment counts per user vary up to `comments_per_user`.

    Output is fully determined by `rng_seed`.  Words are drawn by inverse
    CDF, as `Generator.choice` defines it: `cdf = p.cumsum()` divided by its
    last entry, then `cdf.searchsorted(rng.random(n), side="right")`.
    ValueError is raised for fewer than 2 users or topics, fewer than 4
    comments per user, an idiosyncrasy outside [0, 1], a negative seed, and
    fewer than 1 topic word or private word, which leave no valid word
    distribution.
    """
    if n_users < 2:
        raise ValueError("n_users must be >= 2")
    if topics < 2:
        raise ValueError("topics must be >= 2")
    if comments_per_user < 4:
        raise ValueError("comments_per_user must be >= 4")
    if topic_words < 1:
        raise ValueError("topic_words must be >= 1")
    if idio_words < 1:
        raise ValueError("idio_words must be >= 1")
    if not 0.0 <= idiosyncrasy <= 1.0:
        raise ValueError("idiosyncrasy must be in [0, 1]")
    if rng_seed < 0:
        raise ValueError("rng_seed must be >= 0")

    rng = np.random.default_rng(rng_seed)
    n_topic = topics * topic_words
    # topic words, then a tail that holds the current user's private words
    vocab = [f"t{t}w{w}" for t in range(topics) for w in range(topic_words)] + [""] * idio_words
    zipf = 1.0 / np.arange(1, topic_words + 1)
    zipf /= zipf.sum()
    mixes = rng.dirichlet(np.full(topics, 0.8), size=2)
    base = [np.concatenate([mix[t] * zipf for t in range(topics)]) for mix in mixes]
    idio = 1.0 / np.arange(1, idio_words + 1)
    idio /= idio.sum()
    probs = np.empty(len(vocab))

    comments: Tuple[List[RawComment], List[RawComment]] = ([], [])
    links: List[GroundTruthLink] = []
    stamp = 1_400_000_000
    for u in range(n_users):
        author = f"u{u}"
        vocab[n_topic:] = [f"u{u}x{j}" for j in range(idio_words)]
        # spread private-vocabulary weights across users; exact at 0 and 1
        if 0.0 < idiosyncrasy < 1.0:
            weight = float(idiosyncrasy ** rng.uniform(1.0 / 3.0, 4.5))
        else:
            weight = idiosyncrasy
        total_comments = int(rng.integers(max(4, comments_per_user // 5), comments_per_user + 1))
        n_first = total_comments // 2
        counts = (n_first, total_comments - n_first)
        for side in (0, 1):
            np.multiply(base[side], 1.0 - weight, out=probs[:n_topic])
            np.multiply(idio, weight, out=probs[n_topic:])
            probs /= probs.sum()  # before the cumsum too: the drawn words depend on both roundings
            lengths = rng.integers(6, 18, size=counts[side]).tolist()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            words = [vocab[i] for i in cdf.searchsorted(rng.random(sum(lengths)), side="right").tolist()]
            pos = 0
            for length in lengths:
                comments[side].append(
                    RawComment(
                        author_id=author,
                        community_id=_SYNTH_COMMUNITIES[side],
                        body=" ".join(words[pos : pos + length]),
                        created_at=stamp,
                    )
                )
                pos += length
                stamp += 1
        links.append(GroundTruthLink(source=author, target=author))
    return SynthCorpus(
        comments_a=comments[0],
        comments_b=comments[1],
        links=links,
        communities=_SYNTH_COMMUNITIES,
    )


def _comment_record(c: RawComment) -> dict:
    """A comment as the JSON record `ingest` reads."""
    rec = {"author": c.author_id, "community": c.community_id, "body": c.body}
    if c.created_at is not None:
        rec["created_at"] = c.created_at
    return rec


def comments_to_jsonl(comments: Iterable[RawComment]) -> str:
    """Serialize comments as JSON lines (stable field order, byte-deterministic)."""
    return "".join([_encode_json(_comment_record(c)) + "\n" for c in comments])


@dataclass
class ExperimentResult:
    links: List[GroundTruthLink]
    stats_within_a: Dict[str, float]
    stats_within_b: Dict[str, float]
    stats_across: Dict[str, float]
    scatter: List[ScatterRow]
    fraction_below: float
    precisions: Dict[int, float]
    bin_reports: Dict[int, List[PrecisionBin]]
    anon_sizes: List[int]


def run_experiment(
    models_a: Mapping[str, object],
    models_b: Mapping[str, object],
    links: Optional[Sequence[GroundTruthLink]] = None,
    ks: Sequence[int] = DEFAULT_KS,
    workers: int | None = None,
) -> "ExperimentResult":
    """Full linkability experiment between two communities.

    When `links` is omitted, authors present in both communities are paired
    by shared pseudonym.  Every input
    check runs before any distance is computed.  Each model is turned into
    a distribution once, one at a time as it is packed, and each community
    is prepared once over one vocabulary shared by both; the cross matrix
    and each community's within matrix are computed once from those, and
    every report is derived from them.  `workers` has no effect.
    """
    if not ks:
        raise ValueError("need at least one k")
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    if links is None:
        shared = sorted(set(models_a) & set(models_b))
        links = [GroundTruthLink(source=a, target=a) for a in shared]
    links = list(links)
    if not links:
        raise ValueError("no ground-truth links between the two communities")
    (keys_a, dists_a), (keys_b, dists_b) = lm._distributions(models_a), lm._distributions(models_b)
    index_a = {k: i for i, k in enumerate(keys_a)}
    index_b = {k: i for i, k in enumerate(keys_b)}
    for link in links:
        if link.source not in index_a:
            raise ValueError(f"link source {link.source!r} not in source community")
        if link.target not in index_b:
            raise ValueError(f"link target {link.target!r} not in target community")
    nb = len(keys_b)
    if nb < 2:
        raise ValueError("target community needs at least 2 profiles")
    if len(keys_a) < 2:
        raise ValueError("need at least 2 profiles for within-community statistics")

    a, b = metric._prepare(dists_a, dists_b)
    cross = metric.cross_distances(a, b)
    within_a = DistanceMatrix(keys_a, metric.pairwise_distances(a))
    within_b = DistanceMatrix(keys_b, metric.pairwise_distances(b))

    source = np.array([index_a[link.source] for link in links], dtype=np.intp)
    target = np.array([index_b[link.target] for link in links], dtype=np.intp)
    matching = cross[source, target]
    # keys_b is sorted and unique, so the candidates tied with the target
    # that sort before it are exactly the equal entries left of it
    ranks = np.array([
        np.count_nonzero(cross[s] < d) + np.count_nonzero(cross[s, :t] == d)
        for s, t, d in zip(source, target, matching)
    ])
    # anonymous neighborhood: source-side profiles within the matching distance
    sizes = np.array([len(_within(within_a._row_at(s), d)) for s, d in zip(source, matching)])
    rows = []
    for link, s, d in zip(links, source, matching):
        avg_other = (float(cross[s].sum()) - float(d)) / (nb - 1)
        rows.append(ScatterRow(link.source, link.target, avg_other, float(d)))
    below = sum(1 for r in rows if r.below_diagonal)
    return ExperimentResult(
        links=links,
        stats_within_a=_stats(within_a.tri),
        stats_within_b=_stats(within_b.tri),
        stats_across=_stats(cross.ravel()),
        scatter=rows,
        fraction_below=below / len(rows),
        precisions={k: int(np.count_nonzero(ranks < k)) / len(links) for k in ks},
        bin_reports={k: _bins(sizes, ranks < k) for k in ks},
        anon_sizes=sizes.tolist(),
    )


def _bins(sizes: np.ndarray, hits: np.ndarray) -> List[PrecisionBin]:
    """The hit rate per bin of BIN_WIDTH neighborhood sizes."""
    groups = (sizes - 1) // BIN_WIDTH
    bins = []
    # not np.unique: it imports numpy.ma on first use, about 1 MB resident
    for b in sorted(set(groups.tolist())):
        members = groups == b
        count, hit = int(np.count_nonzero(members)), int(np.count_nonzero(hits & members))
        bins.append(PrecisionBin(b * BIN_WIDTH + 1, (b + 1) * BIN_WIDTH, count, hit / count))
    return bins


def write_experiment_csvs(result: ExperimentResult, outdir, metadata: Optional[dict] = None) -> List[str]:
    """Write stats/scatter/precision CSVs plus a JSON metadata sidecar.

    Floats are rendered with repr so identical results are identical bytes;
    `metadata` entries win over the `links` and `fraction_below_diagonal` counts.
    """
    os.makedirs(outdir, exist_ok=True)
    written = [os.path.join(outdir, name) for name in _REPORT_FILES]
    stats_csv, scatter_csv, overall_csv, bins_csv, metadata_json = written
    _write_csv(stats_csv, ["scope", "min", "max", "mean"], (
        [scope, repr(stats["min"]), repr(stats["max"]), repr(stats["mean"])]
        for scope, stats in (("within_a", result.stats_within_a), ("within_b", result.stats_within_b),
                             ("across", result.stats_across))
    ))
    _write_csv(scatter_csv, ["source", "target", "avg_nonmatching_distance", "matching_distance",
                             "below_diagonal"], (
        [r.source, r.target, repr(r.avg_nonmatching), repr(r.matching), int(r.below_diagonal)]
        for r in result.scatter
    ))
    _write_csv(overall_csv, ["k", "precision"],
               ([k, repr(result.precisions[k])] for k in sorted(result.precisions)))
    _write_csv(bins_csv, ["k", "bin_low", "bin_high", "pair_count", "precision"], (
        [k, b.size_low, b.size_high, b.pair_count, repr(b.precision)]
        for k in sorted(result.bin_reports) for b in result.bin_reports[k]
    ))
    _write_json(metadata_json, {"links": len(result.links),
                                "fraction_below_diagonal": result.fraction_below, **(metadata or {})})
    return written
