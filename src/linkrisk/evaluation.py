"""Cross-community linkability experiments on real or synthetic corpora.

Ground truth comes from shared pseudonyms: the same author id appearing in
two communities forms a true link.  The experiment ranks every target
community profile by distance from a source profile, reports how often the
true counterpart lands in the top k, and relates that precision to the size
of the source's anonymous neighborhood at the matching distance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import lm, metric
from .corpus import RawComment

__all__ = [
    "GroundTruthLink",
    "PrecisionBin",
    "PrecisionReport",
    "ScatterRow",
    "ScatterReport",
    "SynthCorpus",
    "cross_distance_stats",
    "rank_candidates",
    "precision_at_k",
    "anon_vs_precision",
    "matched_vs_average_scatter",
    "synth_corpus",
    "run_experiment",
    "ExperimentResult",
    "write_experiment_csvs",
    "comments_to_jsonl",
]

BIN_WIDTH = 10
DEFAULT_KS = (1, 5, 10, 20)


@dataclass(frozen=True)
class GroundTruthLink:
    """A known correspondence between a source and a target profile."""

    source: str
    target: str
    same_user: bool = True


@dataclass(frozen=True)
class PrecisionBin:
    size_low: int
    size_high: int
    pair_count: int
    precision: float


@dataclass
class PrecisionReport:
    k: int
    bins: List[PrecisionBin]


@dataclass(frozen=True)
class ScatterRow:
    source: str
    target: str
    avg_nonmatching: float
    matching: float

    @property
    def below_diagonal(self) -> bool:
        return self.matching < self.avg_nonmatching


@dataclass
class ScatterReport:
    rows: List[ScatterRow]
    fraction_below: float


def _distributions(models: Mapping[str, object], keys: Sequence[str]):
    out = []
    for key in keys:
        m = models[key]
        out.append(lm.to_distribution(m) if isinstance(m, lm.UnigramModel) else m)
    return out


class _CrossContext:
    """Shared precomputation: sorted keys, their distributions and the distance grid."""

    def __init__(self, models_a, models_b):
        self.keys_a = sorted(models_a)
        self.keys_b = sorted(models_b)
        self.index_a = {k: i for i, k in enumerate(self.keys_a)}
        self.index_b = {k: i for i, k in enumerate(self.keys_b)}
        self.dists_a = _distributions(models_a, self.keys_a)
        self.dists_b = _distributions(models_b, self.keys_b)
        self.cross = metric.cross_distances(self.dists_a, self.dists_b)
        self.keys_b_arr = np.array(self.keys_b)

    def rank_of(self, source: str, target: str) -> int:
        """Zero-based rank of `target` among candidates sorted by (distance, key)."""
        row = self.cross[self.index_a[source]]
        ti = self.index_b[target]
        dt = row[ti]
        closer = int(np.count_nonzero(row < dt))
        tied_before = int(np.count_nonzero((row == dt) & (self.keys_b_arr < self.keys_b[ti])))
        return closer + tied_before


def cross_distance_stats(
    models_a: Mapping[str, object],
    models_b: Optional[Mapping[str, object]] = None,
    workers: int | None = None,
) -> Dict[str, float]:
    """Min, max, and mean pairwise distance.

    With one mapping: all unordered pairs within it, self-pairs excluded.
    With two mappings: every (a, b) pair across them.  `workers` has no effect.
    """
    if models_b is None:
        keys = sorted(models_a)
        if len(keys) < 2:
            raise ValueError("need at least 2 profiles for within-community statistics")
        values = metric.pairwise_distances(_distributions(models_a, keys))
        pairs = values[np.triu_indices(len(keys), k=1)]
    else:
        if not models_a or not models_b:
            raise ValueError("need at least one profile on each side")
        ctx = _CrossContext(models_a, models_b)
        pairs = ctx.cross.ravel()
    return {"min": float(pairs.min()), "max": float(pairs.max()), "mean": float(pairs.mean())}


def rank_candidates(
    source_model, target_models: Mapping[str, object]
) -> List[Tuple[str, float]]:
    """Target profiles ordered by ascending distance, ties by key ascending."""
    source_dist = (
        lm.to_distribution(source_model)
        if isinstance(source_model, lm.UnigramModel)
        else source_model
    )
    if not getattr(source_dist, "probs", source_dist):
        raise ValueError("source model is empty")
    keys = sorted(target_models)
    row = metric.cross_distances([source_dist], _distributions(target_models, keys))[0]
    ranked = [(key, float(d)) for key, d in zip(keys, row)]
    ranked.sort(key=lambda kv: (kv[1], kv[0]))
    return ranked


def _check_links(links: Sequence[GroundTruthLink], ctx: _CrossContext) -> None:
    for link in links:
        if link.source not in ctx.index_a:
            raise ValueError(f"link source {link.source!r} not in source community")
        if link.target not in ctx.index_b:
            raise ValueError(f"link target {link.target!r} not in target community")


def precision_at_k(
    links: Sequence[GroundTruthLink],
    models_a: Mapping[str, object],
    models_b: Mapping[str, object],
    k: int,
    workers: int | None = None,
) -> float:
    """Fraction of true links whose target ranks in the top k candidates."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not links:
        raise ValueError("no ground-truth links given")
    ctx = _CrossContext(models_a, models_b)
    _check_links(links, ctx)
    hits = sum(1 for link in links if ctx.rank_of(link.source, link.target) < k)
    return hits / len(links)


def _anon_sizes(
    links: Sequence[GroundTruthLink],
    within_a: np.ndarray,
    ctx: _CrossContext,
) -> List[int]:
    sizes = []
    for link in links:
        si = ctx.index_a[link.source]
        d_match = ctx.cross[si, ctx.index_b[link.target]]
        sizes.append(int(np.count_nonzero(within_a[si] <= d_match)))
    return sizes


def _precision_bins(
    links: Sequence[GroundTruthLink],
    sizes: Sequence[int],
    ctx: _CrossContext,
    k: int,
    bin_width: int = BIN_WIDTH,
) -> PrecisionReport:
    grouped: Dict[int, List[GroundTruthLink]] = {}
    for link, size in zip(links, sizes):
        grouped.setdefault((size - 1) // bin_width, []).append(link)
    bins = []
    for b in sorted(grouped):
        members = grouped[b]
        hits = sum(1 for link in members if ctx.rank_of(link.source, link.target) < k)
        bins.append(
            PrecisionBin(
                size_low=b * bin_width + 1,
                size_high=(b + 1) * bin_width,
                pair_count=len(members),
                precision=hits / len(members),
            )
        )
    return PrecisionReport(k=k, bins=bins)


def anon_vs_precision(
    links: Sequence[GroundTruthLink],
    models_a: Mapping[str, object],
    models_b: Mapping[str, object],
    k: int,
    workers: int | None = None,
) -> PrecisionReport:
    """Precision at k per bin of anonymous-neighborhood size.

    For each true link, the neighborhood is taken around the source within
    its own community at radius equal to the pair's matching distance;
    sizes are grouped into bins of width 10.
    """
    if not links:
        raise ValueError("no ground-truth links given")
    ctx = _CrossContext(models_a, models_b)
    _check_links(links, ctx)
    within_a = metric.pairwise_distances(ctx.dists_a)
    sizes = _anon_sizes(links, within_a, ctx)
    return _precision_bins(links, sizes, ctx, k)


def matched_vs_average_scatter(
    links: Sequence[GroundTruthLink],
    models_a: Mapping[str, object],
    models_b: Mapping[str, object],
    workers: int | None = None,
) -> ScatterReport:
    """Per link: mean distance to the non-matching targets vs the matching one."""
    if not links:
        raise ValueError("no ground-truth links given")
    ctx = _CrossContext(models_a, models_b)
    _check_links(links, ctx)
    if len(ctx.keys_b) < 2:
        raise ValueError("target community needs at least 2 profiles")
    rows = []
    for link in links:
        row = ctx.cross[ctx.index_a[link.source]]
        d_match = float(row[ctx.index_b[link.target]])
        avg_other = (float(row.sum()) - d_match) / (len(ctx.keys_b) - 1)
        rows.append(
            ScatterRow(
                source=link.source,
                target=link.target,
                avg_nonmatching=avg_other,
                matching=d_match,
            )
        )
    below = sum(1 for r in rows if r.below_diagonal)
    return ScatterReport(rows=rows, fraction_below=below / len(rows))


@dataclass
class SynthCorpus:
    comments_a: List[RawComment]
    comments_b: List[RawComment]
    links: List[GroundTruthLink]
    communities: Tuple[str, str]


def synth_corpus(
    n_users: int,
    topics: int,
    comments_per_user: int = 60,
    rng_seed: int = 42,
    idiosyncrasy: float = 0.5,
    communities: Tuple[str, str] = ("alpha", "beta"),
    topic_words: int = 50,
    idio_words: int = 8,
) -> SynthCorpus:
    """Generate paired community corpora with known cross-community links.

    Every user writes in both communities.  A user's token distribution is
    a mixture of the community's topic blend and a private vocabulary unique
    to the user; the private weight is drawn per user around `idiosyncrasy`
    (exactly 0 or 1 at the endpoints), so the knob moves the corpus between
    unlinkable (0) and trivially linkable (1) while intermediate settings
    produce a realistic spread of hard and easy profiles.  Comment counts
    per user vary up to `comments_per_user`.  Output is fully determined by
    `rng_seed`.
    """
    if n_users < 2:
        raise ValueError("n_users must be >= 2")
    if topics < 2:
        raise ValueError("topics must be >= 2")
    if comments_per_user < 4:
        raise ValueError("comments_per_user must be >= 4")
    if not 0.0 <= idiosyncrasy <= 1.0:
        raise ValueError("idiosyncrasy must be in [0, 1]")

    rng = np.random.default_rng(rng_seed)
    topic_tokens = [f"t{t}w{w}" for t in range(topics) for w in range(topic_words)]
    zipf = 1.0 / np.arange(1, topic_words + 1)
    zipf /= zipf.sum()
    mixes = rng.dirichlet(np.full(topics, 0.8), size=2)
    base = [np.concatenate([mix[t] * zipf for t in range(topics)]) for mix in mixes]

    comments: Tuple[List[RawComment], List[RawComment]] = ([], [])
    links: List[GroundTruthLink] = []
    stamp = 1_400_000_000
    for u in range(n_users):
        author = f"u{u}"
        idio_tokens = [f"u{u}x{j}" for j in range(idio_words)]
        idio = 1.0 / np.arange(1, idio_words + 1)
        idio /= idio.sum()
        vocab = topic_tokens + idio_tokens
        # spread private-vocabulary weights across users; exact at 0 and 1
        if 0.0 < idiosyncrasy < 1.0:
            weight = float(idiosyncrasy ** rng.uniform(1.0 / 3.0, 4.5))
        else:
            weight = idiosyncrasy
        total_comments = int(rng.integers(max(4, comments_per_user // 5), comments_per_user + 1))
        n_first = total_comments // 2
        counts = (n_first, total_comments - n_first)
        for side in (0, 1):
            probs = np.concatenate([(1.0 - weight) * base[side], weight * idio])
            probs /= probs.sum()
            lengths = rng.integers(6, 18, size=counts[side])
            draws = rng.choice(len(vocab), size=int(lengths.sum()), p=probs)
            pos = 0
            for length in lengths:
                body = " ".join(vocab[i] for i in draws[pos : pos + int(length)])
                pos += int(length)
                comments[side].append(
                    RawComment(
                        author_id=author,
                        community_id=communities[side],
                        body=body,
                        created_at=stamp,
                    )
                )
                stamp += 1
        links.append(GroundTruthLink(source=author, target=author))
    return SynthCorpus(
        comments_a=comments[0],
        comments_b=comments[1],
        links=links,
        communities=communities,
    )


def comments_to_jsonl(comments: Iterable[RawComment]) -> str:
    """Serialize comments as JSON lines (stable field order, byte-deterministic)."""
    lines = []
    for c in comments:
        rec = {"author": c.author_id, "community": c.community_id, "body": c.body}
        if c.created_at is not None:
            rec["created_at"] = c.created_at
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ExperimentResult:
    community_a: str
    community_b: str
    links: List[GroundTruthLink]
    stats_within_a: Dict[str, float]
    stats_within_b: Dict[str, float]
    stats_across: Dict[str, float]
    scatter: ScatterReport
    precisions: Dict[int, float]
    bin_reports: Dict[int, PrecisionReport]
    anon_sizes: List[int] = field(default_factory=list)


def run_experiment(
    models_a: Mapping[str, object],
    models_b: Mapping[str, object],
    links: Optional[Sequence[GroundTruthLink]] = None,
    ks: Sequence[int] = DEFAULT_KS,
    workers: int | None = None,
    community_a: str = "a",
    community_b: str = "b",
) -> "ExperimentResult":
    """Full linkability experiment between two communities.

    When `links` is omitted, authors present in both communities are paired
    by shared pseudonym.  Each model is turned into a distribution once, and
    the matrices are computed once and reused across all reports.  `workers`
    has no effect.
    """
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    if links is None:
        shared = sorted(set(models_a) & set(models_b))
        links = [GroundTruthLink(source=a, target=a) for a in shared]
    links = list(links)
    if not links:
        raise ValueError("no ground-truth links between the two communities")

    ctx = _CrossContext(models_a, models_b)
    _check_links(links, ctx)
    within_a = metric.pairwise_distances(ctx.dists_a)
    within_b = metric.pairwise_distances(ctx.dists_b)

    def stats_of(values: np.ndarray) -> Dict[str, float]:
        return {"min": float(values.min()), "max": float(values.max()), "mean": float(values.mean())}

    na, nb = len(ctx.keys_a), len(ctx.keys_b)
    stats_a = stats_of(within_a[np.triu_indices(na, k=1)]) if na > 1 else {"min": 0.0, "max": 0.0, "mean": 0.0}
    stats_b = stats_of(within_b[np.triu_indices(nb, k=1)]) if nb > 1 else {"min": 0.0, "max": 0.0, "mean": 0.0}
    stats_x = stats_of(ctx.cross.ravel())

    rows = []
    for link in links:
        row = ctx.cross[ctx.index_a[link.source]]
        d_match = float(row[ctx.index_b[link.target]])
        avg_other = (float(row.sum()) - d_match) / max(1, nb - 1)
        rows.append(ScatterRow(link.source, link.target, avg_other, d_match))
    below = sum(1 for r in rows if r.below_diagonal)
    scatter = ScatterReport(rows=rows, fraction_below=below / len(rows))

    sizes = _anon_sizes(links, within_a, ctx)
    precisions = {}
    bin_reports = {}
    for k in ks:
        hits = sum(1 for link in links if ctx.rank_of(link.source, link.target) < k)
        precisions[k] = hits / len(links)
        bin_reports[k] = _precision_bins(links, sizes, ctx, k)

    return ExperimentResult(
        community_a=community_a,
        community_b=community_b,
        links=links,
        stats_within_a=stats_a,
        stats_within_b=stats_b,
        stats_across=stats_x,
        scatter=scatter,
        precisions=precisions,
        bin_reports=bin_reports,
        anon_sizes=sizes,
    )


def write_experiment_csvs(result: ExperimentResult, outdir, metadata: Optional[dict] = None) -> List[str]:
    """Write stats/scatter/precision CSVs plus a JSON metadata sidecar.

    Floats are rendered with repr so identical results are identical bytes.
    Profile ids in `scatter.csv` are quoted by the `csv` module where needed.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    written = []

    def out(name: str) -> str:
        path = os.path.join(outdir, name)
        written.append(path)
        return path

    with open(out("stats.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scope,min,max,mean\n")
        for scope, stats in (
            ("within_a", result.stats_within_a),
            ("within_b", result.stats_within_b),
            ("across", result.stats_across),
        ):
            fh.write(f"{scope},{stats['min']!r},{stats['max']!r},{stats['mean']!r}\n")

    with open(out("scatter.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["source", "target", "avg_nonmatching_distance", "matching_distance", "below_diagonal"]
        )
        for r in result.scatter.rows:
            writer.writerow(
                [r.source, r.target, repr(r.avg_nonmatching), repr(r.matching), int(r.below_diagonal)]
            )

    with open(out("precision_overall.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,precision\n")
        for k in sorted(result.precisions):
            fh.write(f"{k},{result.precisions[k]!r}\n")

    with open(out("precision_bins.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,bin_low,bin_high,pair_count,precision\n")
        for k in sorted(result.bin_reports):
            for b in result.bin_reports[k].bins:
                fh.write(f"{k},{b.size_low},{b.size_high},{b.pair_count},{b.precision!r}\n")

    meta = dict(metadata or {})
    meta.setdefault("links", len(result.links))
    meta.setdefault("fraction_below_diagonal", result.scatter.fraction_below)
    with open(out("metadata.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return written
