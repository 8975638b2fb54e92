import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkrisk import corpus, evaluation, lm, metric
from linkrisk.evaluation import GroundTruthLink
from conftest import random_distribution


# --- distance statistics ------------------------------------------------------


def _stats_of(ma, mb, links=None):
    return evaluation.run_experiment(ma, mb, links, ks=(1,))


def test_stats_identical_profiles():
    models = {"a": {"x": 1.0}, "b": {"x": 1.0}}
    result = _stats_of(models, dict(models))
    zeros = {"min": 0.0, "max": 0.0, "mean": 0.0}
    assert result.stats_within_a == result.stats_within_b == result.stats_across == zeros


def test_stats_disjoint_profiles():
    models = {"a": {"x": 1.0}, "b": {"y": 1.0}}
    stats = _stats_of(models, dict(models)).stats_within_a
    assert stats["min"] == pytest.approx(1.0, abs=1e-12)
    assert stats["mean"] == pytest.approx(1.0, abs=1e-12)


def test_stats_requires_two_profiles():
    two = {"a": {"x": 1.0}, "b": {"y": 1.0}}
    with pytest.raises(ValueError, match="need at least 2 profiles for within-community"):
        _stats_of({"a": {"x": 1.0}}, two)
    with pytest.raises(ValueError, match="no ground-truth links"):
        _stats_of(two, {})


def test_stats_across_two_communities():
    ma = {"a": {"x": 1.0}, "d": {"x": 1.0}}
    mb = {"b": {"x": 1.0}, "c": {"y": 1.0}}
    stats = _stats_of(ma, mb, [GroundTruthLink("a", "b")]).stats_across
    assert stats["min"] == 0.0
    assert stats["max"] == pytest.approx(1.0, abs=1e-12)
    assert stats["mean"] == pytest.approx(0.5, abs=1e-12)


# --- ranking ---------------------------------------------------------------------


def test_rank_exact_copy_first():
    source = {"x": 0.5, "y": 0.5}
    targets = {
        "copy": {"x": 0.5, "y": 0.5},
        "other": {"z": 1.0},
    }
    ranked = evaluation.rank_candidates(source, targets)
    assert ranked[0][0] == "copy"
    assert ranked[0][1] == 0.0


def test_rank_empty_targets():
    assert evaluation.rank_candidates({"x": 1.0}, {}) == []


def test_rank_orders_by_distance():
    source = {"x": 1.0}
    targets = {
        "far": {"z": 1.0},
        "near": {"x": 0.9, "z": 0.1},
        "mid": {"x": 0.5, "z": 0.5},
    }
    ranked = [key for key, _ in evaluation.rank_candidates(source, targets)]
    assert ranked == ["near", "mid", "far"]


def test_rank_ties_broken_by_key():
    source = {"x": 1.0}
    targets = {"b": {"x": 1.0}, "a": {"x": 1.0}}
    ranked = [key for key, _ in evaluation.rank_candidates(source, targets)]
    assert ranked == ["a", "b"]


def test_rank_rejects_empty_source():
    with pytest.raises(ValueError):
        evaluation.rank_candidates({}, {"a": {"x": 1.0}})


# --- precision -------------------------------------------------------------------


def _paired_models(n, rng):
    """Identical model on both sides per author."""
    models = {f"u{i}": random_distribution(rng) for i in range(n)}
    links = [GroundTruthLink(f"u{i}", f"u{i}") for i in range(n)]
    return models, dict(models), links


def test_precision_identical_corpora():
    rng = np.random.default_rng(52)
    ma, mb, links = _paired_models(8, rng)
    assert evaluation.run_experiment(ma, mb, links, ks=(1,)).precisions == {1: 1.0}


def test_precision_k_at_least_candidates():
    rng = np.random.default_rng(53)
    ma, mb, links = _paired_models(6, rng)
    assert evaluation.run_experiment(ma, mb, links, ks=(6, 100)).precisions == {6: 1.0, 100: 1.0}


def test_precision_requires_links_and_valid_k():
    rng = np.random.default_rng(54)
    ma, mb, _ = _paired_models(3, rng)
    with pytest.raises(ValueError, match="no ground-truth links"):
        evaluation.run_experiment(ma, mb, [], ks=(1,))
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluation.run_experiment(ma, mb, [GroundTruthLink("u0", "u0")], ks=(0,))
    with pytest.raises(ValueError, match="not in source"):
        evaluation.run_experiment(ma, mb, [GroundTruthLink("zz", "u0")], ks=(1,))


def test_precision_monotone_in_k():
    rng = np.random.default_rng(55)
    ma = {f"u{i}": random_distribution(rng) for i in range(10)}
    mb = {f"u{i}": random_distribution(rng) for i in range(10)}
    links = [GroundTruthLink(f"u{i}", f"u{i}") for i in range(10)]
    precisions = evaluation.run_experiment(ma, mb, links, ks=(1, 2, 4, 8, 10)).precisions
    values = [precisions[k] for k in (1, 2, 4, 8, 10)]
    assert values == sorted(values)


# --- binned precision ---------------------------------------------------------------


def test_bins_partition_all_links():
    rng = np.random.default_rng(56)
    ma = {f"u{i}": random_distribution(rng) for i in range(20)}
    mb = {f"u{i}": random_distribution(rng) for i in range(20)}
    links = [GroundTruthLink(f"u{i}", f"u{i}") for i in range(20)]
    report = evaluation.run_experiment(ma, mb, links, ks=(3,)).bin_reports[3]
    assert report.k == 3
    assert sum(b.pair_count for b in report.bins) == len(links)
    for b in report.bins:
        assert 0.0 <= b.precision <= 1.0
        assert b.size_high - b.size_low == evaluation.BIN_WIDTH - 1


def test_single_pair_single_bin():
    ma = {"u0": {"x": 1.0}, "u1": {"q": 1.0}}
    mb = {"u0": {"x": 0.9, "y": 0.1}, "u1": {"z": 1.0}}
    result = evaluation.run_experiment(ma, mb, [GroundTruthLink("u0", "u0")], ks=(1,))
    report = result.bin_reports[1]
    assert len(report.bins) == 1
    assert report.bins[0].pair_count == 1
    assert report.bins[0].precision in (0.0, 1.0)


# --- scatter --------------------------------------------------------------------------


def _scatter(links, ma, mb):
    return evaluation.run_experiment(ma, mb, links, ks=(1,)).scatter


def test_scatter_matching_below_average_for_split_halves():
    rng = np.random.default_rng(57)
    ma, mb, links = _paired_models(6, rng)
    report = _scatter(links, ma, mb)
    assert report.fraction_below == 1.0
    for row in report.rows:
        assert row.matching == 0.0
        assert row.avg_nonmatching > 0.0


def test_scatter_adversarial_point_above_diagonal():
    # source u0 equals the non-matching target u1, not its own counterpart
    ma = {"u0": {"x": 1.0}, "u1": {"w": 1.0}}
    mb = {"u0": {"z": 1.0}, "u1": {"x": 1.0}}
    report = _scatter([GroundTruthLink("u0", "u0")], ma, mb)
    row = report.rows[0]
    assert row.matching > row.avg_nonmatching
    assert report.fraction_below == 0.0


def test_scatter_rows_match_matrix_recomputation():
    rng = np.random.default_rng(58)
    ma = {f"u{i}": random_distribution(rng) for i in range(7)}
    mb = {f"u{i}": random_distribution(rng) for i in range(7)}
    links = [GroundTruthLink(f"u{i}", f"u{i}") for i in range(7)]
    report = _scatter(links, ma, mb)
    keys_b = sorted(mb)
    dists_a = [lm.to_distribution(m) if isinstance(m, lm.UnigramModel) else m for m in
               (ma[k] for k in sorted(ma))]
    dists_b = [mb[k] for k in keys_b]
    grid = metric.cross_distances(dists_a, dists_b)
    for row in report.rows:
        i = sorted(ma).index(row.source)
        j = keys_b.index(row.target)
        expected_match = grid[i, j]
        expected_avg = (grid[i].sum() - expected_match) / (len(keys_b) - 1)
        assert row.matching == expected_match
        assert row.avg_nonmatching == pytest.approx(expected_avg, abs=1e-15)


def test_scatter_needs_two_targets():
    ma = {"u0": {"x": 1.0}, "u1": {"y": 1.0}}
    mb = {"u0": {"x": 1.0}}
    with pytest.raises(ValueError, match="target community needs at least 2 profiles"):
        _scatter([GroundTruthLink("u0", "u0")], ma, mb)


# --- synthetic corpus --------------------------------------------------------------


def test_synth_deterministic_bytes():
    a = evaluation.synth_corpus(10, 3, comments_per_user=20, rng_seed=99)
    b = evaluation.synth_corpus(10, 3, comments_per_user=20, rng_seed=99)
    assert evaluation.comments_to_jsonl(a.comments_a) == evaluation.comments_to_jsonl(b.comments_a)
    assert evaluation.comments_to_jsonl(a.comments_b) == evaluation.comments_to_jsonl(b.comments_b)
    c = evaluation.synth_corpus(10, 3, comments_per_user=20, rng_seed=100)
    assert evaluation.comments_to_jsonl(a.comments_a) != evaluation.comments_to_jsonl(c.comments_a)


def test_synth_structure():
    corp = evaluation.synth_corpus(5, 2, comments_per_user=8, rng_seed=1)
    assert {c.community_id for c in corp.comments_a} == {"alpha"}
    assert {c.community_id for c in corp.comments_b} == {"beta"}
    assert len(corp.links) == 5
    authors = {c.author_id for c in corp.comments_a}
    assert authors == {f"u{i}" for i in range(5)}


def test_synth_rejects_bad_sizes():
    with pytest.raises(ValueError):
        evaluation.synth_corpus(1, 3)
    with pytest.raises(ValueError):
        evaluation.synth_corpus(5, 1)
    with pytest.raises(ValueError):
        evaluation.synth_corpus(5, 3, comments_per_user=2)
    with pytest.raises(ValueError):
        evaluation.synth_corpus(5, 3, idiosyncrasy=1.5)
    for words in (0, -1):
        with pytest.raises(ValueError, match="topic_words must be >= 1"):
            evaluation.synth_corpus(5, 3, topic_words=words)
        with pytest.raises(ValueError, match="idio_words must be >= 1"):
            evaluation.synth_corpus(5, 3, idio_words=words, idiosyncrasy=1.0)
    with pytest.raises(ValueError, match="idio_words must be >= 1"):
        evaluation.synth_corpus(5, 3, idio_words=0, idiosyncrasy=0.0)


_AUDIT_SHAPE = dict(n_users=400, topics=40, comments_per_user=240, topic_words=2500, idio_words=50)


@pytest.mark.parametrize(
    "params, sides, digest",
    [
        (dict(n_users=500, topics=20, comments_per_user=60, rng_seed=42), "ab",
         "7197dd006f57c43e269f717e872f447ff7705850b6879eef19f002a039fc0ae4"),
        (dict(n_users=500, topics=20, comments_per_user=60, rng_seed=1009), "ab",
         "bfe1ca77bc8381889c1fe9c6460474d6dd50163bbea1343179e2eb3cd329a04d"),
        (dict(_AUDIT_SHAPE, rng_seed=42), "a",
         "cb3c6dac96aac75a22669bc03dd44d36a0344e0d73db262c13f139e0d1ca2666"),
        (dict(_AUDIT_SHAPE, rng_seed=1009), "a",
         "206750c9564052d3694911f0e5e98b682e6946ca18a73afd87e3d0f9467baaa7"),
        (dict(n_users=30, topics=5, comments_per_user=40, rng_seed=11, idiosyncrasy=0.0), "ab",
         "6634371fa09a61b3eb47dec28223029df28dd8bde222c5742b9b30a07be5ea93"),
        (dict(n_users=30, topics=5, comments_per_user=40, rng_seed=11, idiosyncrasy=1.0), "ab",
         "68422c10ec43f9ee23f8b1cd1302e0af74dc7963f0d8bb28896f9889e183a936"),
    ],
    ids=["eval-synth500-42", "eval-synth500-1009", "audit-42", "audit-1009", "idio-0", "idio-1"],
)
def test_synth_output_is_pinned(params, sides, digest):
    # The benchmark inputs and every seeded test corpus come from these bytes;
    # a generator change that moves them is a change of inputs, not a speed-up.
    corp = evaluation.synth_corpus(**params)
    comments = corp.comments_a + (corp.comments_b if sides == "ab" else [])
    text = evaluation.comments_to_jsonl(comments)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _models_from(corp):
    cfg = corpus.NormalizationConfig.default()
    streams = corpus.aggregate_profiles(corp.comments_a + corp.comments_b, cfg)
    pm, _, _ = lm.build_models(streams)
    ma = {a: m for (a, c), m in pm.items() if c == corp.communities[0]}
    mb = {a: m for (a, c), m in pm.items() if c == corp.communities[1]}
    return ma, mb


def test_synth_idiosyncrasy_extremes():
    corp0 = evaluation.synth_corpus(30, 5, comments_per_user=40, rng_seed=11, idiosyncrasy=0.0)
    ma, mb = _models_from(corp0)
    p0 = evaluation.run_experiment(ma, mb, corp0.links, ks=(1,)).precisions[1]
    assert p0 <= 3 / 30  # indistinguishable users: about 1/n
    corp1 = evaluation.synth_corpus(30, 5, comments_per_user=40, rng_seed=11, idiosyncrasy=1.0)
    ma, mb = _models_from(corp1)
    p1 = evaluation.run_experiment(ma, mb, corp1.links, ks=(1,)).precisions[1]
    assert p1 >= 0.9


# --- experiment driver ---------------------------------------------------------------


def test_run_experiment_and_csvs(tmp_path):
    corp = evaluation.synth_corpus(12, 3, comments_per_user=16, rng_seed=5)
    ma, mb = _models_from(corp)
    result = evaluation.run_experiment(ma, mb, ks=(1, 5))
    assert set(result.precisions) == {1, 5}
    assert result.precisions[5] >= result.precisions[1]
    assert len(result.scatter.rows) == 12
    assert len(result.anon_sizes) == 12
    files = evaluation.write_experiment_csvs(result, tmp_path / "out", {"seed": 5})
    names = {f.split("/")[-1] for f in files}
    assert names == {
        "stats.csv",
        "scatter.csv",
        "precision_overall.csv",
        "precision_bins.csv",
        "metadata.json",
    }
    header = (tmp_path / "out" / "scatter.csv").read_text().splitlines()[0]
    assert header == "source,target,avg_nonmatching_distance,matching_distance,below_diagonal"


def test_run_experiment_links_from_shared_pseudonyms():
    rng = np.random.default_rng(61)
    ma = {"u0": random_distribution(rng), "u1": random_distribution(rng), "only_a": random_distribution(rng)}
    mb = {"u0": random_distribution(rng), "u1": random_distribution(rng), "only_b": random_distribution(rng)}
    result = evaluation.run_experiment(ma, mb, ks=(1,))
    assert sorted(l.source for l in result.links) == ["u0", "u1"]


def test_run_experiment_worker_determinism(tmp_path):
    corp = evaluation.synth_corpus(10, 3, comments_per_user=12, rng_seed=6)
    ma, mb = _models_from(corp)
    r1 = evaluation.run_experiment(ma, mb, ks=(1,), workers=1)
    r2 = evaluation.run_experiment(ma, mb, ks=(1,), workers=3)
    evaluation.write_experiment_csvs(r1, tmp_path / "w1")
    evaluation.write_experiment_csvs(r2, tmp_path / "w3")
    for name in ("stats.csv", "scatter.csv", "precision_overall.csv", "precision_bins.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()


def test_rank_matches_scalar_reference_with_ties():
    rng = np.random.default_rng(62)
    pool = [f"tok{i}" for i in range(10)]
    source = random_distribution(rng, pool, max_support=8)
    targets = {f"t{i}": random_distribution(rng, pool, max_support=8) for i in range(12)}
    targets.update({"copy_b": dict(source), "copy_a": dict(source)})
    targets.update({"far_b": {"zz": 1.0}, "far_a": {"yy": 0.5, "zz": 0.5}})
    ranked = evaluation.rank_candidates(source, targets)
    reference = sorted(
        ((key, metric.distance(source, target)) for key, target in targets.items()),
        key=lambda kv: (kv[1], kv[0]),
    )
    keys = [key for key, _ in ranked]
    assert keys == [key for key, _ in reference]
    assert keys[:2] == ["copy_a", "copy_b"]
    assert keys.index("far_a") + 1 == keys.index("far_b")
    for (_, got), (_, want) in zip(ranked, reference):
        assert got == pytest.approx(want, abs=1e-12)


def test_run_experiment_rejects_k_below_one():
    rng = np.random.default_rng(63)
    ma, mb, _ = _paired_models(4, rng)
    for ks in ([0], [1, -1]):
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluation.run_experiment(ma, mb, ks=ks)


def test_scatter_csv_quotes_ids_with_delimiters(tmp_path):
    import csv

    rng = np.random.default_rng(64)
    ids = ["a,b", 'say "hi"', "plain"]
    ma = {key: random_distribution(rng) for key in ids}
    mb = {key: random_distribution(rng) for key in ids}
    result = evaluation.run_experiment(ma, mb, ks=(1,))
    evaluation.write_experiment_csvs(result, tmp_path)
    with open(tmp_path / "scatter.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "target", "avg_nonmatching_distance", "matching_distance",
                       "below_diagonal"]
    assert all(len(row) == 5 for row in rows)
    assert sorted(row[0] for row in rows[1:]) == sorted(ids)
    by_source = {r.source: r for r in result.scatter.rows}
    for source, target, avg, match, below in rows[1:]:
        assert target == source
        assert float(avg) == by_source[source].avg_nonmatching
        assert float(match) == by_source[source].matching
        assert below == str(int(by_source[source].below_diagonal))
    assert (tmp_path / "scatter.csv").read_bytes().count(b"\r") == 0


# --- edge cases ------------------------------------------------------------------------


def _two_sides():
    ma = {"u0": {"x": 1.0}, "u1": {"x": 0.5, "y": 0.5}}
    mb = {"u0": {"x": 0.9, "y": 0.1}, "u1": {"z": 1.0}}
    return ma, mb


_ONE = {"u0": {"x": 1.0}}
# (case, message, links, models_a, models_b, ks); None takes the side from _two_sides
_EDGE_CASES = [
    ("k-zero", "k must be >= 1", [GroundTruthLink("u0", "u0")], None, None, (0,)),
    ("no-k", "need at least one k", [GroundTruthLink("u0", "u0")], None, None, ()),
    ("no-links", "no ground-truth links between the two communities", [], None, None, (1,)),
    ("unknown-source", "link source 'zz' not in source community", [GroundTruthLink("zz", "u0")],
     None, None, (1,)),
    ("unknown-target", "link target 'zz' not in target community", [GroundTruthLink("u0", "zz")],
     None, None, (1,)),
    ("one-profile-side", "need at least 2 profiles for within-community statistics",
     [GroundTruthLink("u0", "u0")], _ONE, None, (1,)),
    ("one-target", "target community needs at least 2 profiles",
     [GroundTruthLink("u0", "u0")], None, _ONE, (1,)),
    ("not-same-user", "link 'u0' -> 'u1' is not a same-user link",
     [GroundTruthLink("u0", "u0"), GroundTruthLink("u0", "u1", same_user=False)], None, None, (1,)),
    # a one-profile target side is reported before a one-profile source side
    ("one-profile-both", "target community needs at least 2 profiles",
     [GroundTruthLink("u0", "u0")], _ONE, _ONE, (1,)),
]


# run_experiment is the one evaluation entry point; each id names the case and the entry
@pytest.mark.parametrize(
    "message, links, ma, mb, ks",
    [pytest.param(message, links, ma, mb, ks, id=f"{case}-run_experiment")
     for case, message, links, ma, mb, ks in _EDGE_CASES],
)
def test_edge_case_policy_is_the_same_at_every_entry_point(message, links, ma, mb, ks):
    default_a, default_b = _two_sides()
    with pytest.raises(ValueError, match="^" + message + "$"):
        evaluation.run_experiment(ma or default_a, mb or default_b, links, ks=ks)


def test_edge_cases_are_checked_before_any_distance_is_computed(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("distance matrix computed before the input was checked")

    monkeypatch.setattr(metric, "cross_distances", fail)
    monkeypatch.setattr(metric, "pairwise_distances", fail)
    default_a, default_b = _two_sides()
    for case, message, links, ma, mb, ks in _EDGE_CASES:
        with pytest.raises(ValueError, match="^" + message + "$"):
            evaluation.run_experiment(ma or default_a, mb or default_b, links, ks=ks)


def test_each_matrix_is_computed_once_per_call(monkeypatch):
    calls = {"cross": 0, "pairwise": 0}
    cross, pairwise = metric.cross_distances, metric.pairwise_distances

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metric, "cross_distances", counted("cross", cross))
    monkeypatch.setattr(metric, "pairwise_distances", counted("pairwise", pairwise))
    rng = np.random.default_rng(65)
    ma, mb, links = _paired_models(6, rng)
    evaluation.run_experiment(ma, mb, links, ks=(1, 2, 5))
    assert calls == {"cross": 1, "pairwise": 2}


def test_each_community_is_prepared_once_over_one_vocabulary(monkeypatch):
    built = []

    class Counted(metric._Profiles):
        def __init__(self, dists, vocab):
            super().__init__(dists, vocab)
            built.append(self)

    monkeypatch.setattr(metric, "_Profiles", Counted)
    rng = np.random.default_rng(66)
    ma, mb, links = _paired_models(6, rng)
    evaluation.run_experiment(ma, mb, links, ks=(1, 2, 5))
    assert len(built) == 2
    assert built[0].vocab is built[1].vocab


# --- every report against a brute-force reference ----------------------------------------

_POOL = ["p", "q", "r", "s", "t"]
_BASE = st.dictionaries(
    st.sampled_from(_POOL), st.integers(min_value=1, max_value=9), min_size=1, max_size=4
)


@st.composite
def _experiments(draw):
    """Two communities drawn from a few base distributions, so that ties occur."""
    bases = draw(st.lists(_BASE, min_size=1, max_size=4))
    dists = [{tok: c / sum(b.values()) for tok, c in b.items()} for b in bases]
    pick = st.integers(min_value=0, max_value=len(dists) - 1)
    # up to 24 profiles a side, so neighborhoods fill more than one bin
    names = st.lists(st.sampled_from([f"k{i}" for i in range(30)]), min_size=2, max_size=24,
                     unique=True)
    ma = {key: dists[draw(pick)] for key in draw(names)}
    mb = {key: dists[draw(pick)] for key in draw(names)}
    links = draw(st.lists(
        st.tuples(st.sampled_from(sorted(ma)), st.sampled_from(sorted(mb))), min_size=1, max_size=30,
    ))
    ks = draw(st.lists(st.integers(min_value=1, max_value=len(mb) + 1), min_size=1, max_size=3,
                       unique=True))
    return ma, mb, [GroundTruthLink(s, t) for s, t in links], ks


def _reference(ma, mb, links, ks):
    """Per-link ranks, sizes and scatter values, one rank_candidates call at a time."""
    ranks, sizes, scatter = [], [], []
    for link in links:
        ranked = evaluation.rank_candidates(ma[link.source], mb)
        ranks.append([key for key, _ in ranked].index(link.target))
        d_match = dict(ranked)[link.target]
        assert d_match == pytest.approx(metric.distance(ma[link.source], mb[link.target]), abs=1e-12)
        sizes.append(sum(1 for _, d in evaluation.rank_candidates(ma[link.source], ma) if d <= d_match))
        others = [metric.distance(ma[link.source], mb[key]) for key in mb if key != link.target]
        scatter.append((link.source, link.target, sum(others) / len(others), d_match))
    precisions = {k: sum(r < k for r in ranks) / len(links) for k in ks}
    bins = {}
    for k in ks:
        grouped = {}
        for rank, size in zip(ranks, sizes):
            grouped.setdefault((size - 1) // evaluation.BIN_WIDTH, []).append(rank < k)
        width = evaluation.BIN_WIDTH
        bins[k] = [(b * width + 1, (b + 1) * width, len(hits), sum(hits) / len(hits))
                   for b, hits in sorted(grouped.items())]
    return precisions, bins, sizes, scatter


def _check_scatter(report, expected):
    assert len(report.rows) == len(expected)
    for row, (source, target, avg, match) in zip(report.rows, expected):
        assert (row.source, row.target, row.matching) == (source, target, match)
        assert row.avg_nonmatching == pytest.approx(avg, abs=1e-12)
    below = sum(1 for row in report.rows if row.below_diagonal)
    assert report.fraction_below == below / len(report.rows)


@settings(max_examples=150, deadline=None)
@given(_experiments())
def test_reports_match_a_brute_force_reference(experiment):
    ma, mb, links, ks = experiment
    precisions, bins, sizes, scatter = _reference(ma, mb, links, ks)
    result = evaluation.run_experiment(ma, mb, links, ks=ks)
    assert result.links == links
    assert result.precisions == precisions
    assert result.anon_sizes == sizes
    assert {k: r.k for k, r in result.bin_reports.items()} == {k: k for k in ks}
    assert {k: [(b.size_low, b.size_high, b.pair_count, b.precision) for b in r.bins]
            for k, r in result.bin_reports.items()} == bins
    _check_scatter(result.scatter, scatter)
    for scope, models in (("a", ma), ("b", mb)):
        keys = sorted(models)
        within = [metric.distance(models[x], models[y]) for i, x in enumerate(keys) for y in keys[i + 1:]]
        _check_stats(getattr(result, f"stats_within_{scope}"), within)
    _check_stats(result.stats_across, [metric.distance(ma[x], mb[y]) for x in ma for y in mb])


def _check_stats(stats, distances):
    assert stats["min"] == pytest.approx(min(distances), abs=1e-12)
    assert stats["max"] == pytest.approx(max(distances), abs=1e-12)
    assert stats["mean"] == pytest.approx(sum(distances) / len(distances), abs=1e-12)
