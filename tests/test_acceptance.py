"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Randomized checks use fixed seeds; tolerances are asserted
exactly as stated in each criterion.
"""

import json
import os
import time

import numpy as np
import pytest

from linkrisk import anonymity, cli, corpus, evaluation, framework as fw, lm, metric
from linkrisk.evaluation import GroundTruthLink
from conftest import random_distribution


def _ok(n, text):
    print(f"ACCEPTANCE PASS  criterion {n:>2}: {text}")


# --- criterion 1: metric axioms on 10,000 random sparse triples -----------------


def test_criterion_01_metric_axioms():
    rng = np.random.default_rng(1001)
    pool = [f"tok{i}" for i in range(12)]
    started = time.monotonic()
    for _ in range(10_000):
        p = random_distribution(rng, pool)
        q = random_distribution(rng, pool)
        r = random_distribution(rng, pool)
        dpq, dqp = metric.distance(p, q), metric.distance(q, p)
        dpr, dqr = metric.distance(p, r), metric.distance(q, r)
        assert dpq == dqp  # symmetry is exact
        assert metric.distance(p, p) <= 1e-12
        assert dpr <= dpq + dqr + 1e-9
        assert dpq <= dpr + dqr + 1e-9
        assert dqr <= dqp + dpr + 1e-9
        for v in (dpq, dpr, dqr):
            assert 0.0 <= v <= 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"metric axiom sweep took {elapsed:.1f}s"
    _ok(1, f"metric axioms on 10,000 triples in {elapsed:.1f}s")


# --- criterion 2: JS extremes against an independent high-precision oracle ------


def _js_oracle_50_digits(p, q):
    import mpmath as mp

    with mp.workdps(50):
        ln2 = mp.log(2)
        total = mp.mpf(0)
        for token in sorted(set(p) | set(q)):
            pv, qv = mp.mpf(p.get(token, 0.0)), mp.mpf(q.get(token, 0.0))
            m = (pv + qv) / 2
            if pv > 0:
                total += pv * mp.log(pv / m) / ln2 / 2
            if qv > 0:
                total += qv * mp.log(qv / m) / ln2 / 2
        return float(total)


def test_criterion_02_js_extremes_and_oracle():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        left = random_distribution(rng, [f"L{i}" for i in range(8)])
        right = random_distribution(rng, [f"R{i}" for i in range(8)])
        assert metric.js(left, right) == pytest.approx(1.0, abs=1e-12)
    worked_p, worked_q = {"a": 1.0}, {"a": 0.5, "b": 0.5}
    oracle = _js_oracle_50_digits(worked_p, worked_q)
    assert oracle == pytest.approx(0.31127812445913286, abs=1e-12)
    assert metric.js(worked_p, worked_q) == pytest.approx(oracle, abs=1e-9)
    for _ in range(100):
        p = random_distribution(rng)
        q = random_distribution(rng)
        assert metric.js(p, q) == pytest.approx(_js_oracle_50_digits(p, q), abs=1e-9)
    _ok(2, "disjoint-support js = 1 and worked value matches 50-digit oracle")


# --- criteria 3-5: adversary bound, triangle lemma, superset monotonicity -------


def _instance(rng, n, pool):
    cands = [random_distribution(rng, pool) for _ in range(n)]
    target = random_distribution(rng, pool)
    # a target-only token guarantees a strictly positive matching distance
    target = {t: v * 0.9 for t, v in target.items()}
    target["zz_target_only"] = 0.1
    return cands, target


def test_criterion_03_matching_likelihood_bound():
    rng = np.random.default_rng(1003)
    pool = [f"w{i}" for i in range(14)]
    cross_checked = 0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        cands, target = _instance(rng, n, pool)
        star = int(rng.integers(n))
        c = metric.distance(cands[star], target)
        assert c > 0.0
        d = float(rng.random())
        ball = [j for j in range(n) if metric.distance(cands[star], cands[j]) <= d]
        k = len(ball)
        denominator = sum(metric.distance(cands[j], target) for j in ball)
        likelihood = 1.0 - c / denominator
        bound = anonymity.matching_bound(c, d, k)
        assert likelihood <= bound + 1e-9
        if 2 <= k <= 6:
            models = {f"p{j:02d}": cands[j] for j in ball}
            models["target"] = target
            m = anonymity.DistanceMatrix.build(models)
            via_op = anonymity.choice_likelihood(
                m, [f"p{j:02d}" for j in ball], "target", f"p{star:02d}"
            )
            assert via_op == pytest.approx(likelihood, abs=1e-9)
            cross_checked += 1
    assert cross_checked > 20
    _ok(3, "choice likelihood never exceeds 1 - c/(c+(k-1)(c+d)) on 1000 instances")


def test_criterion_04_triangle_matching_lemma():
    rng = np.random.default_rng(1004)
    pool = [f"w{i}" for i in range(14)]
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        cands, target = _instance(rng, n, pool)
        models = {f"p{j:02d}": cands[j] for j in range(n)}
        models["target"] = target
        m = anonymity.DistanceMatrix.build(models)
        anchor = f"p{int(rng.integers(n)):02d}"
        c = m.distance(anchor, "target")
        d = float(rng.random())
        members = [k for k in m.keys if k != "target" and m.distance(anchor, k) <= d]
        assert anonymity.lemma_bound_check(m, members, "target", c=c, d=d)
        for member in members:
            assert m.distance(member, "target") <= c + d + 1e-9
    _ok(4, "d-convergent sets always (c+d)-match on 1000 instances")


def test_criterion_05_anonymity_survives_supersets():
    rng = np.random.default_rng(1005)
    pool = [f"w{i}" for i in range(14)]
    for _ in range(1000):
        n_base = int(rng.integers(3, 13))
        n_extra = int(rng.integers(1, 7))
        models = {f"b{j:02d}": random_distribution(rng, pool) for j in range(n_base)}
        extended = dict(models)
        extended.update(
            {f"x{j:02d}": random_distribution(rng, pool) for j in range(n_extra)}
        )
        full = anonymity.DistanceMatrix.build(extended)
        base_keys = sorted(models)
        idx = [full.index_of(k) for k in base_keys]
        base = anonymity.DistanceMatrix(
            keys=base_keys, values=full.values[np.ix_(idx, idx)][np.triu_indices(n_base, k=1)]
        )
        subject = f"b{int(rng.integers(n_base)):02d}"
        d = float(rng.random())
        k = len(anonymity.convergent_subset(base, subject, d))
        assert anonymity.is_kd_anonymous(full, subject, k, d)
    _ok(5, "superset extensions never destroyed (k,d)-anonymity in 1000 trials")


# --- criterion 6: worst-case posterior shift reaches total variation 1 ----------


def test_criterion_06_impossibility_construction(capsys):
    report = fw.impossibility_demo()
    assert report["sd"] == 1.0
    code = cli.dispatch(["framework", "impossibility"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SD = 1.0" in out
    with capsys.disabled():
        _ok(6, "impossibility construction yields SD = 1.0 exactly (library and CLI)")


# --- criterion 7: no critical attributes implies policy satisfaction ------------


def _enumerate_universe(attrs, values):
    """All entity models over the attributes, each value from values or NULL."""
    universe = {}

    def expand(i, current):
        if i == len(attrs):
            universe[f"m{len(universe)}"] = fw.EntityModel(dict(current))
            return
        for v in [None] + values:
            current[attrs[i]] = v
            expand(i + 1, current)
        current.pop(attrs[i], None)

    expand(0, {})
    return universe


def _marginals(post, universe, attrs):
    mass = {a: {} for a in attrs}
    for mid, p in post.items():
        model = universe[mid]
        for a in attrs:
            v = model.value(a)
            if v is not None:
                mass[a][v] = mass[a].get(v, 0.0) + p
    return mass


def test_criterion_07_no_critical_attrs_implies_satisfaction():
    sigma = 0.5
    checked = 0
    for n_attrs in (1, 2, 3, 4):
        for n_values in (1, 2, 3):
            attrs = [f"a{i}" for i in range(n_attrs)]
            values = [f"v{j}" for j in range(n_values)]
            universe = _enumerate_universe(attrs, values)
            by_model = {model: mid for mid, model in universe.items()}
            for kappa in (fw.consistency_kappa, fw.exact_match_kappa):
                adv = fw.Adversary(
                    universe=universe,
                    prior={"P": dict.fromkeys(universe, 1.0 / len(universe))},
                    kappa=kappa,
                )
                marginals = {}
                for mid, observed in universe.items():
                    post = fw.posterior(adv, {"P": observed}, "P")
                    marginals[mid] = _marginals(post, universe, attrs)

                def violated(obs_mid, attr, value):
                    return marginals[obs_mid].get(attr, {}).get(value, 0.0) > sigma

                small = len(universe) <= 32
                for obs_mid, observed in universe.items():
                    dom = sorted(observed.domain())
                    subsets = [
                        [dom[i] for i in range(len(dom)) if mask & (1 << i)]
                        for mask in range(1, 1 << len(dom))
                    ]
                    for attr in attrs:
                        for value in values:
                            is_violated = violated(obs_mid, attr, value)
                            critical_exists = False
                            for subset in subsets:
                                reduced = fw.EntityModel(
                                    {a: observed.value(a) for a in dom if a not in subset}
                                )
                                reduced_mid = by_model[reduced]
                                if is_violated and not violated(reduced_mid, attr, value):
                                    critical_exists = True
                                    break
                            if not critical_exists:
                                assert not is_violated
                            checked += 1
                            if small and subsets:
                                # cross-check the cached sweep against the API
                                policy = fw.PrivacyPolicy(
                                    requirements=[fw.PrivacyRequirement("P", {attr: value})],
                                    sigma=sigma,
                                )
                                obs = {"P": observed}
                                post = fw.posterior(adv, obs, "P")
                                assert (
                                    not fw.sigma_satisfies(
                                        post, policy.requirements[0], sigma, universe
                                    )
                                ) == is_violated
                                api_critical = any(
                                    fw.is_critical(set(s), "P", obs, adv, policy)
                                    for s in subsets
                                )
                                assert api_critical == critical_exists
    assert checked > 9_000
    _ok(7, f"policies hold whenever no attribute set is critical ({checked} cases)")


# --- criterion 8: normalization golden suite -------------------------------------


def test_criterion_08_normalization_goldens():
    cfg = corpus.NormalizationConfig.default()
    assert corpus.normalize("cooooooool", cfg) == ["coool"]
    assert corpus.normalize("*text*", cfg) == ["text"]
    assert corpus.normalize("see https://www.mypage.com/a?q=1", cfg) == ["www.mypage.com"]
    assert corpus.normalize("`rm -rf`", cfg) == []
    assert corpus.normalize("prefix\n```\nwhole block gone\n```\nsuffix", cfg) == [
        "prefix",
        "suffix",
    ]
    assert corpus.normalize("nice :) day", cfg) == ["nice", ":)", "day"]
    _ok(8, "normalization golden suite matches exactly")


# --- criteria 9-10: synthetic-corpus analogues of the scatter and bin figures ----


@pytest.fixture(scope="module")
def figure_experiment():
    started = time.monotonic()
    corp = evaluation.synth_corpus(
        n_users=500, topics=20, comments_per_user=60, rng_seed=42, idiosyncrasy=0.5
    )
    cfg = corpus.NormalizationConfig.default()
    streams = corpus.aggregate_profiles(corp.comments_a + corp.comments_b, cfg)
    profile_models, _, _ = lm.build_models(streams)
    models_a = {a: m for (a, c), m in profile_models.items() if c == "alpha"}
    models_b = {a: m for (a, c), m in profile_models.items() if c == "beta"}
    result = evaluation.run_experiment(
        models_a, models_b, ks=(5,), workers=os.cpu_count()
    )
    elapsed = time.monotonic() - started
    return result, elapsed


def test_criterion_09_matched_profiles_sit_below_diagonal(figure_experiment):
    result, elapsed = figure_experiment
    assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"
    assert result.fraction_below >= 0.90
    _ok(
        9,
        f"{result.fraction_below:.1%} of matched pairs below the diagonal "
        f"({elapsed:.0f}s for 500 users)",
    )


def test_criterion_10_precision_falls_with_neighborhood_size(figure_experiment):
    from scipy.stats import spearmanr

    result, _ = figure_experiment
    bins = result.bin_reports[5]
    assert len(bins) >= 3
    rho = spearmanr(
        [b.size_low for b in bins], [b.precision for b in bins]
    ).statistic
    assert rho <= -0.5
    _ok(10, f"Spearman(bin size, precision@5) = {rho:.2f} over {len(bins)} bins")


# --- criterion 11: Bayes update worked example ------------------------------------


def test_criterion_11_posterior_worked_example():
    universe = {f"m{i}": fw.EntityModel({"a": str(i)}) for i in range(4)}
    adv = fw.Adversary(
        universe=universe,
        prior={"P": dict.fromkeys(universe, 1.0 / len(universe))},
        kappa=fw.table_kappa({"P": {"m0": 1.0, "m1": 0.5, "m2": 0.5, "m3": 0.0}}),
    )
    post = fw.posterior(adv, {"P": fw.EntityModel({})}, "P")
    assert abs(post["m0"] - 0.5) <= 1e-12
    assert abs(post["m1"] - 0.25) <= 1e-12
    assert abs(post["m2"] - 0.25) <= 1e-12
    assert post["m3"] == 0.0
    rng = np.random.default_rng(1011)
    for _ in range(200):
        table = {mid: float(rng.random()) for mid in universe}
        adv = fw.Adversary(
            universe=universe,
            prior={"P": dict.fromkeys(universe, 1.0 / len(universe))},
            kappa=fw.table_kappa({"P": table}),
        )
        post = fw.posterior(adv, {"P": fw.EntityModel({})}, "P")
        assert abs(sum(post.values()) - 1.0) <= 1e-12
    _ok(11, "posterior matches hand computation and always normalizes")


# --- criterion 12: byte-identical pipeline outputs across worker counts -----------


def test_criterion_12_pipeline_determinism(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    work = tmp_path / "work"
    assert cli.dispatch(
        ["synth", "--users", "40", "--topics", "5", "--comments", "24",
         "--seed", "9", "--out", str(corpus_dir)]
    ) == 0
    combined = tmp_path / "all.jsonl"
    combined.write_text(
        (corpus_dir / "alpha.jsonl").read_text() + (corpus_dir / "beta.jsonl").read_text(),
        encoding="utf-8",
    )
    assert cli.dispatch(
        ["ingest", "--input", str(combined), "--min-comments", "1",
         "--min-profiles", "1", "--out", str(work)]
    ) == 0
    outputs = []
    for workers in ("1", "2"):
        outdir = tmp_path / f"report-w{workers}"
        assert cli.dispatch(
            ["eval", "--profiles", str(work / "profiles.jsonl"),
             "--community-a", "alpha", "--community-b", "beta",
             "--k", "1,5", "--workers", workers, "--out", str(outdir)]
        ) == 0
        outputs.append(outdir)
    capsys.readouterr()
    names = ["stats.csv", "scatter.csv", "precision_overall.csv", "precision_bins.csv",
             "metadata.json"]
    for name in names:
        first = (outputs[0] / name).read_bytes()
        second = (outputs[1] / name).read_bytes()
        assert first == second, f"{name} differs between worker counts"
    with capsys.disabled():
        _ok(12, "CSV outputs byte-identical for 1 vs 2 workers with a fixed seed")
