import json
import re

import numpy as np
import pytest

from linkrisk import framework as fw


def em(**values):
    return fw.EntityModel(values)


# --- entity models and restriction ------------------------------------------


def test_restrict_keeps_selected_attrs():
    model = em(name="bob", city="x")
    restricted = fw.restrict(model, {"name"})
    assert restricted.value("name") == "bob"
    assert restricted.value("city") is None
    assert restricted.domain() == {"name"}


def test_restrict_to_full_domain_is_identity():
    model = em(name="bob", city="x")
    assert fw.restrict(model, model.domain()) == model


def test_restrict_null_attribute_gives_empty_domain():
    model = em(name="bob")
    restricted = fw.restrict(model, {"city"})
    assert restricted.domain() == set()


def test_restrict_empty_attrs_errors():
    with pytest.raises(ValueError):
        fw.restrict(em(name="bob"), set())


def test_entity_model_null_and_absent_are_equal():
    assert fw.EntityModel({"a": "1", "b": None}) == fw.EntityModel({"a": "1"})


# --- publication --------------------------------------------------------------


def test_publish_identity_config():
    model = em(name="bob", city="x")
    config = fw.PublicationConfig(reveal=frozenset({"name", "city"}))
    assert fw.publish(model, config) == model


def test_publish_selected_attr_is_true_value():
    model = em(name="bob", city="x")
    config = fw.PublicationConfig(reveal=frozenset({"name"}))
    out = fw.publish(model, config)
    assert out.value("name") == "bob"
    assert out.domain() == {"name"}


def test_publish_perturbs_values():
    model = em(name="bob", city="x")
    config = fw.PublicationConfig(reveal=frozenset({"name", "city"}), perturb={"city": "y"})
    out = fw.publish(model, config)
    assert out.value("city") == "y"
    assert out.value("name") == "bob"


def test_publish_random_perturbation_needs_rng():
    model = em(name="bob", city="x")
    config = fw.PublicationConfig(
        reveal=frozenset({"name", "city"}), perturb={"city": ["y", "z"]}
    )
    with pytest.raises(ValueError, match="rng"):
        fw.publish(model, config)
    out = fw.publish(model, config, rng=np.random.default_rng(5))
    assert out.value("city") in {"y", "z"}


def test_publish_all_perturbed_rejected():
    with pytest.raises(ValueError, match="unperturbed"):
        fw.PublicationConfig(reveal=frozenset({"a"}), perturb={"a": "v"})


def test_publish_perturb_outside_reveal_rejected():
    with pytest.raises(ValueError):
        fw.PublicationConfig(reveal=frozenset({"a"}), perturb={"b": "v"})


def test_publish_empty_reveal_rejected():
    with pytest.raises(ValueError):
        fw.PublicationConfig(reveal=frozenset())


@pytest.mark.parametrize("values", [[], ()])
def test_publish_empty_perturbation_list_rejected(values):
    with pytest.raises(ValueError, match=r"^perturbed attributes with no values to draw from: \['b'\]$"):
        fw.PublicationConfig(reveal=frozenset({"a", "b"}), perturb={"b": values})


# --- posterior ------------------------------------------------------------------


def _uniform_adversary(universe, kappa):
    return fw.Adversary(
        universe=universe, prior={"P": dict.fromkeys(universe, 1.0 / len(universe))}, kappa=kappa
    )


def test_posterior_deterministic_likelihoods():
    universe = {"m1": em(a="x"), "m2": em(a="y")}
    adv = _uniform_adversary(universe, fw.consistency_kappa)
    post = fw.posterior(adv, {"P": em(a="x")}, "P")
    assert post == {"m1": 1.0, "m2": 0.0}


def test_posterior_equal_likelihoods_returns_prior():
    universe = {"m1": em(a="x"), "m2": em(a="y"), "m3": em(a="z")}
    prior = {"P": {"m1": 0.5, "m2": 0.3, "m3": 0.2}}
    adv = fw.Adversary(universe=universe, prior=prior, kappa=lambda *a: 0.7)
    post = fw.posterior(adv, {"P": em()}, "P")
    for mid in universe:
        assert post[mid] == pytest.approx(prior["P"][mid], abs=1e-12)


def test_posterior_worked_example():
    universe = {f"m{i}": em(a=str(i)) for i in range(4)}
    likelihoods = {"m0": 1.0, "m1": 0.5, "m2": 0.5, "m3": 0.0}
    adv = _uniform_adversary(universe, fw.table_kappa({"P": likelihoods}))
    post = fw.posterior(adv, {"P": em()}, "P")
    assert post["m0"] == pytest.approx(0.5, abs=1e-12)
    assert post["m1"] == pytest.approx(0.25, abs=1e-12)
    assert post["m2"] == pytest.approx(0.25, abs=1e-12)
    assert post["m3"] == 0.0
    assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)


def test_posterior_zero_evidence_errors():
    universe = {"m1": em(a="x")}
    adv = _uniform_adversary(universe, fw.consistency_kappa)
    with pytest.raises(ValueError, match="impossible"):
        fw.posterior(adv, {"P": em(a="other")}, "P")


@pytest.mark.parametrize("likelihood", [float("nan"), -1.0, float("inf")])
def test_posterior_refuses_a_likelihood_that_is_not_a_finite_number_at_least_zero(likelihood):
    universe = {"m1": em(a="x"), "m2": em(a="y")}
    adv = _uniform_adversary(universe, fw.table_kappa({"P": {"m1": 1.0, "m2": likelihood}}))
    message = (f"^likelihood of candidate 'm2' for profile 'P' must be a finite number >= 0, "
               f"not {likelihood!r}$")
    with pytest.raises(ValueError, match=message):
        fw.posterior(adv, {"P": em()}, "P")


def test_posterior_refuses_weights_that_do_not_sum_to_a_finite_number():
    universe = {"m1": em(a="x"), "m2": em(a="y")}
    big = {"m1": 1.7e308, "m2": 1.7e308}
    adv = fw.Adversary(universe, {"P": {"m1": 1.0, "m2": 1.0}}, fw.table_kappa({"P": big}))
    with pytest.raises(ValueError, match="^posterior weights for profile 'P' do not sum to a finite number$"):
        fw.posterior(adv, {"P": em()}, "P")
    nan_prior = {"P": {"m1": float("nan"), "m2": 1.0}}
    adv = fw.Adversary(universe, nan_prior, fw.consistency_kappa)
    with pytest.raises(ValueError, match="^negative or NaN prior mass for profile 'P'$"):
        fw.posterior(adv, {"P": em()}, "P")


def test_posterior_normalizes_on_random_tables():
    rng = np.random.default_rng(41)
    universe = {f"m{i}": em(a=str(i)) for i in range(6)}
    for _ in range(50):
        table = {f"m{i}": float(rng.random()) for i in range(6)}
        adv = _uniform_adversary(universe, fw.table_kappa({"P": table}))
        post = fw.posterior(adv, {"P": em()}, "P")
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in post.values())


# --- policies -------------------------------------------------------------------


def test_sigma_satisfies_thresholds():
    universe = {"m1": em(city="x"), "m2": em(city="y")}
    req = fw.PrivacyRequirement("P", {"city": "x"})
    assert fw.sigma_satisfies({"m1": 0.3, "m2": 0.7}, req, 0.5, universe)
    assert fw.sigma_satisfies({"m1": 0.5, "m2": 0.5}, req, 0.5, universe)  # inclusive
    assert not fw.sigma_satisfies({"m1": 1.0, "m2": 0.0}, req, 0.99, universe)


def test_sigma_satisfies_monotone_in_sigma():
    universe = {"m1": em(city="x"), "m2": em(city="y")}
    req = fw.PrivacyRequirement("P", {"city": "x"})
    post = {"m1": 0.6, "m2": 0.4}
    assert not fw.sigma_satisfies(post, req, 0.5, universe)
    assert fw.sigma_satisfies(post, req, 0.6, universe)
    assert fw.sigma_satisfies(post, req, 0.9, universe)


def test_is_sensitive_subset_reading():
    policy = fw.PrivacyPolicy(
        requirements=[fw.PrivacyRequirement("P", {"a": "1", "b": "2"})], sigma=0.5
    )
    assert fw.is_sensitive({"a", "b"}, policy, "P")
    assert fw.is_sensitive({"a"}, policy, "P")  # strict subset
    assert not fw.is_sensitive({"c"}, policy, "P")
    assert not fw.is_sensitive({"a"}, policy, "other")


def test_is_critical_proxy_attribute():
    # job deterministically implies income under the adversary's knowledge:
    # candidates violating the implication get zero likelihood
    universe = {
        "dev_high": em(job="dev", income="high"),
        "dev_low": em(job="dev", income="low"),
        "teacher_high": em(job="teacher", income="high"),
        "teacher_low": em(job="teacher", income="low"),
    }

    def rule_kappa(profile, observed, mid, candidate):
        if candidate.value("job") == "dev" and candidate.value("income") != "high":
            return 0.0
        return fw.consistency_kappa(profile, observed, mid, candidate)

    adv = fw.Adversary(
        universe=universe, prior={"P": dict.fromkeys(universe, 1.0 / len(universe))}, kappa=rule_kappa
    )
    obs = {"P": em(job="dev")}
    policy = fw.PrivacyPolicy(
        requirements=[fw.PrivacyRequirement("P", {"income": "high"})], sigma=0.7
    )
    # published: posterior all on dev_high -> mass 1.0 on income=high (hand Bayes)
    post = fw.posterior(adv, obs, "P")
    assert post["dev_high"] == pytest.approx(1.0)
    # with job hidden: consistent candidates are dev_high, teacher_high, teacher_low
    reduced = fw.posterior(adv, {"P": em()}, "P")
    high_mass = reduced["dev_high"] + reduced["teacher_high"]
    assert high_mass == pytest.approx(2 / 3)
    assert fw.is_critical({"job"}, "P", obs, adv, policy)


def test_is_critical_no_effect_attribute():
    universe = {"m1": em(a="1", b="x"), "m2": em(a="2", b="x")}
    adv = fw.Adversary(
        universe=universe, prior={"P": dict.fromkeys(universe, 1.0 / len(universe))}, kappa=fw.consistency_kappa
    )
    obs = {"P": em(b="x")}
    policy = fw.PrivacyPolicy(requirements=[fw.PrivacyRequirement("P", {"a": "1"})], sigma=0.6)
    assert not fw.is_critical({"b"}, "P", obs, adv, policy)


def test_is_critical_precondition():
    universe = {"m1": em(a="1")}
    adv = fw.Adversary(
        universe=universe, prior={"P": dict.fromkeys(universe, 1.0 / len(universe))}, kappa=fw.consistency_kappa
    )
    obs = {"P": em(a="1")}
    policy = fw.PrivacyPolicy(requirements=[], sigma=0.5)
    with pytest.raises(ValueError, match="published domain"):
        fw.is_critical({"zzz"}, "P", obs, adv, policy)


def test_sensitive_sets_are_zero_critical_when_exposed():
    """Exhaustively: under an exact-match adversary, exposing a forbidden value
    makes the requirement's attribute set 0-critical."""
    for n_attrs in (1, 2, 3):
        for n_values in (2, 3):
            attrs = [f"a{i}" for i in range(n_attrs)]
            values = [f"v{j}" for j in range(n_values)]
            universe = {}
            choices = [[None] + values] * n_attrs

            def expand(i, current):
                if i == n_attrs:
                    universe[f"m{len(universe)}"] = fw.EntityModel(dict(current))
                    return
                for v in choices[i]:
                    current[attrs[i]] = v
                    expand(i + 1, current)
                current.pop(attrs[i], None)

            expand(0, {})
            adv = fw.Adversary(
                universe=universe,
                prior={"P": dict.fromkeys(universe, 1.0 / len(universe))},
                kappa=fw.exact_match_kappa,
            )
            for attr in attrs:
                forbidden_value = values[0]
                policy = fw.PrivacyPolicy(
                    requirements=[fw.PrivacyRequirement("P", {attr: forbidden_value})],
                    sigma=0.0,
                )
                assert fw.is_sensitive({attr}, policy, "P")
                for model in universe.values():
                    if model.value(attr) != forbidden_value:
                        continue
                    obs = {"P": model}
                    post = fw.posterior(adv, obs, "P")
                    req = policy.requirements[0]
                    assert not fw.sigma_satisfies(post, req, 0.0, universe)
                    assert fw.is_critical({attr}, "P", obs, adv, policy)


# --- total variation and the worst-case construction ---------------------------


def test_total_variation_examples():
    assert fw.total_variation({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == 0.0
    assert fw.total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
    assert fw.total_variation({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_impossibility_demo_reaches_one():
    report = fw.impossibility_demo()
    assert report["sd"] == 1.0
    assert report["posterior_original"]["model_original"] == 1.0
    assert report["posterior_swapped"]["model_swapped"] == 1.0
    assert any("total variation" in line for line in report["transcript"])


def test_impossibility_demo_degenerate_swap():
    report = fw.impossibility_demo(value="same", default_value="same")
    assert report["sd"] == 0.0


# --- scenario files -------------------------------------------------------------


SCENARIO = {
    "attributes": ["job", "city"],
    "models": {
        "m1": {"job": "dev", "city": "x"},
        "m2": {"job": "dev", "city": "y"},
        "m3": {"job": "teacher", "city": "x"},
    },
    "profiles": {
        "P1": {"true_model": "m1", "prior": "uniform", "publish": {"reveal": ["job"]}}
    },
    "kappa": {"kind": "consistency"},
    "policy": {"sigma": 0.6, "requirements": [{"profile": "P1", "forbid": {"city": "x"}}]},
    "seed": 7,
}


def test_run_scenario_end_to_end(tmp_path):
    report = fw.run_scenario(SCENARIO)
    assert report["observation"]["P1"] == {"job": "dev"}
    post = report["posteriors"]["P1"]
    assert post["m1"] == pytest.approx(0.5)
    assert post["m2"] == pytest.approx(0.5)
    assert post["m3"] == 0.0
    # mass on city=x is 0.5 <= 0.6
    assert report["policy_satisfied"] is True

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    assert fw.run_scenario(path) == report


def test_run_scenario_names_the_path_of_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"attributes": ["caf\xff"]}')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
        fw.run_scenario(path)


def test_run_scenario_rejects_unknown_attribute():
    bad = dict(SCENARIO, models={"m1": {"nope": "1"}})
    bad["profiles"] = {"P1": {"true_model": "m1"}}
    with pytest.raises(ValueError, match="universe"):
        fw.run_scenario(bad)


def _with_prior(masses):
    return dict(SCENARIO, profiles={"P1": dict(SCENARIO["profiles"]["P1"], prior=masses)})


def test_belief_validation():
    fw.run_scenario(_with_prior({"m1": 0.5, "m2": 0.5}))
    with pytest.raises(ValueError, match=r"^prior for profile 'P1' sums to 1\.\d+, not 1$"):
        fw.run_scenario(_with_prior({"m1": 0.5, "m2": 0.6}))
    with pytest.raises(ValueError, match="^negative or NaN prior mass for profile 'P1'$"):
        fw.run_scenario(_with_prior({"m1": -0.1, "m2": 1.1}))
    # a prior that never went through run_scenario is checked by posterior itself
    adv = fw.Adversary({"m1": em(a="x"), "m2": em(a="y")}, {"P": {"m1": -0.5, "m2": 1.5}}, fw.consistency_kappa)
    with pytest.raises(ValueError, match="^negative or NaN prior mass for profile 'P'$"):
        fw.posterior(adv, {"P": em()}, "P")


@pytest.mark.parametrize("masses", [{"m1": float("nan"), "m2": 1.0}, {"m1": float("nan")}])
def test_belief_validation_refuses_nan(masses):
    with pytest.raises(ValueError, match="^negative or NaN prior mass for profile 'P1'$"):
        fw.run_scenario(_with_prior(masses))
    adv = fw.Adversary({"m1": em(a="x"), "m2": em(a="y")}, {"P": masses}, fw.consistency_kappa)
    with pytest.raises(ValueError, match="^negative or NaN prior mass for profile 'P'$"):
        fw.posterior(adv, {"P": em()}, "P")
