"""Attribute-based privacy framework: beliefs, publication, policies.

Entities are described by attribute->value maps in which a missing value
(NULL, represented as Python None) means "not disseminated".  An adversary
holds a prior belief over a declared finite universe of candidate models,
a plain dict from profile to candidate id to mass, and updates it by
Bayes' rule after seeing the published restrictions; `posterior` refuses
a negative or NaN prior mass or likelihood.  Privacy requirements cap the
posterior mass the adversary may place on forbidden attribute values.

World knowledge is a likelihood function over (observation, candidate)
pairs.  Two deterministic likelihoods cover most uses: `consistency_kappa`
accepts every candidate that agrees with the observation on its revealed
attributes, and `exact_match_kappa` accepts only the observation itself,
which is the natural reading for a hypothesis space made of restricted
models.  `table_kappa(rows)` builds the likelihood of an arbitrary table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

__all__ = [
    "EntityModel",
    "Adversary",
    "PublicationConfig",
    "PrivacyRequirement",
    "PrivacyPolicy",
    "restrict",
    "publish",
    "posterior",
    "sigma_satisfies",
    "is_sensitive",
    "is_critical",
    "total_variation",
    "impossibility_demo",
    "consistency_kappa",
    "exact_match_kappa",
    "table_kappa",
    "run_scenario",
]

Kappa = Callable[[str, "EntityModel", str, "EntityModel"], float]


@dataclass(frozen=True)
class EntityModel:
    """Attribute->value map; attributes not present are NULL.

    NULL values passed in are dropped on construction, so two models are
    equal exactly when they agree on every non-NULL attribute.
    """

    values: Tuple[Tuple[str, str], ...]

    def __init__(self, values: Mapping[str, Optional[str]]):
        cleaned = tuple(sorted((a, v) for a, v in values.items() if v is not None))
        object.__setattr__(self, "values", cleaned)

    def value(self, attr: str) -> Optional[str]:
        for a, v in self.values:
            if a == attr:
                return v
        return None

    def domain(self) -> Set[str]:
        return {a for a, _ in self.values}

    def as_dict(self) -> Dict[str, str]:
        return dict(self.values)


@dataclass
class Adversary:
    """Candidate universe, prior belief, and a world-knowledge likelihood.

    `prior` maps each profile to its mass per candidate id; an id it leaves
    out has mass 0.
    """

    universe: Dict[str, EntityModel]
    prior: Dict[str, Dict[str, float]]
    kappa: Kappa


def consistency_kappa(profile: str, observed: EntityModel, candidate_id: str, candidate: EntityModel) -> float:
    """Likelihood 1 for candidates agreeing with the observation where it is non-NULL."""
    return 1.0 if all(candidate.value(a) == observed.value(a) for a in observed.domain()) else 0.0


def exact_match_kappa(profile: str, observed: EntityModel, candidate_id: str, candidate: EntityModel) -> float:
    """Likelihood 1 only for the candidate equal to the observation itself."""
    return 1.0 if candidate == observed else 0.0


def table_kappa(rows: Mapping[str, Mapping[str, float]]) -> Kappa:
    """Fixed per-profile likelihood table keyed by candidate id."""

    def kappa(profile, observed, candidate_id, candidate):
        return float(rows[profile].get(candidate_id, 0.0))

    return kappa


def restrict(model: EntityModel, attrs: Iterable[str]) -> EntityModel:
    """Keep the given attributes, NULL out everything else."""
    attrs = set(attrs)
    if not attrs:
        raise ValueError("attribute set must be nonempty")
    return EntityModel({a: v for a, v in model.values if a in attrs})


@dataclass(frozen=True)
class PublicationConfig:
    """Which attributes get revealed and which of those get perturbed.

    `perturb` maps an attribute to a fixed replacement value or to a list
    of values one of which is drawn at publication time.  At least one
    revealed attribute must stay unperturbed so the output always carries
    one true value.
    """

    reveal: frozenset
    perturb: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "reveal", frozenset(self.reveal))
        if not self.reveal:
            raise ValueError("publication must reveal at least one attribute")
        stray = set(self.perturb) - self.reveal
        if stray:
            raise ValueError(f"perturbed attributes not revealed: {sorted(stray)}")
        if not self.reveal - set(self.perturb):
            raise ValueError("publication must leave at least one revealed attribute unperturbed")
        empty = sorted(a for a, repl in self.perturb.items() if isinstance(repl, (list, tuple)) and not repl)
        if empty:
            raise ValueError(f"perturbed attributes with no values to draw from: {empty}")


def publish(
    model: EntityModel, config: PublicationConfig, rng: Optional[np.random.Generator] = None
) -> EntityModel:
    """Apply a publication config: perturb selected values, then restrict."""
    values = dict(model.values)
    for attr in sorted(config.perturb):
        repl = config.perturb[attr]
        if isinstance(repl, (list, tuple)):
            if rng is None:
                raise ValueError("rng required for randomized perturbation")
            repl = repl[int(rng.integers(len(repl)))]
        values[attr] = repl
    return restrict(EntityModel(values), config.reveal)


def posterior(adv: Adversary, observed: Mapping[str, EntityModel], profile: str) -> Dict[str, float]:
    """Bayes update of the prior for one profile given its published model.

    `observed` maps each profile to its published (restricted, possibly
    perturbed) model.  Returns mass per candidate id, summing to one.
    Raises when a likelihood is not a finite number >= 0, when a prior mass
    is not >= 0, and when the weights (likelihood times prior) sum to no
    finite number or to zero.
    """
    published = observed[profile]
    prior = adv.prior[profile]
    weights = {}
    for mid, candidate in adv.universe.items():
        likelihood = adv.kappa(profile, published, mid, candidate)
        if not 0.0 <= likelihood < math.inf:  # NaN included
            raise ValueError(f"likelihood of candidate {mid!r} for profile {profile!r} "
                             f"must be a finite number >= 0, not {likelihood!r}")
        mass = prior.get(mid, 0.0)
        if not mass >= 0:  # NaN included
            raise ValueError(f"negative or NaN prior mass for profile {profile!r}")
        weights[mid] = likelihood * mass
    evidence = sum(weights[mid] for mid in sorted(weights))
    if not evidence < math.inf:  # NaN included
        raise ValueError(f"posterior weights for profile {profile!r} do not sum to a finite number")
    if evidence <= 0.0:
        raise ValueError(f"observation impossible under prior for profile {profile!r}")
    return {mid: w / evidence for mid, w in weights.items()}


@dataclass(frozen=True)
class PrivacyRequirement:
    """Forbidden attribute values for one profile."""

    profile: str
    forbidden: Tuple[Tuple[str, str], ...]

    def __init__(self, profile: str, forbidden: Mapping[str, str]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "forbidden", tuple(sorted(forbidden.items())))


@dataclass
class PrivacyPolicy:
    requirements: List[PrivacyRequirement]
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError("sigma must be in [0, 1]")


def sigma_satisfies(
    posterior_slice: Mapping[str, float],
    requirement: PrivacyRequirement,
    sigma: float,
    universe: Mapping[str, EntityModel],
) -> bool:
    """True iff every forbidden value carries posterior mass at most sigma."""
    for attr, value in requirement.forbidden:
        mass = sum(
            posterior_slice.get(mid, 0.0)
            for mid in sorted(universe)
            if universe[mid].value(attr) == value
        )
        if mass > sigma:
            return False
    return True


def is_sensitive(attrs: Iterable[str], policy: PrivacyPolicy, profile: str) -> bool:
    """True iff some requirement for this profile covers all of `attrs`."""
    attrs = set(attrs)
    return any(req.profile == profile and attrs <= {a for a, _ in req.forbidden}
               for req in policy.requirements)


def is_critical(
    attrs: Iterable[str],
    profile: str,
    observed: Mapping[str, EntityModel],
    adversary: Adversary,
    policy: PrivacyPolicy,
) -> bool:
    """Whether removing `attrs` from the profile's published model flips a violation.

    `observed` maps each profile to its published model; `attrs` must lie in
    the published domain of `profile`.  True iff some requirement is violated
    at `policy.sigma` before `attrs` are nulled out and satisfied after.
    """
    attrs = set(attrs)
    published = observed[profile]
    if not attrs <= published.domain():
        raise ValueError("attrs must be contained in the published domain of the profile")
    reduced = EntityModel({a: v for a, v in published.values if a not in attrs})
    post_full = posterior(adversary, observed, profile)
    post_reduced = posterior(adversary, {**observed, profile: reduced}, profile)
    for req in [r for r in policy.requirements if r.profile == profile]:
        violated_full = not sigma_satisfies(post_full, req, policy.sigma, adversary.universe)
        violated_reduced = not sigma_satisfies(post_reduced, req, policy.sigma, adversary.universe)
        if violated_full and not violated_reduced:
            return True
    return False


def total_variation(x: Mapping[str, float], y: Mapping[str, float]) -> float:
    """Total variation distance, i.e. half the L1 distance on the union support."""
    keys = sorted(set(x) | set(y))
    return 0.5 * sum(abs(x.get(k, 0.0) - y.get(k, 0.0)) for k in keys)


def impossibility_demo(value: str = "x", default_value: str = "x_star") -> Dict[str, object]:
    """Worst-case construction showing posteriors can move by the maximum.

    One attribute survives publication unperturbed.  An adversary with a
    uniform prior over the two candidate models and no extra knowledge
    observes either the original value or the default-swapped one; the two
    posteriors are point masses on different candidates, so their total
    variation distance is 1 (or 0 in the degenerate case of equal values).
    """
    attr = "alias"
    original = EntityModel({attr: value})
    swapped = EntityModel({attr: default_value})
    universe = {"model_original": original, "model_swapped": swapped}
    adv = Adversary(universe, {"P": dict.fromkeys(universe, 1.0 / len(universe))}, consistency_kappa)
    config = PublicationConfig(reveal=frozenset({attr}))
    post_original = posterior(adv, {"P": publish(original, config)}, "P")
    post_swapped = posterior(adv, {"P": publish(swapped, config)}, "P")
    sd = total_variation(post_original, post_swapped)
    return {
        "sd": sd,
        "posterior_original": post_original,
        "posterior_swapped": post_swapped,
        "transcript": [
            f"universe: {attr}={value} vs {attr}={default_value}, uniform prior, no world knowledge",
            f"publication reveals {attr} unperturbed",
            f"posterior after observing {attr}={value}: {post_original}",
            f"posterior after observing {attr}={default_value}: {post_swapped}",
            f"total variation distance: {sd}",
        ],
    }


def _undeclared(names: Iterable[str], declared, where: str, what: str) -> None:
    """Names outside `declared` are a ValueError: `<where>: <what>: [...]`."""
    stray = set(names) - set(declared)
    if stray:
        raise ValueError(f"{where}: {what}: {sorted(stray)}")


def _parse_model(values: Mapping[str, Optional[str]], attributes: Set[str], label: str) -> EntityModel:
    _undeclared(values, attributes, label, "attributes not in declared universe")
    for attr, value in values.items():
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{label}: {attr!r} must be a string or null")
    return EntityModel(values)


_KINDS = {dict: "a JSON object", list: "a list", str: "a string", int: "an integer",
          (int, float): "a number"}


def _field(obj, key: str, where: str, kind):
    """`obj[key]`; a non-dict `obj`, a missing `key` or a non-`kind` value (a bool too) is a ValueError.

    So is a number beyond the float range, such as a JSON integer of 400 digits.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in obj:
        raise ValueError(f"{where} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: {key!r} must be {_KINDS[kind]}")
    if kind == (int, float):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{where}: {key!r} is beyond the float range") from None
    return value


def _strings(obj, key: str, where: str) -> list:
    """`_field(obj, key, where, list)` whose entries must all be strings."""
    values = _field(obj, key, where, list)
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"{where}: {key!r} must be a list of strings")
    return values


def _check_values(obj: dict, where: str, kind) -> None:
    """A value of `obj` that is not a `kind` is a ValueError."""
    for key in obj:
        _field(obj, key, where, kind)


def _read_scenario(source) -> Dict[str, object]:
    """The scenario JSON file at path `source` (a leading BOM dropped), or `source` itself when it is a dict.
    A file that is not UTF-8 or not JSON raises a one-line ValueError naming it."""
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:  # a ValueError too, so caught first
        raise ValueError(f"{source}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise ValueError(f"{source}: not valid JSON ({exc})") from None


def run_scenario(source) -> Dict[str, object]:
    """Publish every profile of a scenario, update beliefs, evaluate the policy.

    `source` is the path of a scenario JSON file or the already-parsed dict.
    See the README for the scenario schema.  Deterministic given the
    scenario's `seed`.
    """
    scenario = _read_scenario(source)
    attributes = set(_strings(scenario, "attributes", "scenario"))
    model_cfg = _field(scenario, "models", "scenario", dict)
    models = {
        mid: _parse_model(_field(model_cfg, mid, "models", dict), attributes, f"model {mid!r}")
        for mid in model_cfg
    }
    profiles = _field(scenario, "profiles", "scenario", dict)
    policy_cfg = _field(scenario, "policy", "scenario", dict)
    sigma = float(_field(policy_cfg, "sigma", "policy", (int, float)))
    requirements = []
    for n, r in enumerate(_field(policy_cfg, "requirements", "policy", list), start=1):
        where = f"policy requirement {n}"
        forbid = _field(r, "forbid", where, dict)
        _check_values(forbid, f"{where} forbid", str)
        _undeclared(forbid, attributes, f"{where} forbid", "attributes not in declared universe")
        requirements.append(PrivacyRequirement(_field(r, "profile", where, str), forbid))
    policy = PrivacyPolicy(requirements=requirements, sigma=sigma)
    for name in sorted(profiles):
        true_model = _field(profiles[name], "true_model", f"profile {name!r}", str)
        if true_model not in models:
            raise ValueError(f"profile {name!r}: unknown true_model {true_model!r}")
    for req in policy.requirements:
        if req.profile not in profiles:
            raise ValueError(f"policy requirement names unknown profile {req.profile!r}")

    priors = {}
    for name, profile_cfg in profiles.items():
        prior = profile_cfg.get("prior", "uniform")
        if prior == "uniform":
            priors[name] = dict.fromkeys(models, 1.0 / len(models))
        elif isinstance(prior, dict):
            _check_values(prior, f"profile {name!r} prior", (int, float))
            priors[name] = {mid: float(prior.get(mid, 0.0)) for mid in models}
        else:
            raise ValueError(f"profile {name!r}: 'prior' must be \"uniform\" or a JSON object")
    for name, masses in priors.items():  # every prior parsed, then each checked
        if any(not v >= 0 for v in masses.values()):  # NaN included
            raise ValueError(f"negative or NaN prior mass for profile {name!r}")
        total = sum(masses[mid] for mid in sorted(masses))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"prior for profile {name!r} sums to {total}, not 1")
        if isinstance(profiles[name].get("prior"), dict):
            _undeclared(profiles[name]["prior"], models, f"profile {name!r} prior", "unknown model ids")

    kappa_cfg = _field(scenario, "kappa", "scenario", dict) if "kappa" in scenario else {}
    kind = kappa_cfg.get("kind", "consistency")
    if kind == "consistency":
        kappa = consistency_kappa
    elif kind == "exact_match":
        kappa = exact_match_kappa
    elif kind == "table":
        rows = _field(kappa_cfg, "rows", "table kappa", dict)
        for name in sorted(profiles):
            row = _field(rows, name, "table kappa rows", dict)
            _check_values(row, f"table kappa row {name!r}", (int, float))
            _undeclared(row, models, f"table kappa row {name!r}", "unknown model ids")
        _undeclared(rows, profiles, "table kappa rows", "unknown profiles")
        kappa = table_kappa(rows)
    else:
        raise ValueError(f"unknown kappa kind {kind!r}")

    adv = Adversary(universe=models, prior=priors, kappa=kappa)
    seed = _field(scenario, "seed", "scenario", int) if "seed" in scenario else 0
    if seed < 0:
        raise ValueError("scenario: 'seed' must be >= 0")
    rng = np.random.default_rng(seed)

    observed = {}
    for name in sorted(profiles):
        profile_cfg = profiles[name]
        true_model = models[profile_cfg["true_model"]]
        pub = profile_cfg.get("publish")
        if pub is None:
            config = PublicationConfig(reveal=frozenset(true_model.domain() or attributes))
        else:
            where = f"profile {name!r} publish"
            reveal = frozenset(_strings(pub, "reveal", where))
            perturb = _field(pub, "perturb", where, dict) if "perturb" in pub else {}
            for attr, repl in perturb.items():
                drawn = repl if isinstance(repl, list) else [repl]  # a fixed value, or values to draw from
                if not all(isinstance(v, str) for v in drawn):
                    raise ValueError(f"{where} perturb: {attr!r} must be a string or a list of strings")
            config = PublicationConfig(reveal=reveal, perturb=dict(perturb))
            _undeclared(reveal, attributes, where, "attributes not in declared universe")
        observed[name] = publish(true_model, config, rng)

    posteriors = {name: posterior(adv, observed, name) for name in sorted(profiles)}
    requirement_reports = []
    satisfied_all = True
    for req in policy.requirements:
        ok = sigma_satisfies(posteriors[req.profile], req, sigma, models)
        satisfied_all = satisfied_all and ok
        requirement_reports.append(
            {"profile": req.profile, "forbid": dict(req.forbidden), "satisfied": ok}
        )
    return {
        "sigma": sigma,
        "observation": {name: model.as_dict() for name, model in observed.items()},
        "posteriors": posteriors,
        "requirements": requirement_reports,
        "policy_satisfied": satisfied_all,
    }
