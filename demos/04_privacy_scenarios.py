"""Attribute-level privacy: publication, belief updates, and policies.

Walks through a small scenario: what an adversary believes about a profile
after seeing its published attributes, when a privacy requirement breaks,
and why one extra attribute can be the culprit.  Ends with the worst-case
construction where a single attribute swap moves the posterior maximally.
"""

from linkrisk import framework as fw

# Candidate universe: four possible people behind the profile.
universe = {
    "dev_high": fw.EntityModel({"job": "dev", "income": "high"}),
    "dev_low": fw.EntityModel({"job": "dev", "income": "low"}),
    "teacher_high": fw.EntityModel({"job": "teacher", "income": "high"}),
    "teacher_low": fw.EntityModel({"job": "teacher", "income": "low"}),
}

# The adversary knows devs are well paid: candidates contradicting the
# rule are impossible, everything else just has to match the observation.
def kappa(profile, observed, mid, candidate):
    if candidate.value("job") == "dev" and candidate.value("income") != "high":
        return 0.0
    return fw.consistency_kappa(profile, observed, mid, candidate)

adversary = fw.Adversary(
    universe=universe, prior={"P": dict.fromkeys(universe, 1.0 / len(universe))}, kappa=kappa
)

true_model = universe["dev_high"]
print("true profile:", true_model.as_dict())

print("\n== publishing only the job ==")
config = fw.PublicationConfig(reveal=frozenset({"job"}))
observed = fw.publish(true_model, config)
print("observed:", observed.as_dict())
obs = {"P": observed}
post = fw.posterior(adversary, obs, "P")
for mid, mass in post.items():
    print(f"  {mid:>12}: {mass:.3f}")

policy = fw.PrivacyPolicy(
    requirements=[fw.PrivacyRequirement("P", {"income": "high"})], sigma=0.7
)
req = policy.requirements[0]
print("income=high stays under sigma=0.7?",
      fw.sigma_satisfies(post, req, policy.sigma, universe))

print("\n== which attributes are to blame ==")
print("is {income} sensitive here?", fw.is_sensitive({"income"}, policy, "P"))
print("is {job} critical (removing it rescues the policy)?",
      fw.is_critical({"job"}, "P", obs, adversary, policy))

print("\n== hiding the job ==")
empty_obs = {"P": fw.EntityModel({})}
post2 = fw.posterior(adversary, empty_obs, "P")
for mid, mass in post2.items():
    print(f"  {mid:>12}: {mass:.3f}")
print("income=high mass is now",
      round(sum(m for mid, m in post2.items() if universe[mid].value("income") == "high"), 3))

print("\n== perturbation keeps at least one true value ==")
noisy = fw.PublicationConfig(
    reveal=frozenset({"job", "income"}), perturb={"income": "low"}
)
print("published with a decoy income:", fw.publish(true_model, noisy).as_dict())
try:
    fw.PublicationConfig(reveal=frozenset({"job"}), perturb={"job": "x"})
except ValueError as exc:
    print("perturbing everything is rejected:", exc)

print("\n== the hard limit ==")
report = fw.impossibility_demo()
for line in report["transcript"]:
    print(" ", line)
print("no mechanism that keeps one true attribute can cap this below 1.")
