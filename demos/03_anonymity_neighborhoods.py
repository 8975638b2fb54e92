"""Neighborhood anonymity and the adversary's matching bound.

A profile is anonymous when enough peers sit within a small distance of
it.  This demo builds a small community, inspects neighborhoods at
different radii, and tabulates the linking-likelihood bound.
"""

import numpy as np

from linkrisk import anonymity
from linkrisk.anonymity import DistanceMatrix

rng = np.random.default_rng(4)
tokens = [f"w{i}" for i in range(30)]

def themed_profile(theme, spice):
    """A distribution concentrated on a theme with a personal twist."""
    base = {tokens[theme * 3 + j]: 0.3 for j in range(3)}
    base[f"quirk_{spice}"] = 0.1
    return base

models = {}
for i in range(8):
    models[f"user{i}"] = themed_profile(theme=i // 4, spice=i)  # two clusters of four

matrix = DistanceMatrix.build(models)
print("profiles:", matrix.keys)
print(np.round(matrix.values, 3))

print("\n== neighborhoods around user0 ==")
for radius in (0.0, 0.3, 0.5, 0.8, 1.0):
    members = anonymity.convergent_subset(matrix, "user0", radius)
    print(f"radius {radius:.1f}: k={len(members)} members={list(members)}")

print("\n== anonymity queries ==")
print("4 peers within 0.5?", anonymity.is_kd_anonymous(matrix, "user0", k=4, d=0.5))
print("6 peers within 0.5?", anonymity.is_kd_anonymous(matrix, "user0", k=6, d=0.5))

print("\n== matching bound ==")
print("c = matching distance, d = neighborhood radius, k = neighborhood size")
print(f"{'c':>5} {'d':>5} {'k':>3} {'bound t':>9}")
for c, d, k in [(0.2, 0.1, 1), (0.2, 0.1, 2), (0.2, 0.1, 5), (0.2, 0.1, 20), (0.05, 0.3, 5)]:
    t = anonymity.matching_bound(c, d, k)
    print(f"{c:>5} {d:>5} {k:>3} {t:>9.4f}")
print("a bigger or tighter neighborhood pushes the adversary toward guessing")

print("\n== choice likelihood ==")
# The adversary picks among candidates proportionally to closeness.
models["target"] = themed_profile(theme=0, spice=0)  # closest to user0
full = DistanceMatrix.build(models)
candidates = [k for k in full.keys if k != "target"]
scores = {
    c: anonymity.choice_likelihood(full, candidates, "target", c, normalized=True)
    for c in candidates
}
for name, score in sorted(scores.items(), key=lambda kv: -kv[1]):
    print(f"  {name:>6}: {score:.3f}")
print("normalized scores sum to", round(sum(scores.values()), 12))
