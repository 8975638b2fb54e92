"""Distances between text profiles, step by step.

Builds unigram models for a few tiny profiles, converts them to
distributions, and walks through the divergences and the distance metric.
"""

import numpy as np

from linkrisk import lm, metric
from linkrisk.anonymity import DistanceMatrix

# Three profiles: two about cooking, one about astronomy.
profiles = {
    "cook1": "pasta sauce garlic pasta oven sauce".split(),
    "cook2": "sauce pasta garlic bread oven".split(),
    "astro": "telescope nebula orbit telescope star".split(),
}

models = {name: lm.UnigramModel.from_tokens(tokens) for name, tokens in profiles.items()}

print("== token counts ==")
for name, model in models.items():
    print(f"{name:>6}: {model.counts} (total {model.total})")

print("\n== distributions ==")
dists = {name: lm.to_distribution(m) for name, m in models.items()}
for name, dist in dists.items():
    rounded = {t: round(p, 3) for t, p in sorted(dist.items())}
    print(f"{name:>6}: {rounded}")

print("\n== divergences ==")
print("js(cook1, cook2) =", round(metric.js(dists["cook1"], dists["cook2"]), 4))
print("js(cook1, astro) =", round(metric.js(dists["cook1"], dists["astro"]), 4))
print("js of a distribution with itself is exactly", metric.js(dists["cook1"], dists["cook1"]))
print("disjoint supports reach the maximum:", metric.js({"a": 1.0}, {"b": 1.0}))

print("\n== the metric ==")
d12 = metric.distance(dists["cook1"], dists["cook2"])
d13 = metric.distance(dists["cook1"], dists["astro"])
d23 = metric.distance(dists["cook2"], dists["astro"])
print(f"distance(cook1, cook2) = {d12:.4f}   <- similar profiles are close")
print(f"distance(cook1, astro) = {d13:.4f}   <- different topics are far apart")
print(f"triangle inequality: {d13:.4f} <= {d12:.4f} + {d23:.4f} = {d12 + d23:.4f}")

# A quick randomized sanity check of the metric axioms.
rng = np.random.default_rng(0)
tokens = [f"t{i}" for i in range(10)]
def random_dist():
    support = rng.choice(10, size=4, replace=False)
    w = rng.random(4)
    w /= w.sum()
    return {tokens[i]: float(x) for i, x in zip(support, w)}

violations = 0
for _ in range(2000):
    p, q, r = random_dist(), random_dist(), random_dist()
    if metric.distance(p, r) > metric.distance(p, q) + metric.distance(q, r) + 1e-9:
        violations += 1
print(f"\ntriangle violations over 2000 random triples: {violations}")

print("\n== pairwise matrix ==")
matrix = DistanceMatrix.build(dists)  # keeps the pairs i < j, row by row, as `tri`
print("order:", matrix.keys)
print("packed:", np.round(matrix.tri, 3))
print(np.round(matrix.values, 3))
