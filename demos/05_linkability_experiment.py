"""End-to-end linkability experiment on a synthetic two-community corpus.

Generates users who write in two communities, normalizes their comments,
builds unigram models, and measures how often an adversary ranking by
distance finds the right counterpart, and how neighborhood size predicts
that risk.  A desk-scale version of the full pipeline (about a minute).
"""

from linkrisk import corpus, evaluation, lm

USERS, TOPICS = 120, 8

print(f"generating {USERS} users across 2 communities...")
corp = evaluation.synth_corpus(
    n_users=USERS, topics=TOPICS, comments_per_user=40, rng_seed=42, idiosyncrasy=0.5
)
print(f"  {len(corp.comments_a)} comments in '{corp.communities[0]}', "
      f"{len(corp.comments_b)} in '{corp.communities[1]}'")

cfg = corpus.NormalizationConfig.default()
streams = corpus.aggregate_profiles(corp.comments_a + corp.comments_b, cfg)
profile_models, community_models, global_model = lm.build_models(streams)
print(f"  {len(profile_models)} profile models, vocabulary {len(global_model.counts)}")

models_a = {a: m for (a, c), m in profile_models.items() if c == corp.communities[0]}
models_b = {a: m for (a, c), m in profile_models.items() if c == corp.communities[1]}

print("\nrunning the experiment (distance matrices + rankings)...")
result = evaluation.run_experiment(models_a, models_b, ks=(1, 5, 10, 20))

print("\n== distance statistics ==")
for scope, stats in (("within A", result.stats_within_a),
                     ("within B", result.stats_within_b),
                     ("across", result.stats_across)):
    print(f"  {scope:>9}: min {stats['min']:.3f}  max {stats['max']:.3f}  mean {stats['mean']:.3f}")

print("\n== matched vs average distance ==")
print(f"  {result.fraction_below:.1%} of true pairs are closer than the average")
print("  (points below the diagonal: the profile matches its twin better than strangers)")

print("\n== adversary precision ==")
for k, p in sorted(result.precisions.items()):
    print(f"  precision@{k:<2} = {p:.3f}")

print("\n== neighborhood size vs precision@5 ==")
for b in result.bin_reports[5]:
    bar = "#" * int(round(b.precision * 20))
    print(f"  size {b.size_low:>3}-{b.size_high:<3} ({b.pair_count:>3} pairs) {b.precision:5.2f} {bar}")
print("bigger anonymous neighborhoods leave the adversary guessing.")

print("\nwriting CSV reports to ./linkability_report ...")
evaluation.write_experiment_csvs(result, "linkability_report", {"seed": 42, "users": USERS})
print("done.")
