"""What the comment normalizer does to messy input.

Feeds a handful of raw comment bodies through the pipeline and prints
the resulting token streams, then shows ingestion and profile filtering.
"""

import os
import tempfile

from linkrisk import corpus

cfg = corpus.NormalizationConfig.default()
print(f"default lists: {len(cfg.stopwords)} stopwords, {len(cfg.smilies)} smilies")
print(f"list hash (stopwords): {corpus.wordlist_hash(cfg.stopwords)[:16]}...")

samples = [
    "THIS is *SO* cooooooooool!!!",
    "check https://www.example.com/path?track=1 for details",
    "[the video](https://www.youtube.com/watch?v=x) is great :D",
    "quoting someone:\n> their words here\nmy reply",
    "inline `rm -rf /` code and a fenced block:\n```\nnot natural language\n```",
    "tables | get | flattened\n|---|---|---|",
    "stacked diá́critics and smilies ^_^ survive",
]

for body in samples:
    print("\nraw:   ", body.replace("\n", "\\n"))
    print("tokens:", corpus.normalize(body, cfg))

print("\n== ingestion ==")
lines = [
    '{"author":"ann","community":"cooking","body":"pasta sauce tips"}',
    'this line is broken',
    '{"author":"ann","community":"cooking","body":"more pasta talk"}',
    '{"author":"bob","community":"cooking","body":"bread recipe"}',
]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "comments.jsonl")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    result = corpus.ingest_jsonl(path, lenient=True)
print(f"parsed {len(result.comments)} comments, skipped {len(result.errors)} bad line(s)")
for line_no, message in result.errors:
    print(f"  line {line_no}: {message}")

profiles = corpus.aggregate_profiles(result.comments, cfg)
for key, stream in profiles.items():
    print(f"{key}: {stream.n_comments} comments -> {stream.tokens}")

print("\n== filtering ==")
kept = corpus.filter_interesting(profiles, min_comments=2, min_profiles=1)
print("profiles with at least 2 comments:", sorted(kept))
