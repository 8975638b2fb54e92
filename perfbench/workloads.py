"""Workloads of the linkrisk benchmark: input generators, CLI sequences, output checks.

Each workload makes its inputs from a seed, runs a fixed sequence of
`linkrisk` subcommands in-process through `cli.dispatch`, in the order of the
README's pipeline, and then checks the outputs against references that live
here rather than in the library:

- eval-synth500: the paper's cross-community experiment at acceptance size
  (500 users, 20 topics).  The metric layer does most of the work.
- ingest-markup: markup-heavy comments from many authors in 12 communities,
  with about 1 % malformed lines.  The corpus layer does nearly all of the
  work and the metric layer none.
- audit-bigvocab: one community with a vocabulary of more than 5e4 tokens
  and long supports; the matrix is written once and read by 1000 anonymity
  queries, as `eval` would pick their radii.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from collections import Counter

import numpy as np


class Ops:
    """Operations attempted and failed in one run: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


class Cli:
    """Runs linkrisk subcommands in-process; each call counts as one operation."""

    def __init__(self, cli_module, ops: Ops):
        self._cli = cli_module
        self.ops = ops

    def __call__(self, *argv) -> tuple:
        """Run one subcommand; return (stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self._cli.dispatch([str(a) for a in argv])
            seconds = time.perf_counter() - start
        self.ops.check(code == 0, f"linkrisk {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        return out.getvalue(), seconds


class Iteration:
    """One timed pass over a workload's CLI sequence."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies_ms: list = []
        self.stdout: dict = {}

    def run(self, cli: Cli, *argv) -> str:
        text, seconds = cli(*argv)
        self.wall_s += seconds
        return text


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(out: str, names, it: Iteration) -> dict:
    """sha256 of the named output files plus of each captured stdout."""
    hashes = {name: sha256_file(os.path.join(out, name)) for name in names}
    for key, text in it.stdout.items():
        hashes[f"stdout:{key}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashes


# --- independent references --------------------------------------------------------


def read_profile_counts(path: str) -> dict:
    """{(author, community): Counter of tokens} from a profiles.jsonl file."""
    profiles = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                profiles[(rec["author"], rec["community"])] = Counter(rec["tokens"])
    return profiles


def reference_distance(counts_a: Counter, counts_b: Counter) -> float:
    """Scalar sqrt-Jensen-Shannon distance, base 2, over the sorted token union."""
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    js = 0.0
    for token in sorted(counts_a.keys() | counts_b.keys()):
        p = counts_a.get(token, 0) / total_a
        q = counts_b.get(token, 0) / total_b
        m = 0.5 * (p + q)
        if p > 0.0:
            js += 0.5 * p * math.log2(p / m)
        if q > 0.0:
            js += 0.5 * q * math.log2(q / m)
    return math.sqrt(min(1.0, max(0.0, js)))


def read_dmat(path: str):
    """Keys, full symmetric float64 matrix and stored dtype of a `.dmat` file.

    Follows the documented format: a JSON header line, then the upper
    triangle row-major in the header's dtype.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    n = int(header["n"])
    dtype = np.dtype(header["dtype"])
    tri = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    values = np.zeros((n, n), dtype=np.float64)
    iu = np.triu_indices(n, k=1)
    values[iu] = tri
    values[(iu[1], iu[0])] = tri
    return list(header["keys"]), values, dtype


def top_tokens(counts: Counter, k: int) -> str:
    """`top-unigrams` output for the given counts: k lines of token<TAB>count."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return "".join(f"{token}\t{count}\n" for token, count in ranked)


# --- eval-synth500 -----------------------------------------------------------------


class EvalSynth500:
    """`ingest` then `eval` on the paper's experiment at acceptance size."""

    name = "eval-synth500"
    work_unit = "pairs"
    uses_workers = True
    outputs = ("ingest/profiles.jsonl", "report/stats.csv", "report/scatter.csv",
               "report/precision_overall.csv", "report/precision_bins.csv", "report/metadata.json")
    ks = (1, 5, 10, 20)

    def generate(self, lr, seed: int, inputs: str) -> None:
        corp = lr.evaluation.synth_corpus(n_users=500, topics=20, comments_per_user=60, rng_seed=seed)
        with open(os.path.join(inputs, "all.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lr.evaluation.comments_to_jsonl(corp.comments_a + corp.comments_b))

    def iterate(self, cli: Cli, state: dict, inputs: str, out: str, workers: int) -> Iteration:
        it = Iteration()
        it.run(cli, "ingest", "--input", os.path.join(inputs, "all.jsonl"),
               "--min-comments", 1, "--min-profiles", 1, "--out", os.path.join(out, "ingest"))
        it.run(cli, "eval", "--profiles", os.path.join(out, "ingest", "profiles.jsonl"),
               "--community-a", "alpha", "--community-b", "beta",
               "--k", ",".join(map(str, self.ks)), "--workers", workers,
               "--out", os.path.join(out, "report"))
        return it

    def check(self, ops: Ops, state: dict, out: str, it: Iteration) -> int:
        """Check the eval CSVs; return the number of distance pairs computed."""
        profiles = read_profile_counts(os.path.join(out, "ingest", "profiles.jsonl"))
        report = os.path.join(out, "report")
        with open(os.path.join(report, "scatter.csv"), newline="") as fh:
            scatter = list(csv.DictReader(fh))
        for row in scatter:
            ref = reference_distance(profiles[(row["source"], "alpha")],
                                     profiles[(row["target"], "beta")])
            got = float(row["matching_distance"])
            ops.check(abs(got - ref) <= 1e-12,
                      f"scatter {row['source']}->{row['target']}: {got!r} vs reference {ref!r}")
        links = len(scatter)
        with open(os.path.join(report, "metadata.json")) as fh:
            ops.check(json.load(fh)["links"] == links, "metadata.json links != scatter rows")
        with open(os.path.join(report, "precision_overall.csv"), newline="") as fh:
            overall = [(int(r["k"]), float(r["precision"])) for r in csv.DictReader(fh)]
        ops.check([k for k, _ in overall] == list(self.ks), f"precision_overall ks {overall}")
        precisions = [p for _, p in overall]
        ops.check(precisions == sorted(precisions), f"precision not non-decreasing in k: {overall}")
        pair_counts = Counter()
        with open(os.path.join(report, "precision_bins.csv"), newline="") as fh:
            for r in csv.DictReader(fh):
                pair_counts[int(r["k"])] += int(r["pair_count"])
        for k in self.ks:
            ops.check(pair_counts[k] == links, f"k={k}: bin pair_counts sum {pair_counts[k]} != {links} links")
        na = sum(1 for _, c in profiles if c == "alpha")
        nb = sum(1 for _, c in profiles if c == "beta")
        return na * nb + na * (na - 1) // 2 + nb * (nb - 1) // 2


# --- ingest-markup -----------------------------------------------------------------

MARKUP_COMMENTS = 40_000
MARKUP_AUTHORS = 3_000
MARKUP_BAD_LINES = 400
MARKUP_COMMUNITIES = tuple(f"c{i:02d}" for i in range(12))

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "shi", "po", "an", "el", "or", "ud",
              "ve", "zi", "gra", "ton", "bel", "mar", "qui", "dex")
_STOPWORDS = ("the", "and", "is", "of", "to", "it", "that", "was", "for", "you", "this", "but")
_DIACRITIC_WORDS = ("café", "naïve", "über", "señor", "crème", "brûlée", "façade", "résumé",
                    "jalapeño", "zoë", "cafe\u0301", "pin\u0303ata", "A\u030angstrom")
_SMILIES = (":)", ":-(", ";)", ":D", "<3", "xD", "(^_^)", "*-*", "o_o", ":-|", ":'(", "\\o/")
_RUNS = ("soooooo", "noooooo", "hahahahaha", "yessss", "wowww", "!!!!!!", "???", "zzzzzz")
_HOSTS = ("example.com", "news.example.org", "www.wiki-site.net", "video.host.io", "blog.réseau.fr")


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def _url(rng: random.Random) -> str:
    host = rng.choice(_HOSTS)
    scheme = rng.choice(("https://", "http://", "", "https://www."))
    if not scheme:
        host = "www." + host.removeprefix("www.")
    return f"{scheme}{host}/{_pseudo_word(rng)}?id={rng.randint(1, 999)}#top"


def _markup_body(rng: random.Random, vocab: list) -> str:
    """One comment body mixing prose with the markup the normalizer handles."""
    def words(n):
        out = []
        for _ in range(n):
            roll = rng.random()
            if roll < 0.25:
                out.append(rng.choice(_STOPWORDS))
            elif roll < 0.30:
                out.append(rng.choice(_DIACRITIC_WORDS))
            elif roll < 0.33:
                out.append(rng.choice(_SMILIES))
            elif roll < 0.35:
                out.append(rng.choice(_RUNS))
            else:
                out.append(rng.choice(vocab))
        if rng.random() < 0.3:
            out[0] = out[0].capitalize()
        return out

    parts = []
    if rng.random() < 0.08:
        parts.append(f"{'#' * rng.randint(1, 3)} {' '.join(words(4))}")
    line = words(rng.randint(8, 30))
    if rng.random() < 0.4:
        i = rng.randrange(len(line))
        mark = rng.choice(("**", "*", "_", "~~", "__"))
        line[i] = f"{mark}{line[i]}{mark}"
    if rng.random() < 0.2:
        line.insert(rng.randrange(len(line) + 1), f"[{' '.join(words(2))}]({_url(rng)})")
    if rng.random() < 0.25:
        line.insert(rng.randrange(len(line) + 1), _url(rng))
    if rng.random() < 0.12:
        line.insert(rng.randrange(len(line) + 1), f"`{_pseudo_word(rng)}()`")
    if rng.random() < 0.15:
        line.append(rng.choice(_SMILIES) + rng.choice(("!", "...", "?!", ".")))
    parts.append(" ".join(line))
    if rng.random() < 0.12:
        parts.insert(0, "> " + " ".join(words(rng.randint(5, 12))))
    if rng.random() < 0.06:
        parts.append("```\n" + f"{_pseudo_word(rng)} = {rng.randint(0, 99)}\nprint(x)\n" + "```")
    if rng.random() < 0.08:
        parts.append("\n".join(f"- {' '.join(words(3))}" for _ in range(rng.randint(2, 4))))
    if rng.random() < 0.03:
        parts.append("| a | b |\n|---|---|\n| " + " | ".join(words(2)) + " |")
    return "\n\n".join(parts)


def _bad_line(rng: random.Random, good: str, kind: int) -> str:
    """A line `ingest --lenient` must skip; one of five kinds of defect."""
    if kind == 0:
        return good[: len(good) // 2]  # truncated object: invalid JSON
    if kind == 1:
        return rng.choice(('[1, 2, 3]', '"just a string"', "42", "null"))
    rec = json.loads(good)
    if kind == 2:
        del rec[rng.choice(("author", "community", "body"))]
    elif kind == 3:
        rec["created_at"] = rng.choice(("yesterday", "12:30", "soon"))
    else:
        rec["author"] = ""
    return json.dumps(rec, sort_keys=True, ensure_ascii=False)


def markup_lines(seed: int) -> list:
    """The ingest-markup input: MARKUP_COMMENTS good lines, MARKUP_BAD_LINES bad ones."""
    rng = random.Random(seed)
    shared = [_pseudo_word(rng) for _ in range(3000)]
    local = {c: [_pseudo_word(rng) + c[-2:] for _ in range(400)] for c in MARKUP_COMMUNITIES}
    authors = []
    for a in range(MARKUP_AUTHORS):
        homes = rng.sample(MARKUP_COMMUNITIES, rng.choice((1, 1, 2, 2, 3)))
        authors.append((f"user{a}_{_pseudo_word(rng)}", homes))
    # author activity is heavy-tailed: a few write much, most write little
    weights = [1.0 / (rank + 1) ** 0.7 for rank in range(MARKUP_AUTHORS)]
    chosen = rng.choices(range(MARKUP_AUTHORS), weights=weights, k=MARKUP_COMMENTS)
    good = []
    stamp = 1_400_000_000
    for a in chosen:
        author, homes = authors[a]
        community = rng.choice(homes)
        vocab = local[community] if rng.random() < 0.4 else shared
        stamp += rng.randint(1, 90)
        rec = {"author": author, "community": community, "body": _markup_body(rng, vocab),
               "created_at": stamp}
        good.append(json.dumps(rec, sort_keys=True, ensure_ascii=False))
    lines = list(good)
    bad_at = sorted(rng.sample(range(len(good) + MARKUP_BAD_LINES), MARKUP_BAD_LINES))
    for n, pos in enumerate(bad_at):
        lines.insert(pos, _bad_line(rng, rng.choice(good), n % 5))
    return lines


class IngestMarkup:
    """`ingest --lenient` with thresholds, then `build-models` and `top-unigrams`."""

    name = "ingest-markup"
    work_unit = "comments"
    uses_workers = False
    outputs = ("ingest/profiles.jsonl", "models/models.jsonl")
    community = "c00"

    def generate(self, lr, seed: int, inputs: str) -> None:
        with open(os.path.join(inputs, "comments.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(markup_lines(seed)) + "\n")

    def iterate(self, cli: Cli, state: dict, inputs: str, out: str, workers: int) -> Iteration:
        it = Iteration()
        models = os.path.join(out, "models", "models.jsonl")
        it.run(cli, "ingest", "--input", os.path.join(inputs, "comments.jsonl"),
               "--min-comments", 3, "--min-profiles", 50, "--lenient", "--out", os.path.join(out, "ingest"))
        it.run(cli, "build-models", "--profiles", os.path.join(out, "ingest", "profiles.jsonl"),
               "--out", os.path.join(out, "models"))
        it.stdout["community"] = it.run(cli, "top-unigrams", "--models", models,
                                        "--key", self.community, "-k", 20)
        it.stdout["global"] = it.run(cli, "top-unigrams", "--models", models,
                                     "--kind", "global", "-k", 20)
        return it

    def check(self, ops: Ops, state: dict, out: str, it: Iteration) -> int:
        """Check the ingest counts and top unigrams; return the comments read."""
        with open(os.path.join(out, "ingest", "manifest.json")) as fh:
            manifest = json.load(fh)
        skipped = manifest["outputs"]["lines_skipped"]
        read = manifest["outputs"]["comments_read"]
        ops.check(skipped == MARKUP_BAD_LINES, f"lines_skipped {skipped} != {MARKUP_BAD_LINES} injected")
        ops.check(read == MARKUP_COMMENTS, f"comments_read {read} != {MARKUP_COMMENTS}")
        profiles = read_profile_counts(os.path.join(out, "ingest", "profiles.jsonl"))
        ops.check(len({c for _, c in profiles}) == len(MARKUP_COMMUNITIES), "a community was dropped")
        community, overall = Counter(), Counter()
        for (_, comm), counts in profiles.items():
            overall.update(counts)
            if comm == self.community:
                community.update(counts)
        ops.check(it.stdout["community"] == top_tokens(community, 20), "top-unigrams community mismatch")
        ops.check(it.stdout["global"] == top_tokens(overall, 20), "top-unigrams global mismatch")
        return read


# --- audit-bigvocab ----------------------------------------------------------------


class AuditBigvocab:
    """`ingest`, `build-models`, `distances`, then 1000 `anonymity --matrix` and a few `bound`."""

    name = "audit-bigvocab"
    work_unit = "pairs"
    uses_workers = True
    outputs = ("ingest/profiles.jsonl", "models/models.jsonl", "matrix/alpha.dmat")
    queries = 1000
    bounds = 5
    dmat_samples = 300

    def generate(self, lr, seed: int, inputs: str) -> None:
        corp = lr.evaluation.synth_corpus(n_users=400, topics=40, comments_per_user=240,
                                          rng_seed=seed, topic_words=2500, idio_words=50)
        with open(os.path.join(inputs, "alpha.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(lr.evaluation.comments_to_jsonl(corp.comments_a))

    def _plan(self, seed: int, dmat: str) -> dict:
        """Query and bound arguments, drawn from the seed and the written matrix.

        Half the radii are uniform between the 1st and 99th percentile of the
        matrix entries; the other half equal an entry of the subject's row,
        which is how `eval` picks them.
        """
        keys, values, _ = read_dmat(dmat)
        rng = random.Random(seed * 7919 + 17)
        off = values[np.triu_indices(len(keys), k=1)]
        lo, hi = (float(x) for x in np.quantile(off, [0.01, 0.99]))
        queries = []
        for q in range(self.queries):
            i = rng.randrange(len(keys))
            if q % 2:
                j = rng.choice([j for j in range(len(keys)) if j != i])
                d = float(values[i, j])
            else:
                d = rng.uniform(lo, hi)
            queries.append((keys[i], d, 10 if q % 4 == 3 else None))
        bounds = [(rng.uniform(lo, hi), rng.uniform(0.0, lo), rng.randint(1, 50))
                  for _ in range(self.bounds)]
        return {"queries": queries, "bounds": bounds}

    def iterate(self, cli: Cli, state: dict, inputs: str, out: str, workers: int) -> Iteration:
        it = Iteration()
        models = os.path.join(out, "models", "models.jsonl")
        dmat = os.path.join(out, "matrix", "alpha.dmat")
        it.run(cli, "ingest", "--input", os.path.join(inputs, "alpha.jsonl"),
               "--min-comments", 1, "--min-profiles", 1, "--out", os.path.join(out, "ingest"))
        it.run(cli, "build-models", "--profiles", os.path.join(out, "ingest", "profiles.jsonl"),
               "--out", os.path.join(out, "models"))
        it.run(cli, "distances", "--models", models, "--community", "alpha",
               "--workers", workers, "--out", os.path.join(out, "matrix"))
        if "plan" not in state:
            state["plan"] = self._plan(state["seed"], dmat)
        answers = []
        for subject, d, k in state["plan"]["queries"]:
            argv = ["anonymity", "--matrix", dmat, "--subject", subject, "--d", repr(d)]
            if k is not None:
                argv += ["--k", k]
            text, seconds = cli(*argv)
            it.wall_s += seconds
            it.latencies_ms.append(seconds * 1e3)
            answers.append(text)
        it.stdout["anonymity"] = "".join(answers)
        it.stdout["bound"] = "".join(
            it.run(cli, "bound", "--c", repr(c), "--d", repr(d), "--k", k)
            for c, d, k in state["plan"]["bounds"])
        return it

    def check(self, ops: Ops, state: dict, out: str, it: Iteration) -> int:
        """Check sampled matrix entries, every query and every bound; return the pairs."""
        keys, values, dtype = read_dmat(os.path.join(out, "matrix", "alpha.dmat"))
        profiles = read_profile_counts(os.path.join(out, "ingest", "profiles.jsonl"))
        rng = random.Random(state["seed"] * 104729 + 3)
        eps = float(np.finfo(dtype).eps)
        for _ in range(self.dmat_samples):
            i, j = rng.sample(range(len(keys)), 2)
            ref = reference_distance(profiles[(keys[i], "alpha")], profiles[(keys[j], "alpha")])
            ops.check(abs(values[i, j] - ref) <= eps * ref + 1e-12,
                      f"dmat[{keys[i]},{keys[j]}] = {values[i, j]!r} vs reference {ref!r}")
        index = {key: n for n, key in enumerate(keys)}
        answers = it.stdout["anonymity"].splitlines()
        ops.check(len(answers) == self.queries, f"{len(answers)} anonymity answers")
        for (subject, d, k), text in zip(state["plan"]["queries"], answers):
            got = json.loads(text)
            row = values[index[subject]]
            members = [keys[j] for j in np.flatnonzero(row <= d)]
            ok = got["members"] == members and got["k"] == len(members)
            if k is not None:
                ok = ok and got["kd_anonymous"] == (len(members) >= k)
            ops.check(ok, f"anonymity {subject} d={d!r}: k={got['k']}, expected {len(members)}")
        bounds = it.stdout["bound"].splitlines()
        ops.check(len(bounds) == self.bounds, f"{len(bounds)} bound answers")
        for (c, d, k), text in zip(state["plan"]["bounds"], bounds):
            t = 1.0 - c / (c + (k - 1) * (c + d))
            ops.check(text == f"t = {t:.6f}", f"bound c={c!r} d={d!r} k={k}: {text!r}")
        n = len(keys)
        return n * (n - 1) // 2

    def boundary_disagreements(self, lr, state: dict, out: str, it: Iteration) -> int:
        """Queries whose k differs between the loaded `.dmat` and a float64 in-memory build."""
        profiles, _, _ = lr.lm.load_models(os.path.join(out, "models", "models.jsonl"))
        selected = {author: m for (author, comm), m in profiles.items() if comm == "alpha"}
        matrix = lr.anonymity.DistanceMatrix.build(selected, workers=2)
        disagree = 0
        for (subject, d, _), text in zip(state["plan"]["queries"], it.stdout["anonymity"].splitlines()):
            k64 = int(np.count_nonzero(matrix.values[matrix.index_of(subject)] <= d))
            disagree += int(json.loads(text)["k"] != k64)
        return disagree


WORKLOADS = {w.name: w for w in (EvalSynth500(), IngestMarkup(), AuditBigvocab())}
