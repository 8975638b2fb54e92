"""Every file-reading command fails cleanly on a mutated input.

The inputs of a 12-user pipeline (the comments, `profiles.jsonl`,
`models.jsonl`, `alpha.dmat`, a `--config` file, a word list and a
`framework run` scenario) are mutated
one to three times: byte flips, truncation, cut spans, inserted fragments,
and shuffled or duplicated lines.  The mutated file goes through
`cli.dispatch` in every command form that reads it, the config file through
all of them.  Each run exits 0, or exits 1 with exactly one stderr line,
starting `error: `; no exception escapes.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkrisk import cli
from test_cli import _FULL_SCENARIO  # every optional field: a prior object, a perturbation, a table kappa, a seed

_FRAGMENTS = [b"1e400", b"null", b"-1", b'"x"', b"\xef\xbb\xbf", b"\xff",
              b"[", b"]", b"{", b"}", b"[[[[", b"\n", b"\r\n"]
_CONFIG = "# every key a command here reads that its flags leave unset\n" \
          "min-comments=1\nmin-profiles=1\nk=3\nworkers=1\nexclude-community=gamma\n"
_WORDS = "the\nand\n:)\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Paths of the intact inputs, keyed by input name."""
    work = tmp_path_factory.mktemp("pipeline")
    assert _run(["synth", "--users", 12, "--topics", 2, "--comments", 8, "--seed", 7, "--out", work])[0] == 0
    comments = work / "comments.jsonl"
    comments.write_bytes((work / "alpha.jsonl").read_bytes() + (work / "beta.jsonl").read_bytes())
    (work / "opts.conf").write_text(_CONFIG, encoding="utf-8")
    (work / "words.txt").write_text(_WORDS, encoding="utf-8")
    (work / "scenario.json").write_text(json.dumps(_FULL_SCENARIO, indent=2), encoding="utf-8")
    steps = [["ingest", "--input", comments, "--min-comments", 1, "--min-profiles", 1, "--out", work],
             ["build-models", "--profiles", work / "profiles.jsonl", "--out", work],
             ["distances", "--models", work / "models.jsonl", "--community", "alpha", "--out", work]]
    assert [_run(argv)[0] for argv in steps] == [0, 0, 0]
    paths = {"comments": comments, "profiles": work / "profiles.jsonl", "models": work / "models.jsonl",
             "dmat": work / "alpha.dmat", "config": work / "opts.conf", "words": work / "words.txt",
             "scenario": work / "scenario.json"}
    assert [_run(argv) for _, argv in _forms(paths, work / "intact")] == [(0, "")] * 9
    return paths


def _forms(paths, out):
    """Each command form, with the names of the inputs it reads."""
    ingest = ["ingest", "--input", paths["comments"], "--config", paths["config"], "--out", out / "ingest"]
    query = ["--subject", "u0", "--d", "0.5", "--config", paths["config"]]
    return [
        ({"comments", "words", "config"}, ingest + ["--stopwords", paths["words"]]),
        ({"comments", "words", "config"}, ingest + ["--smilies", paths["words"], "--lenient"]),
        ({"profiles", "config"}, ["build-models", "--profiles", paths["profiles"], "--config", paths["config"],
                                  "--out", out / "models"]),
        ({"profiles", "config"}, ["eval", "--profiles", paths["profiles"], "--community-a", "alpha",
                                  "--community-b", "beta", "--config", paths["config"], "--out", out / "report"]),
        ({"models", "config"}, ["top-unigrams", "--models", paths["models"], "--key", "alpha",
                                "--config", paths["config"]]),
        ({"models", "config"}, ["distances", "--models", paths["models"], "--community", "alpha",
                                "--config", paths["config"], "--out", out / "matrix"]),
        ({"models", "config"}, ["anonymity", "--models", paths["models"], "--community", "alpha", *query]),
        ({"dmat", "config"}, ["anonymity", "--matrix", paths["dmat"], *query]),
        ({"scenario", "config"}, ["framework", "--config", paths["config"], "run", paths["scenario"]]),
    ]


_AT = st.integers(0, 1 << 20)  # a position, taken modulo the file's length
_MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("flip"), _AT, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _AT, st.none()),
    st.tuples(st.just("cut"), _AT, st.integers(1, 64)),
    st.tuples(st.just("insert"), _AT, st.sampled_from(_FRAGMENTS)),
    st.tuples(st.just("shuffle"), _AT, st.integers(0, 2 ** 32 - 1)),
    st.tuples(st.just("duplicate"), _AT, st.none()),
), min_size=1, max_size=3)


def _mutate(data: bytes, kind: str, at: int, arg) -> bytes:
    at %= len(data) + 1
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ arg]) + data[at + 1:] if at < len(data) else data
    if kind == "truncate":
        return data[:at]
    if kind == "cut":
        return data[:at] + data[at + arg:]
    if kind == "insert":
        return data[:at] + arg + data[at:]
    lines = data.splitlines(keepends=True)
    if kind == "shuffle":
        random.Random(arg).shuffle(lines)
    elif lines:  # duplicate one line in place
        lines.insert(at % len(lines), lines[at % len(lines)])
    return b"".join(lines)


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(["comments", "profiles", "models", "dmat", "config", "words", "scenario"]),
       mutations=_MUTATIONS)
@example(name="scenario", mutations=[("insert", 0, b"\xef\xbb\xbf")])
def test_a_mutated_input_exits_zero_or_with_one_error_line(pipeline, name, mutations):
    data = pipeline[name].read_bytes()
    for mutation in mutations:
        data = _mutate(data, *mutation)
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / pipeline[name].name
        mutated.write_bytes(data)
        for reads, argv in _forms({**pipeline, name: mutated}, Path(tmp)):
            if name in reads:
                code, err = _run(argv)
                assert code in (0, 1), argv
                if code == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
