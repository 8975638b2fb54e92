import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkrisk import cli, corpus, lm

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_prints_t(capsys):
    assert run(capsys, "bound", "--c", "0.2", "--d", "0.1", "--k", "5") == (0, "t = 0.857143\n", "")


def test_bound_k_one_is_zero(capsys):
    code, out, _ = run(capsys, "bound", "--c", "0.4", "--d", "0.2", "--k", "1")
    assert code == 0
    assert "t = 0.000000" in out


def test_bound_k_too_large_for_a_float_prints_the_limit(capsys):
    assert run(capsys, "bound", "--c", "0.5", "--d", "0.1", "--k", "9" * 400) == (0, "t = 1.000000\n", "")


def test_bound_zero_c_is_runtime_error(capsys):
    code, _, err = run(capsys, "bound", "--c", "0", "--d", "0.1", "--k", "5")
    assert code == 1
    assert "zero matching distance" in err


@pytest.mark.parametrize("c, d, message", [
    ("nan", "0.1", "c must be in (0, 1]"),
    ("2", "0.1", "c must be in (0, 1]"),
    ("0.2", "nan", "d must be in [0, 1]"),
    ("0.2", "5", "d must be in [0, 1]"),
    ("0.2", "-0.1", "d must be in [0, 1]"),
])
def test_bound_outside_the_distance_range_exits_one(capsys, c, d, message):
    code, out, err = run(capsys, "bound", "--c", c, "--d", d, "--k", "5")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "linkrisk" in out


def test_unknown_command_exits_two(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_no_command_exits_two(capsys):
    assert run(capsys) == (2, "", "usage: linkrisk [-h] COMMAND ...\n")


def test_missing_input_file_exits_one(capsys):
    code, _, err = run(
        capsys, "ingest", "--input", "/nonexistent/path.jsonl", "--out", "/tmp/x-linkrisk-test"
    )
    assert code == 1
    assert "/nonexistent/path.jsonl" in err


def test_framework_impossibility(capsys):
    assert run(capsys, "framework", "impossibility") == (0, (
        "universe: alias=x vs alias=x_star, uniform prior, no world knowledge\n"
        "publication reveals alias unperturbed\n"
        "posterior after observing alias=x: {'model_original': 1.0, 'model_swapped': 0.0}\n"
        "posterior after observing alias=x_star: {'model_original': 0.0, 'model_swapped': 1.0}\n"
        "total variation distance: 1.0\n"
        "SD = 1.0\n"
    ), "")


def test_framework_without_action_exits_two(capsys):
    code, out, err = run(capsys, "framework")
    assert (code, out) == (2, "")
    assert err.startswith("usage: linkrisk framework [-h] ") and err.rstrip().endswith("ACTION ...")
    assert err.count("usage:") == 1 and "error" not in err


def test_framework_without_action_reads_no_config(capsys):
    code, out, err = run(capsys, "framework", "--config", "/nonexistent/x.conf")
    assert (code, out, err) == run(capsys, "framework")
    assert "x.conf" not in err


def test_framework_unknown_action_exits_two(capsys):
    code, out, err = run(capsys, "framework", "nope")
    assert (code, out) == (2, "")
    assert "argument ACTION: invalid choice: 'nope'" in err


def test_framework_reads_its_options_before_the_action(capsys):
    code, out, err = run(capsys, "framework", "--config", "/nonexistent/linkrisk.conf", "impossibility")
    assert (code, out) == (1, "")
    assert "/nonexistent/linkrisk.conf" in err


@pytest.mark.parametrize("option", [("--config", "/nonexistent/linkrisk.conf"), ("--workers", "2")])
def test_framework_option_after_the_action_is_a_usage_error(capsys, option):
    code, out, err = run(capsys, "framework", "impossibility", *option)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(option)}" in err


def test_framework_run_scenario(tmp_path, capsys):
    scenario = {
        "attributes": ["job"],
        "models": {"m1": {"job": "dev"}, "m2": {"job": "teacher"}},
        "profiles": {"P1": {"true_model": "m1", "publish": {"reveal": ["job"]}}},
        "policy": {"sigma": 0.5, "requirements": [{"profile": "P1", "forbid": {"job": "dev"}}]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, _ = run(capsys, "framework", "run", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["policy_satisfied"] is False  # job=dev fully exposed


def test_framework_run_prints_the_whole_report(tmp_path, capsys):
    scenario = {
        "attributes": ["job", "city", "age"],
        "models": {"m1": {"job": "dev", "city": "paris", "age": "30"},
                   "m2": {"job": "dev", "city": "rome", "age": "40"},
                   "m3": {"job": "teacher", "city": "paris", "age": "30"},
                   "m4": {"job": "teacher", "city": "rome", "age": None}},
        "profiles": {
            "P1": {"true_model": "m1", "prior": {"m1": 0.25, "m2": 0.25, "m3": 0.25, "m4": 0.25},
                   "publish": {"reveal": ["job", "city"], "perturb": {"city": ["rome", "paris"]}}},
            "P2": {"true_model": "m3", "prior": {"m1": 0.1, "m2": 0.1, "m3": 0.2, "m4": 0.6},
                   "publish": {"reveal": ["job"]}},
        },
        "policy": {"sigma": 0.6, "requirements": [{"profile": "P1", "forbid": {"job": "dev"}},
                                                  {"profile": "P2", "forbid": {"city": "paris"}}]},
        "seed": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    # seed 1 perturbs P1's city to rome; P2's posterior keeps its summation order
    assert run(capsys, "framework", "run", str(path)) == (0, """{
  "observation": {
    "P1": {
      "city": "rome",
      "job": "dev"
    },
    "P2": {
      "job": "teacher"
    }
  },
  "policy_satisfied": false,
  "posteriors": {
    "P1": {
      "m1": 0.0,
      "m2": 1.0,
      "m3": 0.0,
      "m4": 0.0
    },
    "P2": {
      "m1": 0.0,
      "m2": 0.0,
      "m3": 0.25,
      "m4": 0.7499999999999999
    }
  },
  "requirements": [
    {
      "forbid": {
        "job": "dev"
      },
      "profile": "P1",
      "satisfied": false
    },
    {
      "forbid": {
        "city": "paris"
      },
      "profile": "P2",
      "satisfied": true
    }
  ],
  "sigma": 0.6
}
""", "")


def _readme_block(heading, fence):
    """The body of the first ```<fence> block of README.md after `heading`."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    after = text[text.index(heading):]
    start = after.index(f"```{fence}\n") + len(f"```{fence}\n")
    return after[start:after.index("```", start)]


def test_readme_cli_block_runs_with_the_readme_scenario(tmp_path, capsys, monkeypatch):
    (tmp_path / "scenario.json").write_text(_readme_block("**Scenario files (framework)**", "json"),
                                            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line.strip() for line in _readme_block("## CLI", "").replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert commands[-1] == ["linkrisk", "framework", "run", "scenario.json"]
    for argv in commands:
        if argv[0] == "cat":  # cat A B > C
            *sources, redirect, target = argv[1:]
            assert redirect == ">"
            Path(target).write_bytes(b"".join(Path(source).read_bytes() for source in sources))
            continue
        assert argv[0] == "linkrisk"
        code, _, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv


def test_full_pipeline(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    work = tmp_path / "work"
    report = tmp_path / "report"

    code, _, _ = run(
        capsys, "synth", "--users", "12", "--topics", "3", "--comments", "16",
        "--seed", "3", "--out", str(corpus_dir),
    )
    assert code == 0
    assert (corpus_dir / "alpha.jsonl").exists()
    assert (corpus_dir / "links.csv").exists()
    assert json.loads((corpus_dir / "manifest.json").read_text())["command"] == "synth"

    combined = tmp_path / "all.jsonl"
    blob = (corpus_dir / "alpha.jsonl").read_text() + (corpus_dir / "beta.jsonl").read_text()
    combined.write_text(blob, encoding="utf-8")

    code, _, _ = run(
        capsys, "ingest", "--input", str(combined), "--min-comments", "1",
        "--min-profiles", "1", "--out", str(work),
    )
    assert code == 0
    manifest = json.loads((work / "manifest.json").read_text())
    assert manifest["outputs"]["profiles_kept"] == 24
    assert "stopwords_sha256" in manifest["inputs"]

    code, _, _ = run(capsys, "build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work))
    assert code == 0

    code, out, _ = run(
        capsys, "top-unigrams", "--models", str(work / "models.jsonl"),
        "--key", "alpha", "-k", "3",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3

    code, _, _ = run(
        capsys, "distances", "--models", str(work / "models.jsonl"),
        "--community", "alpha", "--out", str(work),
    )
    assert code == 0
    assert (work / "alpha.dmat").exists()

    code, out, _ = run(
        capsys, "anonymity", "--matrix", str(work / "alpha.dmat"),
        "--subject", "u0", "--d", "0.8", "--k", "2",
    )
    assert code == 0
    result = json.loads(out)
    assert result["subject"] == "u0"
    assert result["k"] >= 1
    assert "kd_anonymous" in result

    code, out, _ = run(
        capsys, "eval", "--profiles", str(work / "profiles.jsonl"),
        "--community-a", "alpha", "--community-b", "beta",
        "--k", "1,5", "--out", str(report), "--workers", "2",
    )
    assert code == 0
    assert "precision@1" in out
    for name in ("stats.csv", "scatter.csv", "precision_overall.csv", "precision_bins.csv",
                 "metadata.json", "manifest.json"):
        assert (report / name).exists()


def test_dispatch_writes_each_manifest_and_only_distance_commands_take_workers(tmp_path, capsys):
    synth, ingest = tmp_path / "synth", tmp_path / "ingest"
    steps = [
        ("synth", "--users", "6", "--topics", "2", "--comments", "8", "--seed", "2", "--out", str(synth)),
        ("ingest", "--input", str(tmp_path / "all.jsonl"), "--min-comments", "1", "--min-profiles", "1",
         "--out", str(ingest)),
        ("build-models", "--profiles", str(ingest / "profiles.jsonl"),
         "--out", str(tmp_path / "build-models")),
        ("distances", "--models", str(tmp_path / "build-models" / "models.jsonl"), "--community", "alpha",
         "--out", str(tmp_path / "distances")),
        ("eval", "--profiles", str(ingest / "profiles.jsonl"), "--community-a", "alpha",
         "--community-b", "beta", "--k", "1", "--out", str(tmp_path / "eval")),
    ]
    for argv in steps:
        assert run(capsys, *argv)[0] == 0
        if argv[0] == "synth":
            (tmp_path / "all.jsonl").write_bytes((synth / "alpha.jsonl").read_bytes()
                                                 + (synth / "beta.jsonl").read_bytes())
    assert sorted(p.parent.name for p in tmp_path.rglob("manifest.json")) == sorted(a[0] for a in steps)
    for argv in steps:
        manifest = json.loads((tmp_path / argv[0] / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest) == {"command", "inputs", "params", "outputs"}
        assert manifest["command"] == argv[0]
    _, subs = cli.build_parser()
    takes = {name for name, sub in subs.items() if "--workers" in sub.format_help()}
    assert takes == {"distances", "eval"}
    for argv in [("ingest", "--input", "in.jsonl", "--out", "out"),
                 ("build-models", "--profiles", "p", "--out", "o"), ("top-unigrams", "--models", "m"),
                 ("anonymity", "--matrix", "m.dmat", "--subject", "u0", "--d", "0.5"),
                 ("bound", "--c", "0.2", "--d", "0.1", "--k", "5"),
                 ("synth", "--users", "3", "--topics", "2", "--out", "o"), ("framework", "impossibility")]:
        code, out, err = run(capsys, argv[0], "--workers=1", *argv[1:])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --workers=1\n")


def test_anonymity_from_models(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    work = tmp_path / "w"
    run(capsys, "synth", "--users", "6", "--topics", "2", "--comments", "8", "--seed", "2",
        "--out", str(corpus_dir))
    combined = tmp_path / "all.jsonl"
    combined.write_text(
        (corpus_dir / "alpha.jsonl").read_text() + (corpus_dir / "beta.jsonl").read_text(),
        encoding="utf-8",
    )
    run(capsys, "ingest", "--input", str(combined), "--min-comments", "1", "--min-profiles", "1",
        "--out", str(work))
    run(capsys, "build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work))
    assert run(
        capsys, "anonymity", "--models", str(work / "models.jsonl"), "--community", "alpha",
        "--subject", "u1", "--d", "1.0",
    ) == (0, '{"d": 1.0, "k": 6, "members": ["u0", "u1", "u2", "u3", "u4", "u5"], "subject": "u1"}\n', "")


def test_anonymity_requires_source(capsys):
    code, _, err = run(capsys, "anonymity", "--subject", "u1", "--d", "0.5")
    assert code == 1
    assert "matrix" in err


def test_top_unigrams_unknown_community(tmp_path, capsys):
    path = tmp_path / "models.jsonl"
    path.write_text('{"kind":"profile","key":["u0","alpha"],"counts":{"a":1}}\n', encoding="utf-8")
    code, _, err = run(capsys, "top-unigrams", "--models", str(path), "--key", "nope")
    assert code == 1
    assert "unknown community" in err


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "opts.conf"
    cfg.write_text("c=0.2\nd=0.1\nk=5\n", encoding="utf-8")
    # config supplies d and k; explicit flags supply c (and win over config)
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--c", "1.0", "--d", "1.0", "--k", "2")
    assert code == 0
    assert "t = 0.666667" in out


def test_config_file_fills_missing_required(tmp_path, capsys):
    # required=True args must still come from the command line; config only
    # overrides optional defaults, so give the requireds and tune k via file
    cfg = tmp_path / "opts.conf"
    cfg.write_text("workers=1\n", encoding="utf-8")
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--c", "0.2", "--d", "0.1", "--k", "5")
    assert code == 0
    assert "t = 0.857143" in out


def _ingest_with_config(tmp_path, capsys, config_text, *flags):
    src = tmp_path / "in.jsonl"
    lines = [json.dumps({"author": author, "community": community, "body": "hello world"})
             for author, community in (("u0", "abc"), ("u0", "xyz"), ("u1", "xyz"))]
    src.write_text("\n".join(lines + ["broken"]) + "\n", encoding="utf-8")
    cfg = tmp_path / "opts.conf"
    cfg.write_text(config_text, encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--input", str(src), "--config", str(cfg),
                       "--min-profiles", "1", "--out", str(tmp_path / "out"), *flags)
    if code != 0:
        return code, err, None
    return code, err, json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))


def test_config_loses_to_an_explicit_flag_equal_to_its_default(tmp_path, capsys):
    code, _, manifest = _ingest_with_config(tmp_path, capsys, "min-comments=5\nlenient=true\n",
                                            "--min-comments", "100")
    assert code == 0
    assert manifest["params"]["min_comments"] == 100
    assert manifest["outputs"]["profiles_kept"] == 0


@pytest.mark.parametrize("value, expected", [("true", 0), ("false", 1), ("False", 1), ("yes", 1)])
def test_config_flag_takes_true_or_false(tmp_path, capsys, value, expected):
    code, err, manifest = _ingest_with_config(tmp_path, capsys, f"min-comments=1\nlenient={value}\n")
    assert code == expected
    if value == "true":
        assert manifest["params"]["lenient"] is True
        assert manifest["outputs"]["lines_skipped"] == 1
    elif value == "false":
        assert err.startswith("error: line 4: ") and err.count("\n") == 1
    else:
        assert err == f"error: config key 'lenient' is a flag: expected true or false, got {value!r}\n"


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path, capsys):
    code, _, manifest = _ingest_with_config(tmp_path, capsys, "\ufeffmin-comments=1\nlenient=true\n")
    assert code == 0
    assert manifest["params"]["min_comments"] == 1
    assert manifest["outputs"]["profiles_kept"] == 3


def test_scenario_with_a_byte_order_mark_reports_like_the_plain_file(tmp_path, capsys):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(_FULL_SCENARIO), encoding="utf-8")
    marked.write_text("\ufeff" + json.dumps(_FULL_SCENARIO), encoding="utf-8")
    code, report, err = run(capsys, "framework", "run", str(plain))
    assert (code, err) == (0, "")
    assert run(capsys, "framework", "run", str(marked)) == (0, report, "")


def test_truncated_scenario_names_the_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"attributes": [', encoding="utf-8")
    code, out, err = run(capsys, "framework", "run", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", ["--stopwords", "--smilies"])
def test_word_list_with_a_byte_order_mark_keeps_its_first_entry(tmp_path, capsys, option):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"author": "u0", "community": "a", "body": "hello world"}) + "\n",
                   encoding="utf-8")
    words = tmp_path / "words.txt"
    words.write_text("\ufeffhello\n", encoding="utf-8")
    code, _, _ = run(capsys, "ingest", "--input", str(src), option, str(words), "--min-comments", "1",
                     "--min-profiles", "1", "--out", str(tmp_path / "out"))
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"][option[2:] + "_sha256"] == corpus.wordlist_hash({"hello"})
    if option == "--stopwords":
        profile = json.loads((tmp_path / "out" / "profiles.jsonl").read_text(encoding="utf-8"))
        assert profile["tokens"] == ["world"]


def test_config_gives_a_repeatable_option_one_value(tmp_path, capsys):
    code, _, manifest = _ingest_with_config(tmp_path, capsys,
                                            "min-comments=1\nlenient=true\nexclude-community=abc\n")
    assert code == 0
    assert manifest["params"]["exclude_community"] == ["abc"]
    assert manifest["outputs"]["profiles_kept"] == 2


def test_synth_invalid_sizes_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--users", "1", "--topics", "3", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "n_users" in err
    code, out, err = run(capsys, "synth", "--users", "3", "--topics", "3", "--seed", "-1",
                         "--out", str(tmp_path / "y"))
    assert (code, out, err) == (1, "", "error: rng_seed must be >= 0\n")
    assert not (tmp_path / "y").exists()


def test_synth_files_are_pinned(tmp_path, capsys):
    code, out, _ = run(capsys, "synth", "--users", "12", "--topics", "3", "--comments", "16",
                       "--seed", "7", "--idiosyncrasy", "0.3", "--out", str(tmp_path))
    assert code == 0
    assert out == "wrote 129 comments for 12 users\n"
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("alpha.jsonl", "beta.jsonl", "links.csv")}
    assert digests == {
        "alpha.jsonl": "a9eb5415686b11c0f1aa2e6ea294e2002772cd2b7f4b6da16a4d75aa3b2b6722",
        "beta.jsonl": "9663d49625f18f466e387221081be27396336b67b5488787d727748c6620852a",
        "links.csv": "495783ff4da46ab96a8e8a3500e89a3e39244d00c8f95e216ee173cf9032fe9f",
    }


_PINNED_EVAL_STDOUT = "precision@1 = 0.4583\nprecision@3 = 0.6667\nfraction below diagonal = 0.9583\n"
_PINNED_EVAL_DIGESTS = {
    "stats.csv": "26894a6826f973f0fe1cf86706fa8c3b39fb959f3e98550fdc5dba61e1cdf908",
    "scatter.csv": "ab14fb123b1b39bbb5b56cb75560667bf885a4dbf2d2e9ed566a15643619b94a",
    "precision_overall.csv": "ed526052ff306b23bbb22f2ab20c5975129ddef7cabff6693e2069c5aafcb93b",
    "precision_bins.csv": "c1a545007ceac75141f2a1559dff1ca9fe35ec4ebe1e6843a31588dc75aade71",
    "metadata.json": "85b2258f1e25e91dafa7c12087aa4ad530e527bfd38238015b9efec0b3277b2a",
}


def _pinned_eval_run(tmp_path, run_cli):
    """`eval`'s stdout and file digests after the 24-user synth, ingest and eval.

    `run_cli(*argv)` runs one command and returns its exit code and stdout.
    """
    assert run_cli("synth", "--users", "24", "--topics", "3", "--comments", "16", "--seed", "7",
                   "--idiosyncrasy", "0.3", "--out", str(tmp_path))[0] == 0
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((tmp_path / "alpha.jsonl").read_bytes() + (tmp_path / "beta.jsonl").read_bytes())
    assert run_cli("ingest", "--input", str(corpus), "--min-comments", "1", "--min-profiles", "2",
                   "--out", str(tmp_path / "ingest"))[0] == 0
    code, out = run_cli("eval", "--profiles", str(tmp_path / "ingest" / "profiles.jsonl"),
                        "--community-a", "alpha", "--community-b", "beta", "--k", "1,3",
                        "--out", str(tmp_path / "report"))
    assert code == 0
    return out, {name: hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest()
                 for name in _PINNED_EVAL_DIGESTS}


def test_eval_files_are_pinned(tmp_path, capsys):
    assert _pinned_eval_run(tmp_path, lambda *argv: run(capsys, *argv)[:2]) == \
        (_PINNED_EVAL_STDOUT, _PINNED_EVAL_DIGESTS)


def test_eval_files_are_pinned_with_numpy_avx512_kernels_off(tmp_path):
    """The same bytes from numpy's AVX2 kernels, the path a CPU without AVX-512 takes.

    numpy picks its log kernels by CPU, and they can round differently, so
    "byte-identical" is promised per CPU class; this pipeline gives the same
    bytes in both classes.  The setting acts on the child process only; on a
    host without AVX-512 both runs take the same path.
    """
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run_cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "linkrisk.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    assert _pinned_eval_run(tmp_path, run_cli) == (_PINNED_EVAL_STDOUT, _PINNED_EVAL_DIGESTS)


_EVERY_COMMAND = """
import contextlib, io, json, os, sys
from linkrisk import cli
work = sys.argv[1]
models, dmat = os.path.join(work, "models.jsonl"), os.path.join(work, "alpha.dmat")
steps = [
    ["synth", "--users", "6", "--topics", "2", "--comments", "8", "--seed", "2", "--out", work],
    ["ingest", "--input", os.path.join(work, "all.jsonl"), "--min-comments", "1", "--min-profiles", "1",
     "--out", work],
    ["build-models", "--profiles", os.path.join(work, "profiles.jsonl"), "--out", work],
    ["top-unigrams", "--models", models, "--key", "alpha"],
    ["distances", "--models", models, "--community", "alpha", "--out", work],
    ["anonymity", "--matrix", dmat, "--subject", "u1", "--d", "0.5"],
    ["anonymity", "--models", models, "--community", "alpha", "--subject", "u1", "--d", "0.5"],
    ["bound", "--c", "0.2", "--d", "0.1", "--k", "5"],
    ["eval", "--profiles", os.path.join(work, "profiles.jsonl"), "--community-a", "alpha",
     "--community-b", "beta", "--k", "1", "--out", os.path.join(work, "report")],
    ["framework", "impossibility"],
]
codes = []
for argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.dispatch(argv))
    if argv[0] == "synth":
        with open(os.path.join(work, "all.jsonl"), "wb") as out:
            for name in ("alpha", "beta"):
                with open(os.path.join(work, name + ".jsonl"), "rb") as fh:
                    out.write(fh.read())
print(json.dumps({"codes": codes, "modules": sorted({name.partition(".")[0] for name in sys.modules})}))
"""


def test_every_command_runs_with_numpy_as_its_only_third_party_import(tmp_path):
    """pyproject declares numpy alone: no command may import a package only the tests install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * 10
    assert "numpy" in report["modules"]
    assert not {"scipy", "mpmath", "hypothesis", "pytest"} & set(report["modules"])


def test_top_unigrams_record_without_key_exits_one(tmp_path, capsys):
    path = tmp_path / "models.jsonl"
    path.write_text('{"kind":"profile","counts":{"a":1}}\n', encoding="utf-8")
    code, _, err = run(capsys, "top-unigrams", "--models", str(path), "--key", "c")
    assert code == 1
    assert err.startswith("error: line 1: ")
    assert err.count("\n") == 1


def test_eval_k_zero_exits_one(tmp_path, capsys):
    path = tmp_path / "profiles.jsonl"
    lines = [
        {"author": author, "community": community, "n_comments": 1, "tokens": tokens}
        for author, tokens in (("u0", ["x", "y"]), ("u1", ["y", "z"]))
        for community in ("alpha", "beta")
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, _, err = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "beta", "--k", "0", "--out", str(tmp_path / "report"),
    )
    assert code == 1
    assert err == "error: k must be >= 1\n"
    assert not (tmp_path / "report").exists()


def test_synth_links_csv_reads_back(tmp_path, capsys):
    import csv

    code, _, _ = run(capsys, "synth", "--users", "3", "--topics", "2", "--comments", "8",
                     "--out", str(tmp_path))
    assert code == 0
    raw = (tmp_path / "links.csv").read_bytes()
    assert raw == b"source,target,same_user\nu0,u0,1\nu1,u1,1\nu2,u2,1\n"
    with open(tmp_path / "links.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh))[1:] == [[f"u{i}", f"u{i}", "1"] for i in range(3)]


def test_shared_parser_gives_fresh_parser_results(tmp_path, capsys):
    models = tmp_path / "models.jsonl"
    models.write_text('{"kind":"profile","key":["u0","alpha"],"counts":{"a":3,"b":2,"c":1}}\n', encoding="utf-8")
    cfg = tmp_path / "opts.conf"
    cfg.write_text("k=1\n", encoding="utf-8")
    top = ("top-unigrams", "--models", str(models), "--kind", "global")
    sequence = [
        ("bound", "--c", "0.2", "--d", "oops", "--k", "5"),  # usage error
        top + ("--config", str(cfg)),
        ("bound", "-h"),
        top,  # the config value must not stick to the parser
        ("framework",),
        (),
    ]
    fresh = []
    for argv in sequence:
        cli._shared_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    shared = [run(capsys, *argv) for argv in sequence + sequence]
    assert shared == fresh + fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 2, 2]
    assert "invalid float value" in fresh[0][2]
    assert fresh[1][1] == "a\t3\n" and fresh[3][1] == "a\t3\nb\t2\nc\t1\n"
    assert "usage: linkrisk bound" in fresh[2][1]


@pytest.mark.parametrize("command", ["build-models", "eval"])
@pytest.mark.parametrize(
    "bad_line",
    ['{"author":"u1","tokens":["a"]}', '{"author":"u1","community":"alpha"}', '"u1"',
     '{"author":"u1","community":"alpha","n_comments":1,"tokens":["x",1]}',
     '{"author":"u1","community":"alpha","n_comments":2.9,"tokens":["x"]}',
     '{"author":"u0","community":"alpha","n_comments":1,"tokens":["y"]}'],
)
def test_malformed_profile_line_exits_one(tmp_path, capsys, command, bad_line):
    path = tmp_path / "profiles.jsonl"
    good = json.dumps({"author": "u0", "community": "alpha", "n_comments": 1, "tokens": ["x"]})
    path.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
    argv = [command, "--profiles", str(path), "--out", str(tmp_path / "out")]
    if command == "eval":
        argv += ["--community-a", "alpha", "--community-b", "beta"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: line 2: ")
    assert err.count("\n") == 1


def test_anonymity_matrix_and_models_agree_at_boundary_radii(tmp_path, capsys):
    from linkrisk import anonymity, lm

    corpus_dir = tmp_path / "c"
    work = tmp_path / "w"
    run(capsys, "synth", "--users", "7", "--topics", "2", "--comments", "10", "--seed", "5",
        "--out", str(corpus_dir))
    run(capsys, "ingest", "--input", str(corpus_dir / "alpha.jsonl"), "--min-comments", "1",
        "--min-profiles", "1", "--out", str(work))
    run(capsys, "build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work))
    # hand-built: identical profiles (distance exactly 0), disjoint supports
    # (exactly 1), and a community of one profile
    hand = tmp_path / "h"
    hand.mkdir()
    records = [("u0", "ties", ["a", "a", "b"]), ("u1", "ties", ["b", "a", "a"]), ("u2", "ties", ["x", "y"]),
               ("u3", "ties", ["a", "x"]), ("u4", "ties", ["z"]), ("u5", "ties", ["y", "x"]),
               ("u0", "solo", ["a"])]
    (hand / "profiles.jsonl").write_text("".join(
        json.dumps({"author": a, "community": c, "n_comments": 1, "tokens": t}) + "\n" for a, c, t in records
    ), encoding="utf-8")
    assert run(capsys, "build-models", "--profiles", str(hand / "profiles.jsonl"), "--out", str(hand))[0] == 0
    for store, community in ((work, "alpha"), (hand, "ties"), (hand, "solo")):
        models, matrix = str(store / "models.jsonl"), str(store / f"{community}.dmat")
        argv = ("distances", "--models", models, "--community", community, "--out", str(store))
        assert run(capsys, *argv)[0] == 0
        profiles, _, _ = lm.load_models(models)
        in_memory = anonymity.DistanceMatrix.build({a: m for (a, c), m in profiles.items() if c == community})
        assert np.array_equal(anonymity.DistanceMatrix.load(matrix).tri, in_memory.tri)
        for subject in in_memory.keys:
            row = in_memory.values[in_memory.index_of(subject)]
            for d in row:
                code, from_matrix, _ = run(capsys, "anonymity", "--matrix", matrix,
                                           "--subject", subject, "--d", repr(float(d)))
                assert code == 0
                _, from_models, _ = run(capsys, "anonymity", "--models", models,
                                        "--community", community, "--subject", subject,
                                        "--d", repr(float(d)))
                assert from_matrix == from_models
                brute = [key for key, x in zip(in_memory.keys, row) if x <= d]
                assert json.loads(from_matrix)["members"] == brute
                assert json.loads(from_matrix)["k"] == int(np.count_nonzero(row <= d))
    ties = anonymity.DistanceMatrix.load(hand / "ties.dmat")
    assert ties.distance("u0", "u1") == ties.distance("u2", "u5") == 0.0
    assert ties.distance("u0", "u2") == ties.distance("u3", "u4") == 1.0
    assert anonymity.DistanceMatrix.load(hand / "solo.dmat").keys == ["u0"]


def test_eval_neighborhood_sizes_equal_anonymity_on_the_saved_matrix(tmp_path, capsys):
    """`anonymity --matrix` on the saved `.dmat`, at each link's matching distance, gives eval's k."""
    from linkrisk import evaluation, lm

    corpus_dir, work = tmp_path / "c", tmp_path / "w"
    run(capsys, "synth", "--users", "12", "--topics", "3", "--comments", "12", "--seed", "8",
        "--out", str(corpus_dir))
    both = tmp_path / "both.jsonl"
    both.write_bytes((corpus_dir / "alpha.jsonl").read_bytes() + (corpus_dir / "beta.jsonl").read_bytes())
    steps = [
        ("ingest", "--input", str(both), "--min-comments", "1", "--min-profiles", "1", "--out", str(work)),
        ("build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work)),
        ("distances", "--models", str(work / "models.jsonl"), "--community", "alpha", "--out", str(work)),
        ("eval", "--profiles", str(work / "profiles.jsonl"), "--community-a", "alpha",
         "--community-b", "beta", "--out", str(work / "report")),
    ]
    assert [run(capsys, *argv)[0] for argv in steps] == [0, 0, 0, 0]

    profiles, _, _ = lm.load_models(work / "models.jsonl")
    side = {c: {a: m for (a, comm), m in profiles.items() if comm == c} for c in ("alpha", "beta")}
    result = evaluation.run_experiment(side["alpha"], side["beta"], ks=[1])
    expected = {(link.source, link.target): k for link, k in zip(result.links, result.anon_sizes)}
    with open(work / "report" / "scatter.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(expected) == 12
    for row in rows:
        code, out, _ = run(capsys, "anonymity", "--matrix", str(work / "alpha.dmat"),
                           "--subject", row["source"], "--d", row["matching_distance"])
        assert code == 0
        assert json.loads(out)["k"] == expected[(row["source"], row["target"])]


_WORDS = ["apple", "birch", "cedar", "delta", "ember", "fjord"]  # no stopwords, unchanged by normalization


@st.composite
def _two_communities(draw):
    """Token lists of 2-12 alpha and 2-12 beta profiles over a 4-6 word alphabet.

    beta's first two profiles hold the same tokens (distance exactly 0), and
    so does alpha's first, which ties both at the top of its ranking; alpha's
    first two share no token (distance 1, exactly so only for dyadic masses).
    """
    words = _WORDS[:draw(st.integers(4, 6))]
    half = len(words) // 2
    bag = st.lists(st.sampled_from(words), min_size=1, max_size=6)
    alpha = draw(st.lists(bag, min_size=2, max_size=12))
    beta = draw(st.lists(bag, min_size=2, max_size=12))
    alpha[0] = beta[0] = draw(st.lists(st.sampled_from(words[:half]), min_size=1, max_size=6))
    beta[1] = beta[0][::-1]
    alpha[1] = draw(st.lists(st.sampled_from(words[half:]), min_size=1, max_size=6))
    return alpha, beta


def _quiet_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(_two_communities())
@example(([["apple"] * 4 + ["birch", "cedar"], ["delta"] * 4 + ["ember", "fjord"]],
          [["apple"] * 4 + ["birch", "cedar"], ["cedar", "birch"] + ["apple"] * 4]))  # masses 4/6, 1/6, 1/6
def test_every_entry_point_agrees_on_generated_communities(communities):
    """ingest -> build-models -> distances -> anonymity --matrix, anonymity --models and eval agree.

    Authors u0, u1, ... appear in both communities, so eval links them by
    pseudonym; a third community, solo, holds one profile, whose one-member
    subset the anonymity loop checks.
    """
    from linkrisk import anonymity, evaluation, metric

    alpha, beta = communities
    records = [{"author": f"u{i}", "community": name, "body": " ".join(tokens)}
               for name, bags in (("alpha", alpha), ("beta", beta), ("solo", [["apple"]]))
               for i, tokens in enumerate(bags)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "comments.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        models_path = work / "models.jsonl"
        steps = [("ingest", "--input", work / "comments.jsonl", "--min-comments", 1, "--min-profiles", 1,
                  "--out", work),
                 ("build-models", "--profiles", work / "profiles.jsonl", "--out", work)]
        steps += [("distances", "--models", models_path, "--community", name, "--out", work)
                  for name in ("alpha", "beta", "solo")]
        assert [_quiet_run(*argv)[0] for argv in steps] == [0] * 5
        profiles = lm.load_models(models_path)[0]
        side = {name: {a: m for (a, c), m in profiles.items() if c == name} for name in ("alpha", "beta", "solo")}

        for name, models in side.items():
            saved = anonymity.DistanceMatrix.load(work / f"{name}.dmat")
            built = anonymity.DistanceMatrix.build(models)
            assert saved.keys == built.keys == sorted(models)
            assert saved.tri.tobytes() == built.tri.tobytes()
            for i, j in zip(*np.triu_indices(len(saved.keys), k=1)):
                a, b = saved.keys[i], saved.keys[j]
                scalar = metric.distance(lm.as_distribution(models[a]), lm.as_distribution(models[b]))
                assert abs(saved.distance(a, b) - scalar) <= 1e-13
            for subject in saved.keys:
                row = saved.row(subject)
                for d in sorted(set(row.tolist())):  # the subject's own distances: every tie is a boundary
                    query = ("--subject", subject, "--d", repr(d))
                    from_matrix = _quiet_run("anonymity", "--matrix", work / f"{name}.dmat", *query)
                    from_models = _quiet_run("anonymity", "--models", models_path, "--community", name, *query)
                    assert from_matrix == from_models and from_matrix[0] == 0
                    brute = [key for key, x in zip(saved.keys, row) if x <= d]
                    assert json.loads(from_matrix[1])["members"] == brute
        assert side["alpha"].keys() >= {"u0", "u1"} and side["beta"].keys() >= {"u0", "u1"}
        assert anonymity.DistanceMatrix.load(work / "beta.dmat").distance("u0", "u1") == 0.0
        assert abs(anonymity.DistanceMatrix.load(work / "alpha.dmat").distance("u0", "u1") - 1.0) <= 1e-13

        ks = [1, 2, 3, 5]
        code, _, err = _quiet_run("eval", "--profiles", work / "profiles.jsonl", "--community-a", "alpha",
                                  "--community-b", "beta", "--k", ",".join(map(str, ks)), "--out", work / "report")
        assert (code, err) == (0, "")
        with open(work / "report" / "precision_overall.csv", encoding="utf-8", newline="") as fh:
            precisions = {int(row["k"]): float(row["precision"]) for row in csv.DictReader(fh)}
        linked = sorted(side["alpha"].keys() & side["beta"].keys())
        rankings = [evaluation.rank_candidates(side["alpha"][a], side["beta"]) for a in linked]
        ranks = [[key for key, _ in ranking].index(a) for a, ranking in zip(linked, rankings)]
        assert precisions == {k: sum(r < k for r in ranks) / len(linked) for k in ks}
        with open(work / "report" / "scatter.csv", encoding="utf-8", newline="") as fh:
            scatter = list(csv.DictReader(fh))
        assert [(row["source"], row["target"]) for row in scatter] == [(a, a) for a in linked]
        for a, ranking, row in zip(linked, rankings, scatter):
            others = dict(ranking)
            matching = others.pop(a)
            avg = float(row["avg_nonmatching_distance"])
            assert row["matching_distance"] == repr(matching)
            assert abs(avg - sum(others.values()) / len(others)) <= 1e-12
            assert row["below_diagonal"] == str(int(matching < avg))
        for a, b, message in (("solo", "beta", "need at least 2 profiles for within-community statistics"),
                              ("alpha", "solo", "target community needs at least 2 profiles")):
            assert _quiet_run("eval", "--profiles", work / "profiles.jsonl", "--community-a", a,
                              "--community-b", b, "--out", work / "solo-report") == (1, "", f"error: {message}\n")


def test_anonymity_matrix_errors_keep_their_order(tmp_path, capsys):
    from linkrisk.anonymity import DistanceMatrix

    path = tmp_path / "m.dmat"
    DistanceMatrix(keys=["a", "b"], values=[0.3]).save(path)
    junk = tmp_path / "junk.dmat"
    junk.write_bytes(b"not a matrix\n")
    missing = str(tmp_path / "missing.jsonl")  # never read: d is checked first
    cases = [
        (["--matrix", str(junk)], "nobody", "2.0", "d must be in [0, 1]"),
        (["--matrix", str(junk)], "nobody", "nan", "d must be in [0, 1]"),
        (["--models", missing, "--community", "alpha"], "a", "2.0", "d must be in [0, 1]"),
        (["--matrix", str(junk)], "nobody", "0.5", "not a linkrisk distance matrix"),
        (["--matrix", str(path)], "nobody", "2.0", "d must be in [0, 1]"),
        (["--matrix", str(path)], "nobody", "0.5", "unknown profile 'nobody'"),
    ]
    for source, subject, d, message in cases:
        code, out, err = run(capsys, "anonymity", *source, "--subject", subject, "--d", d)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
    code, out, _ = run(capsys, "anonymity", "--matrix", str(path), "--subject", "a", "--d", "0.3",
                       "--k", "2")
    assert code == 0
    assert out == '{"d": 0.3, "k": 2, "kd_anonymous": true, "members": ["a", "b"], "requested_k": 2, ' \
                  '"subject": "a"}\n'


def test_anonymity_k_below_one_exits_one_before_the_other_checks(tmp_path, capsys):
    from linkrisk.anonymity import DistanceMatrix

    path = tmp_path / "m.dmat"
    DistanceMatrix(keys=["a", "b"], values=[0.3]).save(path)
    junk = tmp_path / "junk.dmat"
    junk.write_bytes(b"not a matrix\n")
    missing = str(tmp_path / "missing.jsonl")  # never read: the matrix is not built
    for k in ("0", "-3"):
        for source, subject, d in ((["--matrix", str(junk)], "a", "0.5"),
                                   (["--matrix", str(path)], "nobody", "2.0"),
                                   (["--matrix", str(path)], "nobody", "0.5"),
                                   (["--matrix", str(path)], "a", "0.5"),
                                   (["--models", missing, "--community", "alpha"], "a", "0.5"),
                                   ([], "a", "0.5")):
            code, out, err = run(capsys, "anonymity", *source, "--subject", subject, "--d", d, "--k", k)
            assert (code, out, err) == (1, "", "error: k must be >= 1\n")


@pytest.mark.parametrize("extra", [["--models", "m.jsonl"], ["--community", "beta"],
                                   ["--models", "m.jsonl", "--community", "beta"]])
def test_anonymity_refuses_a_matrix_together_with_models_or_community(tmp_path, capsys, extra):
    from linkrisk.anonymity import DistanceMatrix

    path = tmp_path / "alpha.dmat"
    DistanceMatrix(keys=["a", "b"], values=[0.3]).save(path)
    code, out, err = run(capsys, "anonymity", "--matrix", str(path), *extra, "--subject", "a", "--d", "0.5")
    assert (code, out) == (1, "")
    assert err == "error: give either --matrix or --models with --community, not both\n"


def test_anonymity_from_models_computes_only_the_subject_row(tmp_path, capsys, monkeypatch):
    """One cross row of n distances per query, no community matrix; an unknown subject computes none."""
    from linkrisk import metric

    records = [("u0", ["a", "a", "b"]), ("u1", ["b", "a", "a"]), ("u2", ["a", "x"]), ("u3", ["z"]),
               ("u4", ["b", "x", "y"])]
    (tmp_path / "profiles.jsonl").write_text("".join(
        json.dumps({"author": a, "community": "alpha", "n_comments": 1, "tokens": t}) + "\n" for a, t in records
    ), encoding="utf-8")
    assert run(capsys, "build-models", "--profiles", str(tmp_path / "profiles.jsonl"), "--out", str(tmp_path))[0] == 0
    source = ("anonymity", "--models", str(tmp_path / "models.jsonl"), "--community", "alpha")

    def fail(*args, **kwargs):
        raise AssertionError("a community matrix computed for one subject")

    sources, cross = [], metric.cross_distances

    def counted(dists_a, dists_b, workers=None):
        sources.append(len(dists_a))
        return cross(dists_a, dists_b, workers)

    monkeypatch.setattr(metric, "pairwise_distances", fail)
    monkeypatch.setattr(metric, "cross_distances", counted)
    queries = [  # the stdout of the full-matrix implementation
        (("u0", "0.0"), '{"d": 0.0, "k": 2, "members": ["u0", "u1"], "subject": "u0"}'),
        (("u2", "0.7"), '{"d": 0.7, "k": 3, "members": ["u0", "u1", "u2"], "subject": "u2"}'),
        (("u4", "0.9", "--k", "3"), '{"d": 0.9, "k": 4, "kd_anonymous": true, "members": ["u0", "u1", "u2", '
                                    '"u4"], "requested_k": 3, "subject": "u4"}'),
        (("u3", "1.0", "--k", "6"), '{"d": 1.0, "k": 5, "kd_anonymous": false, "members": ["u0", "u1", "u2", '
                                    '"u3", "u4"], "requested_k": 6, "subject": "u3"}'),
        (("u3", "0.99"), '{"d": 0.99, "k": 1, "members": ["u3"], "subject": "u3"}'),
    ]
    for (subject, d, *k), out in queries:
        assert run(capsys, *source, "--subject", subject, "--d", d, *k) == (0, out + "\n", "")
    assert sources == [1] * len(queries)
    monkeypatch.setattr(metric, "cross_distances", fail)
    assert run(capsys, *source, "--subject", "nobody", "--d", "0.5") == (1, "", "error: unknown profile 'nobody'\n")


def _two_line_corpus(path):
    good = json.dumps({"author": "u0", "community": "alpha", "body": "hello world"}).encode()
    bad = b'{"author": "u1", "community": "alpha", "body": "caf\xff"}'
    path.write_bytes(good + b"\n" + bad + b"\n")


def test_ingest_lenient_skips_a_line_with_an_invalid_byte(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    _two_line_corpus(src)
    code, out, err = run(capsys, "ingest", "--input", str(src), "--min-comments", "1",
                         "--min-profiles", "1", "--lenient", "--out", str(tmp_path / "out"))
    assert code == 0
    assert "kept 1 of 1 profiles" in out
    assert "skipped 1 malformed line(s)" in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"]["lines_skipped"] == 1
    assert manifest["outputs"]["comments_read"] == 1


def test_ingest_strict_names_the_line_with_an_invalid_byte(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    _two_line_corpus(src)
    code, _, err = run(capsys, "ingest", "--input", str(src), "--min-comments", "1",
                       "--min-profiles", "1", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: line 2: ") and "0xff" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_a_bom_that_starts_a_jsonl_input_is_dropped(tmp_path, capsys, monkeypatch, lenient):
    """ingest, build-models and top-unigrams read a BOM-prefixed input as the same input without it."""
    lines = [json.dumps({"author": f"u{i}", "community": "alpha", "body": f"hello world {word}"})
             for i, word in enumerate(["apple", "birch", "apple"])]
    if lenient:
        lines.insert(1, "broken")
    flags = ["--lenient"] if lenient else []
    seen = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        Path("comments.jsonl").write_bytes(prefix + "\n".join(lines).encode("utf-8") + b"\n")
        results = [run(capsys, "ingest", "--input", "comments.jsonl", "--min-comments", "1", "--min-profiles", "1",
                       *flags, "--out", "ingest")]
        Path("profiles.jsonl").write_bytes(prefix + Path("ingest/profiles.jsonl").read_bytes())
        results.append(run(capsys, "build-models", "--profiles", "profiles.jsonl", "--out", "models"))
        Path("models.jsonl").write_bytes(prefix + Path("models/models.jsonl").read_bytes())
        results.append(run(capsys, "top-unigrams", "--models", "models.jsonl", "--kind", "global"))
        outputs = {p.as_posix(): p.read_bytes() for d in ("ingest", "models") for p in sorted(Path(d).iterdir())}
        seen.append((results, outputs))
    assert seen[0] == seen[1]
    ingested, built, top = seen[0][0]
    assert ingested == (0, "kept 3 of 3 profiles -> ingest/profiles.jsonl\n",
                        "skipped 1 malformed line(s)\n" if lenient else "")
    assert built[0] == 0
    assert top == (0, "world\t3\napple\t2\nbirch\t1\n", "")


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(
            lambda s: s["policy"]["requirements"].append({"profile": "P9", "forbid": {"job": "dev"}}),
            "unknown profile 'P9'", id="requirement-names-unknown-profile",
        ),
        pytest.param(
            lambda s: s["profiles"]["P1"].update(true_model="m9"),
            "profile 'P1': unknown true_model 'm9'", id="unknown-true-model",
        ),
        pytest.param(
            lambda s: s["policy"]["requirements"][0].update(forbid={"jbo": "dev"}),
            "policy requirement 1 forbid: attributes not in declared universe: ['jbo']", id="forbid-undeclared",
        ),
        pytest.param(
            lambda s: s["profiles"]["P1"]["publish"].update(reveal=["job", "salary"]),
            "profile 'P1' publish: attributes not in declared universe: ['salary']", id="reveal-undeclared",
        ),
        pytest.param(
            lambda s: s["profiles"]["P1"]["publish"].update(reveal=["job", "salary"], perturb={"salary": "x"}),
            "profile 'P1' publish: attributes not in declared universe: ['salary']", id="perturb-undeclared",
        ),
        pytest.param(
            lambda s: s["profiles"]["P1"].update(prior={"m1": 0.5, "m2": 0.5, "m9": 0.4}),
            "profile 'P1' prior: unknown model ids: ['m9']", id="prior-unknown-model",
        ),
        pytest.param(
            lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": 1.0, "mX": 1.0}}}),
            "table kappa row 'P1': unknown model ids: ['mX']", id="table-row-unknown-model",
        ),
        pytest.param(
            lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": 1, "m2": 1}, "P9": {"m1": "x"}}}),
            "table kappa rows: unknown profiles: ['P9']", id="table-row-unknown-profile",
        ),
    ],
)
def test_framework_run_rejects_unknown_references(tmp_path, capsys, change, message):
    scenario = {
        "attributes": ["job"],
        "models": {"m1": {"job": "dev"}, "m2": {"job": "teacher"}},
        "profiles": {"P1": {"true_model": "m1", "publish": {"reveal": ["job"]}}},
        "policy": {"sigma": 0.5, "requirements": [{"profile": "P1", "forbid": {"job": "dev"}}]},
    }
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "framework", "run", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


_SCENARIO = {
    "attributes": ["job"],
    "models": {"m1": {"job": "dev"}, "m2": {"job": "teacher"}},
    "profiles": {"P1": {"true_model": "m1", "publish": {"reveal": ["job"]}}},
    "policy": {"sigma": 0.5, "requirements": [{"profile": "P1", "forbid": {"job": "dev"}}]},
}


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda s: s.clear(), "scenario is missing 'attributes'", id="empty-object"),
        pytest.param(lambda s: s.pop("models"), "scenario is missing 'models'", id="no-models"),
        pytest.param(lambda s: s.pop("profiles"), "scenario is missing 'profiles'", id="no-profiles"),
        pytest.param(lambda s: s.pop("policy"), "scenario is missing 'policy'", id="no-policy"),
        pytest.param(lambda s: s["policy"].pop("sigma"), "policy is missing 'sigma'", id="no-sigma"),
        pytest.param(lambda s: s["policy"].pop("requirements"), "policy is missing 'requirements'",
                     id="no-requirements"),
        pytest.param(lambda s: s["policy"]["requirements"][0].pop("forbid"),
                     "policy requirement 1 is missing 'forbid'", id="requirement-without-forbid"),
        pytest.param(lambda s: s["policy"]["requirements"][0].pop("profile"),
                     "policy requirement 1 is missing 'profile'", id="requirement-without-profile"),
        pytest.param(lambda s: s["policy"]["requirements"].append("P1"),
                     "policy requirement 2 must be a JSON object", id="requirement-not-an-object"),
        pytest.param(lambda s: s["profiles"].update(P1="m1"), "profile 'P1' must be a JSON object",
                     id="profile-not-an-object"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].pop("reveal"),
                     "profile 'P1' publish is missing 'reveal'", id="publish-without-reveal"),
        pytest.param(lambda s: s.update(kappa={"kind": "table"}), "table kappa is missing 'rows'",
                     id="table-kappa-without-rows"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": {"P2": {"m1": 1}}}),
                     "table kappa rows is missing 'P1'", id="table-kappa-without-a-profile-row"),
    ],
)
def test_framework_run_rejects_missing_scenario_fields(tmp_path, capsys, change, message):
    scenario = json.loads(json.dumps(_SCENARIO))
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "framework", "run", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda s: s.update(models=[]), "scenario: 'models' must be a JSON object",
                     id="models-list"),
        pytest.param(lambda s: s.update(kappa="table"), "scenario: 'kappa' must be a JSON object",
                     id="kappa-string"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior=[1]),
                     "profile 'P1': 'prior' must be \"uniform\" or a JSON object", id="prior-list"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior="flat"),
                     "profile 'P1': 'prior' must be \"uniform\" or a JSON object", id="prior-other-string"),
        pytest.param(lambda s: s.update(attributes="job"), "scenario: 'attributes' must be a list",
                     id="attributes-string"),
        pytest.param(lambda s: s["models"].update(m2="teacher"), "models: 'm2' must be a JSON object",
                     id="model-string"),
        pytest.param(lambda s: s.update(profiles=["P1"]), "scenario: 'profiles' must be a JSON object",
                     id="profiles-list"),
        pytest.param(lambda s: s["policy"].update(sigma="0.5"), "policy: 'sigma' must be a number",
                     id="sigma-string"),
        pytest.param(lambda s: s["policy"].update(requirements={}), "policy: 'requirements' must be a list",
                     id="requirements-object"),
        pytest.param(lambda s: s["policy"]["requirements"][0].update(profile=["P1"]),
                     "policy requirement 1: 'profile' must be a string", id="requirement-profile-list"),
        pytest.param(lambda s: s["policy"]["requirements"][0].update(forbid=["job"]),
                     "policy requirement 1: 'forbid' must be a JSON object", id="forbid-list"),
        pytest.param(lambda s: s["profiles"]["P1"].update(true_model=["m1"]),
                     "profile 'P1': 'true_model' must be a string", id="true-model-list"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": []}),
                     "table kappa: 'rows' must be a JSON object", id="rows-list"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(reveal="job"),
                     "profile 'P1' publish: 'reveal' must be a list", id="reveal-string"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(perturb=5),
                     "profile 'P1' publish: 'perturb' must be a JSON object", id="perturb-number"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior={"m1": None, "m2": 1}),
                     "profile 'P1' prior: 'm1' must be a number", id="prior-mass-null"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": None}}}),
                     "table kappa row 'P1': 'm1' must be a number", id="table-kappa-entry-null"),
        pytest.param(lambda s: s.update(seed="x"), "scenario: 'seed' must be an integer", id="seed-string"),
        pytest.param(lambda s: s.update(seed=1.5), "scenario: 'seed' must be an integer", id="seed-float"),
        pytest.param(lambda s: s.update(seed=True), "scenario: 'seed' must be an integer", id="seed-bool"),
        pytest.param(lambda s: s.update(seed=-1), "scenario: 'seed' must be >= 0", id="seed-negative"),
        pytest.param(lambda s: s["policy"].update(sigma=True), "policy: 'sigma' must be a number",
                     id="sigma-bool"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior={"m1": True, "m2": 0}),
                     "profile 'P1' prior: 'm1' must be a number", id="prior-mass-bool"),
        pytest.param(lambda s: s.update(attributes=[["a"]]), "scenario: 'attributes' must be a list of strings",
                     id="attribute-list"),
        pytest.param(lambda s: s.update(attributes=["job", 1]),
                     "scenario: 'attributes' must be a list of strings", id="attribute-number"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(reveal=[["a"]]),
                     "profile 'P1' publish: 'reveal' must be a list of strings", id="reveal-entry-list"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(reveal=["job", "a"], perturb={"a": []}),
                     "perturbed attributes with no values to draw from: ['a']", id="perturb-empty-list"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior={"m1": float("nan"), "m2": 1}),
                     "negative or NaN prior mass for profile 'P1'", id="prior-mass-nan"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": float("nan")}}}),
                     "likelihood of candidate 'm1' for profile 'P1' must be a finite number >= 0, not nan",
                     id="table-kappa-entry-nan"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": -1, "m2": 1}}}),
                     "likelihood of candidate 'm1' for profile 'P1' must be a finite number >= 0, not -1.0",
                     id="table-kappa-entry-negative"),
        pytest.param(lambda s: s["models"]["m1"].update(job=float("nan")),
                     "model 'm1': 'job' must be a string or null", id="model-value-nan"),
        pytest.param(lambda s: s["models"]["m2"].update(job=["teacher"]),
                     "model 'm2': 'job' must be a string or null", id="model-value-list"),
        pytest.param(lambda s: s["policy"]["requirements"][0]["forbid"].update(city=[["x"]]),
                     "policy requirement 1 forbid: 'city' must be a string", id="forbid-value-nested-list"),
        pytest.param(lambda s: s["policy"]["requirements"][0]["forbid"].update(city=3),
                     "policy requirement 1 forbid: 'city' must be a string", id="forbid-value-number"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(reveal=["job", "city"],
                                                                    perturb={"city": {"a": 1}}),
                     "profile 'P1' publish perturb: 'city' must be a string or a list of strings",
                     id="perturb-value-object"),
        pytest.param(lambda s: s["profiles"]["P1"]["publish"].update(reveal=["job", "city"],
                                                                    perturb={"city": ["x", None]}),
                     "profile 'P1' publish perturb: 'city' must be a string or a list of strings",
                     id="perturb-value-list-with-null"),
        pytest.param(lambda s: s["policy"].update(sigma=10**400), "policy: 'sigma' is beyond the float range",
                     id="sigma-beyond-float"),
        pytest.param(lambda s: s["profiles"]["P1"].update(prior={"m1": 10**400, "m2": 0}),
                     "profile 'P1' prior: 'm1' is beyond the float range", id="prior-mass-beyond-float"),
        pytest.param(lambda s: s.update(kappa={"kind": "table", "rows": {"P1": {"m1": -10**400}}}),
                     "table kappa row 'P1': 'm1' is beyond the float range", id="table-kappa-entry-beyond-float"),
    ],
)
def test_framework_run_rejects_scenario_fields_of_the_wrong_type(tmp_path, capsys, change, message):
    scenario = json.loads(json.dumps(_SCENARIO))
    change(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "framework", "run", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_framework_run_accepts_an_explicit_uniform_prior_and_a_prior_object(tmp_path, capsys):
    scenario = json.loads(json.dumps(_SCENARIO))
    scenario["profiles"]["P1"]["prior"] = "uniform"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, uniform, _ = run(capsys, "framework", "run", str(path))
    assert code == 0
    scenario["profiles"]["P1"]["prior"] = {"m1": 0.5, "m2": 0.5}
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, explicit, _ = run(capsys, "framework", "run", str(path))
    assert code == 0 and explicit == uniform


_PROFILE = '{"counts":{"x":2,"y":1},"key":["u0","alpha"],"kind":"profile"}'


@pytest.mark.parametrize(
    "bad_line, message",
    [
        pytest.param('{"kind": "profile",', "line 2: not valid JSON (", id="invalid-json"),
        pytest.param('{"counts":{"t":null},"key":["u1","alpha"],"kind":"profile"}',
                     "line 2: counts must be non-negative integers", id="null-count"),
        pytest.param('{"counts":{"t":-1,"u":3},"key":["u1","alpha"],"kind":"profile"}',
                     "line 2: counts must be non-negative integers", id="negative-count"),
        pytest.param('{"counts":{"t":true},"key":["u1","alpha"],"kind":"profile"}',
                     "line 2: counts must be non-negative integers", id="bool-count"),
        pytest.param('{"counts":{"t":1.5},"key":["u1","alpha"],"kind":"profile"}',
                     "line 2: counts must be non-negative integers", id="fractional-count"),
        pytest.param('{"counts":{"t":"3"},"key":["u1","alpha"],"kind":"profile"}',
                     "line 2: counts must be non-negative integers", id="string-count"),
    ],
)
@pytest.mark.parametrize("command", ["top-unigrams", "distances"])
def test_malformed_model_line_exits_one(tmp_path, capsys, command, bad_line, message):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + "\n" + bad_line + "\n", encoding="utf-8")
    argv = [command, "--models", str(path)]
    if command == "top-unigrams":
        argv += ["--kind", "global"]
    else:
        argv += ["--community", "alpha", "--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_zero_counts_still_load(tmp_path, capsys):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + "\n" + _PROFILE.replace('"u0"', '"u1"').replace('"y":1', '"y":0') + "\n",
                    encoding="utf-8")
    code, _, _ = run(capsys, "distances", "--models", str(path), "--community", "alpha",
                     "--out", str(tmp_path / "out"))
    assert code == 0


@pytest.mark.parametrize("counts", ['{"x":1' + "0" * 400 + '}', '{"x":%d,"y":%d}' % (2**1023, 2**1023)],
                         ids=["one-count", "two-counts"])
@pytest.mark.parametrize("command", ["distances", "anonymity"])
def test_counts_that_sum_beyond_the_float_range_are_refused(tmp_path, capsys, command, counts):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + "\n" + '{"counts":%s,"key":["u1","alpha"],"kind":"profile"}\n' % counts,
                    encoding="utf-8")
    argv = [command, "--models", str(path), "--community", "alpha"]
    argv += ["--out", str(tmp_path / "out")] if command == "distances" else ["--subject", "u0", "--d", "0.5"]
    assert run(capsys, *argv) == (1, "", "error: line 2: counts sum beyond the float range\n")


def test_eval_with_a_single_target_profile_exits_one(tmp_path, capsys):
    path = tmp_path / "profiles.jsonl"
    lines = [
        {"author": "u0", "community": "alpha", "n_comments": 1, "tokens": ["x", "y"]},
        {"author": "u1", "community": "alpha", "n_comments": 1, "tokens": ["y", "z"]},
        {"author": "u0", "community": "beta", "n_comments": 1, "tokens": ["x", "z"]},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, out, err = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "beta", "--out", str(tmp_path / "report"),
    )
    assert (code, out) == (1, "")
    assert err == "error: target community needs at least 2 profiles\n"
    assert not (tmp_path / "report").exists()


def test_a_profile_without_tokens_is_named_by_each_model_reading_command(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    comments = [("u0", "a", "hello world"), ("u1", "a", "quiet night"), ("u2", "a", "the and of"),
                ("u0", "b", "hello there"), ("u1", "b", "night sky")]
    src.write_text("".join(json.dumps({"author": author, "community": community, "body": body}) + "\n"
                           for author, community, body in comments), encoding="utf-8")
    work = tmp_path / "w"
    code, _, _ = run(capsys, "ingest", "--input", str(src), "--min-comments", "1", "--min-profiles", "1",
                     "--out", str(work))
    assert code == 0
    message = "error: profile 'u2' in community 'a' has no tokens\n"
    assert run(capsys, "eval", "--profiles", str(work / "profiles.jsonl"), "--community-a", "a",
               "--community-b", "b", "--out", str(tmp_path / "report")) == (1, "", message)
    assert not (tmp_path / "report").exists()
    assert run(capsys, "build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work))[0] == 0
    models = str(work / "models.jsonl")
    assert run(capsys, "distances", "--models", models, "--community", "a",
               "--out", str(tmp_path / "m")) == (1, "", message)
    assert run(capsys, "anonymity", "--models", models, "--community", "a", "--subject", "u0",
               "--d", "0.5") == (1, "", message)


def _two_model_store(tmp_path):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + '\n{"counts":{"g":1},"key":["u1","beta"],"kind":"profile"}\n', encoding="utf-8")
    return path


def test_top_unigrams_of_one_profile(tmp_path, capsys):
    path = _two_model_store(tmp_path)
    code, out, _ = run(capsys, "top-unigrams", "--models", str(path), "--kind", "profile",
                       "--author", "u0", "--key", "alpha")
    assert (code, out) == (0, "x\t2\ny\t1\n")
    code, out, err = run(capsys, "top-unigrams", "--models", str(path), "--kind", "profile",
                         "--author", "u1", "--key", "alpha")
    assert (code, out) == (1, "")
    assert err == "error: unknown profile ('u1', 'alpha')\n"


def test_config_value_must_be_one_of_the_choices(tmp_path, capsys):
    path = _two_model_store(tmp_path)
    cfg = tmp_path / "opts.conf"
    cfg.write_text("kind=bogus\n", encoding="utf-8")
    code, out, err = run(capsys, "top-unigrams", "--models", str(path), "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: config key 'kind': invalid choice 'bogus' (choose from 'community', 'global', 'profile')\n"
    cfg.write_text("kind=global\n", encoding="utf-8")
    code, out, _ = run(capsys, "top-unigrams", "--models", str(path), "--config", str(cfg))
    assert (code, out) == (0, "x\t2\ng\t1\ny\t1\n")


@pytest.mark.parametrize("argv, line, message", [
    (("distances", "--models", "{out}", "--community", "alpha", "--out", "{out}"), "workers=abc",
     "config key 'workers': invalid int value 'abc'"),
    (("synth", "--users", "3", "--topics", "2", "--out", "{out}"), "idiosyncrasy=oops",
     "config key 'idiosyncrasy': invalid float value 'oops'"),
], ids=["int", "float"])
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, argv, line, message):
    cfg = tmp_path / "opts.conf"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    assert run(capsys, *argv, "--config", str(cfg)) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (("--kind", "community"), "--kind community needs --key"),
    (("--kind", "profile", "--key", "alpha"), "--kind profile needs --author"),
    (("--kind", "profile", "--author", "u0"), "--kind profile needs --key"),
], ids=["community-without-key", "profile-without-author", "profile-without-key"])
def test_top_unigrams_names_a_missing_flag(tmp_path, capsys, flags, message):
    path = _two_model_store(tmp_path)
    assert run(capsys, "top-unigrams", "--models", str(path), *flags) == (1, "", f"error: {message}\n")


def test_top_unigrams_refuses_a_negative_k_before_it_reads_the_models(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    for flags in (("--key", "alpha"), ("--kind", "global"), ()):
        assert run(capsys, "top-unigrams", "--models", missing, *flags, "-k", "-1") == \
            (1, "", "error: k must be >= 0\n")
    path = _two_model_store(tmp_path)
    assert run(capsys, "top-unigrams", "--models", str(path), "--key", "alpha", "-k", "0") == (0, "", "")


def test_only_top_unigrams_sums_the_community_and_global_models(tmp_path, capsys, monkeypatch):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + '\n{"counts":{"x":1,"z":3},"key":["u1","alpha"],"kind":"profile"}\n'
                    '{"counts":{"g":1},"key":["u2","beta"],"kind":"profile"}\n', encoding="utf-8")
    aggregate = lm._aggregate

    def refuse(profiles):
        raise AssertionError("community and global models summed")

    monkeypatch.setattr(lm, "_aggregate", refuse)
    assert run(capsys, "distances", "--models", str(path), "--community", "alpha",
               "--out", str(tmp_path / "out")) == (0, f"2 profiles -> {tmp_path / 'out' / 'alpha.dmat'}\n", "")
    code, out, _ = run(capsys, "anonymity", "--models", str(path), "--community", "alpha",
                       "--subject", "u0", "--d", "1.0")
    assert (code, json.loads(out)["members"]) == (0, ["u0", "u1"])
    summed = []

    def counted(profiles):
        summed.append(len(profiles))
        return aggregate(profiles)

    monkeypatch.setattr(lm, "_aggregate", counted)
    assert run(capsys, "top-unigrams", "--models", str(path), "--key", "alpha") == (0, "x\t3\nz\t3\ny\t1\n", "")
    assert run(capsys, "top-unigrams", "--models", str(path), "--kind", "global") == \
        (0, "x\t3\nz\t3\ng\t1\ny\t1\n", "")
    assert summed == [3, 3]


@pytest.mark.parametrize("record", [
    '{"counts":{"x":2},"key":"alpha","kind":"community"}',
    '{"counts":{"x":2},"key":null,"kind":"global"}',
], ids=["community", "global"])
@pytest.mark.parametrize("command", ["top-unigrams", "distances"])
def test_a_store_with_a_community_or_global_record_is_refused(tmp_path, capsys, command, record):
    path = tmp_path / "models.jsonl"
    path.write_text(_PROFILE + "\n" + record + "\n", encoding="utf-8")
    argv = [command, "--models", str(path)]
    if command == "top-unigrams":
        argv += ["--key", "alpha"]
    else:
        argv += ["--community", "alpha", "--out", str(tmp_path / "out")]
    kind = json.loads(record)["kind"]
    message = f"error: line 2: model kind {kind!r} is not read; re-run linkrisk build-models\n"
    assert run(capsys, *argv) == (1, "", message)
    assert not (tmp_path / "out").exists()


def test_a_community_record_that_contradicts_the_profiles_is_refused(tmp_path, capsys):
    # the community record claims a token that no profile of the community holds
    profiles = ('{"counts":{"x":2},"key":["u0","alpha"],"kind":"profile"}\n'
                '{"counts":{"x":1,"z":3},"key":["u1","alpha"],"kind":"profile"}\n')
    path = tmp_path / "models.jsonl"
    path.write_text(profiles + '{"counts":{"y":100},"key":"alpha","kind":"community"}\n', encoding="utf-8")
    message = "error: line 3: model kind 'community' is not read; re-run linkrisk build-models\n"
    assert run(capsys, "top-unigrams", "--models", str(path), "--key", "alpha") == (1, "", message)
    path.write_text(profiles, encoding="utf-8")
    for flags in (("--key", "alpha"), ("--kind", "global")):
        assert run(capsys, "top-unigrams", "--models", str(path), *flags) == (0, "x\t3\nz\t3\n", "")


def test_top_unigrams_equal_counts_summed_from_the_profile_store(tmp_path, capsys):
    corpus_dir, work = tmp_path / "c", tmp_path / "w"
    assert run(capsys, "synth", "--users", "8", "--topics", "3", "--comments", "10", "--seed", "5",
               "--out", str(corpus_dir))[0] == 0
    combined = tmp_path / "all.jsonl"
    combined.write_text((corpus_dir / "alpha.jsonl").read_text(encoding="utf-8")
                        + (corpus_dir / "beta.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
    assert run(capsys, "ingest", "--input", str(combined), "--min-comments", "1", "--min-profiles", "1",
               "--out", str(work))[0] == 0
    assert run(capsys, "build-models", "--profiles", str(work / "profiles.jsonl"), "--out", str(work))[0] == 0
    references = {"global": Counter()}
    with open(work / "profiles.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            references.setdefault(rec["community"], Counter()).update(rec["tokens"])
            references["global"].update(rec["tokens"])
    assert set(references) == {"global", "alpha", "beta"}
    for name, counts in references.items():
        flags = ("--kind", "global") if name == "global" else ("--key", name)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        expected = "".join(f"{token}\t{count}\n" for token, count in ranked)
        assert run(capsys, "top-unigrams", "--models", str(work / "models.jsonl"), *flags,
                   "-k", str(len(counts))) == (0, expected, "")


@pytest.mark.parametrize("command, message", [
    (("ingest", "--input", "{file}", "--out", "{out}"), "line 1: not valid JSON ("),
    (("eval", "--profiles", "{file}", "--community-a", "alpha", "--community-b", "beta", "--out", "{out}"),
     "line 1: not valid JSON ("),
    (("build-models", "--profiles", "{file}", "--out", "{out}"), "line 1: not valid JSON ("),
    (("top-unigrams", "--models", "{file}", "--kind", "global"), "line 1: not valid JSON ("),
    (("distances", "--models", "{file}", "--community", "alpha", "--out", "{out}"), "line 1: not valid JSON ("),
    (("anonymity", "--models", "{file}", "--community", "alpha", "--subject", "u0", "--d", "0.5"),
     "line 1: not valid JSON ("),
    (("anonymity", "--matrix", "{file}", "--subject", "u0", "--d", "0.5"),
     "{file}: not a linkrisk distance matrix\n"),
    (("framework", "run", "{file}"), "{file}: not valid JSON ("),
], ids=["ingest", "eval", "build-models", "top-unigrams", "distances", "anonymity-models", "anonymity-matrix",
        "framework-run"])
def test_deeply_nested_json_exits_one_with_one_line(tmp_path, capsys, command, message):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    argv = [arg.format(file=path, out=tmp_path / "out") for arg in command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.format(file=path))
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_PROFILE_LINE = b'{"author":"u0","community":"alpha","n_comments":1,"tokens":["x"]}'


@pytest.mark.parametrize("command, content, message", [
    (("eval", "--profiles", "{file}", "--community-a", "alpha", "--community-b", "beta", "--out", "{out}"),
     "profiles", "line 3: "),
    (("build-models", "--profiles", "{file}", "--out", "{out}"), "profiles", "line 3: "),
    (("top-unigrams", "--models", "{file}", "--kind", "global"), "models", "line 3: "),
    (("distances", "--models", "{file}", "--community", "alpha", "--out", "{out}"), "models", "line 3: "),
    (("anonymity", "--models", "{file}", "--community", "alpha", "--subject", "u0", "--d", "0.5"),
     "models", "line 3: "),
    (("bound", "--config", "{file}", "--c", "0.2", "--d", "0.1", "--k", "5"), "config", "{file}:3: "),
    (("ingest", "--input", "{file}", "--stopwords", "{file}", "--out", "{out}"), "words", "{file}: "),
    (("ingest", "--input", "{file}", "--smilies", "{file}", "--out", "{out}"), "words", "{file}: "),
    (("framework", "run", "{file}"), "scenario", "{file}: "),
], ids=["eval", "build-models", "top-unigrams", "distances", "anonymity-models", "config", "stopwords",
        "smilies", "framework-run"])
def test_a_byte_that_is_not_utf8_is_named_by_line_or_file(tmp_path, capsys, command, content, message):
    lines = {
        "profiles": [_PROFILE_LINE, _PROFILE_LINE.replace(b"u0", b"u1")],
        "models": [_PROFILE.encode(), _PROFILE.encode().replace(b"u0", b"u1")],
        "config": [b"# options", b"c = 0.2"],
        "words": [b"# words", b"word"],
        "scenario": [b"{", b'  "attributes": [],'],
    }[content]
    path = tmp_path / "input"
    path.write_bytes(b"\n".join(lines) + b'\n"caf\xff"\n')
    argv = [arg.format(file=path, out=tmp_path / "out") for arg in command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.format(file=path))
    assert "can't decode byte 0xff" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_file_skips_comments_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "opts.conf"
    cfg.write_text("# matching distance\n\nc = 0.2\n   \n  # radius\nd=0.1\n", encoding="utf-8")
    code, out, _ = run(capsys, "bound", "--config", str(cfg), "--c", "0.2", "--d", "0.1", "--k", "5")
    assert (code, out) == (0, "t = 0.857143\n")


def test_config_line_without_equals_exits_one(tmp_path, capsys):
    cfg = tmp_path / "opts.conf"
    cfg.write_text("# ok\nc 0.2\n", encoding="utf-8")
    code, out, err = run(capsys, "bound", "--config", str(cfg), "--c", "0.2", "--d", "0.1", "--k", "5")
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}:2: expected key=value\n"


def _eval_profiles(path):
    lines = [
        {"author": author, "community": community, "n_comments": 1, "tokens": tokens}
        for author, tokens in (("u0", ["x", "y"]), ("u1", ["y", "z"]))
        for community in ("alpha", "beta")
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def test_eval_records_each_k_once_in_ascending_order(tmp_path, capsys):
    path = tmp_path / "profiles.jsonl"
    _eval_profiles(path)
    report = tmp_path / "report"
    code, out, _ = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "beta", "--k", "5,1,5", "--out", str(report),
    )
    assert code == 0
    assert [line.split(" = ")[0] for line in out.splitlines()[:2]] == ["precision@1", "precision@5"]
    assert json.loads((report / "metadata.json").read_text())["k"] == [1, 5]
    assert json.loads((report / "manifest.json").read_text())["params"]["k"] == [1, 5]
    rows = (report / "precision_overall.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "5"]
    bins = (report / "precision_bins.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[0] for row in bins}) == ["1", "5"]


def test_eval_metadata_does_not_depend_on_where_the_profiles_live(tmp_path, capsys):
    original = tmp_path / "profiles.jsonl"
    _eval_profiles(original)
    metadata = []
    for place in ("here", "there/deeper"):
        path = tmp_path / place / "profiles.jsonl"
        path.parent.mkdir(parents=True)
        path.write_bytes(original.read_bytes())
        report = tmp_path / place / "report"
        code, _, _ = run(
            capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
            "--community-b", "beta", "--out", str(report),
        )
        assert code == 0
        metadata.append((report / "metadata.json").read_bytes())
        assert json.loads((report / "manifest.json").read_text())["inputs"]["profiles"] == str(path)
    assert metadata[0] == metadata[1]
    digest = hashlib.sha256(original.read_bytes()).hexdigest()
    assert json.loads(metadata[0])["profiles_sha256"] == digest


def test_eval_refuses_one_community_on_both_sides(tmp_path, capsys):
    path = tmp_path / "profiles.jsonl"
    _eval_profiles(path)
    code, out, err = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "alpha", "--out", str(tmp_path / "report"),
    )
    assert (code, out) == (1, "")
    assert err == "error: --community-a and --community-b must differ, both are 'alpha'\n"
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("ks", [",", "", " , "])
def test_eval_without_any_k_exits_one(tmp_path, capsys, ks):
    path = tmp_path / "profiles.jsonl"
    _eval_profiles(path)
    code, out, err = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "beta", "--k", ks, "--out", str(tmp_path / "report"),
    )
    assert (code, out) == (1, "")
    assert err == "error: need at least one k\n"
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("ks", ["1,abc", "1.5", "5,,x"])
def test_eval_k_that_is_not_an_integer_names_the_option(tmp_path, capsys, ks):
    path = tmp_path / "profiles.jsonl"
    _eval_profiles(path)
    code, out, err = run(
        capsys, "eval", "--profiles", str(path), "--community-a", "alpha",
        "--community-b", "beta", "--k", ks, "--out", str(tmp_path / "report"),
    )
    assert (code, out, err) == (1, "", f"error: --k takes comma-separated integers, got {ks!r}\n")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("ks, message", [
    ("", "need at least one k"), (" , ", "need at least one k"),
    ("0", "k must be >= 1"), ("5,-2", "k must be >= 1"),
])
def test_eval_refuses_a_bad_k_before_it_reads_the_profiles(tmp_path, capsys, ks, message):
    missing = tmp_path / "missing.jsonl"
    code, out, err = run(
        capsys, "eval", "--profiles", str(missing), "--community-a", "alpha",
        "--community-b", "beta", "--k", ks, "--out", str(tmp_path / "report"),
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("command", [
    ("eval", "--profiles", "{profiles}", "--community-a", "nope", "--community-b", "beta"),
    ("eval", "--profiles", "{profiles}", "--community-a", "alpha", "--community-b", "nope"),
    ("distances", "--models", "{models}", "--community", "nope"),
    ("anonymity", "--models", "{models}", "--community", "nope", "--subject", "u0", "--d", "0.5"),
], ids=["eval-source", "eval-target", "distances", "anonymity"])
def test_unknown_community_exits_one(tmp_path, capsys, command):
    profiles, models = tmp_path / "profiles.jsonl", tmp_path / "models.jsonl"
    _eval_profiles(profiles)
    models.write_text(_PROFILE + "\n", encoding="utf-8")
    argv = [arg.format(profiles=profiles, models=models) for arg in command]
    if command[0] != "anonymity":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: no profiles found for community 'nope'\n"
    assert not (tmp_path / "out").exists()


def _run_scenario(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "framework", "run", str(path))
    return code, json.loads(out) if code == 0 else out, err


# _SCENARIO with every optional field present: a prior object, a perturbation,
# a table kappa and a seed
_FULL_SCENARIO = {
    "attributes": ["job", "city"],
    "models": {"m1": {"job": "dev", "city": "x"}, "m2": {"job": "teacher", "city": "y"}},
    "profiles": {"P1": {"true_model": "m1", "prior": {"m1": 0.5, "m2": 0.5},
                        "publish": {"reveal": ["job", "city"], "perturb": {"city": ["x", "y"]}}}},
    "kappa": {"kind": "table", "rows": {"P1": {"m1": 0.25, "m2": 0.75}}},
    "policy": {"sigma": 0.5, "requirements": [{"profile": "P1", "forbid": {"job": "dev"}}]},
    "seed": 3,
}


def _paths(value, path=()):
    """The path of `value` itself and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


_NAMES = st.sampled_from(["job", "city", "dev", "x", "m1", "m2", "P1", "uniform", "table", "rows",
                          "exact_match", "consistency"])
_JSON = st.recursive(  # the integers include some beyond the float range
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400]) | st.floats()
    | st.text(max_size=3) | _NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_SCENARIO_PATHS = st.sampled_from(
    [(_SCENARIO, path) for path in _paths(_SCENARIO)] + [(_FULL_SCENARIO, path) for path in _paths(_FULL_SCENARIO)])


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(_SCENARIO_PATHS, _JSON)
@example((_FULL_SCENARIO, ("models", "m1", "job")), float("nan"))
@example((_SCENARIO, ("policy", "requirements", 0, "forbid", "job")), [["x"]])
@example((_SCENARIO, ("policy", "requirements", 0, "forbid", "job")), 3)
@example((_FULL_SCENARIO, ("profiles", "P1", "publish", "perturb", "city")), {"a": 1})
@example((_FULL_SCENARIO, ("policy", "sigma")), 10**400)
@example((_FULL_SCENARIO, ("profiles", "P1", "prior", "m1")), 10**400)
@example((_FULL_SCENARIO, ("kappa", "rows", "P1", "m1")), 10**400)
def test_framework_run_answers_or_fails_in_one_line_for_any_one_field(base_path, value):
    base, path = base_path
    scenario = json.loads(json.dumps(base))
    if path:
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        scenario = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = os.path.join(tmp, "scenario.json")
        with open(scenario_path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(["framework", "run", scenario_path])
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert code == 0 and err.getvalue() == ""
    report = json.loads(out.getvalue(), parse_constant=_no_constant)
    for masses in report["posteriors"].values():
        assert all(math.isfinite(m) and m >= 0 for m in masses.values())
        assert math.isclose(sum(masses.values()), 1.0, abs_tol=1e-9)
    for observed in report["observation"].values():
        assert all(isinstance(v, str) for v in observed.values())
    for requirement in report["requirements"]:
        assert all(isinstance(v, str) for v in requirement["forbid"].values())


def test_framework_run_with_a_table_kappa(tmp_path, capsys):
    scenario = json.loads(json.dumps(_SCENARIO))
    scenario["kappa"] = {"kind": "table", "rows": {"P1": {"m1": 0.25, "m2": 0.75}}}
    code, report, _ = _run_scenario(tmp_path, capsys, scenario)
    assert code == 0
    assert report["posteriors"] == {"P1": {"m1": 0.25, "m2": 0.75}}
    assert report["policy_satisfied"] is True  # 0.25 on job=dev is below sigma


def test_framework_run_with_an_exact_match_kappa(tmp_path, capsys):
    scenario = json.loads(json.dumps(_SCENARIO))
    scenario["kappa"] = {"kind": "exact_match"}
    code, report, _ = _run_scenario(tmp_path, capsys, scenario)
    assert code == 0
    assert report["posteriors"] == {"P1": {"m1": 1.0, "m2": 0.0}}
    # with only part of the model revealed no candidate equals the observation,
    # while the consistency kappa still accepts both
    scenario.update(attributes=["job", "city"],
                    models={"m1": {"job": "dev", "city": "x"}, "m2": {"job": "dev", "city": "y"}})
    code, out, err = _run_scenario(tmp_path, capsys, scenario)
    assert (code, out) == (1, "")
    assert err == "error: observation impossible under prior for profile 'P1'\n"
    scenario["kappa"] = {"kind": "consistency"}
    code, report, _ = _run_scenario(tmp_path, capsys, scenario)
    assert code == 0
    assert report["posteriors"] == {"P1": {"m1": 0.5, "m2": 0.5}}


def test_framework_run_rejects_an_unknown_kappa_kind(tmp_path, capsys):
    scenario = json.loads(json.dumps(_SCENARIO))
    scenario["kappa"] = {"kind": "fuzzy"}
    code, out, err = _run_scenario(tmp_path, capsys, scenario)
    assert (code, out) == (1, "")
    assert err == "error: unknown kappa kind 'fuzzy'\n"


def test_framework_run_without_publish_reveals_the_whole_model(tmp_path, capsys):
    scenario = json.loads(json.dumps(_SCENARIO))
    code, explicit, _ = _run_scenario(tmp_path, capsys, scenario)
    del scenario["profiles"]["P1"]["publish"]
    code_default, default, _ = _run_scenario(tmp_path, capsys, scenario)
    assert (code, code_default) == (0, 0)
    assert default == explicit and default["observation"] == {"P1": {"job": "dev"}}


@pytest.mark.parametrize("sigma", [-0.1, 1.5])
def test_framework_run_rejects_sigma_outside_the_unit_interval(tmp_path, capsys, sigma):
    scenario = json.loads(json.dumps(_SCENARIO))
    scenario["policy"]["sigma"] = sigma
    code, out, err = _run_scenario(tmp_path, capsys, scenario)
    assert (code, out) == (1, "")
    assert err == "error: sigma must be in [0, 1]\n"
