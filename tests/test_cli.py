import csv
import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from linkrisk import cli, lm


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_prints_t(capsys):
    code, out, _ = run(capsys, "bound", "--c", "0.2", "--d", "0.1", "--k", "5")
    assert code == 0
    assert "t = 0.857143" in out


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
    code, _, _ = run(capsys)
    assert code == 2


def test_missing_input_file_exits_one(capsys):
    code, _, err = run(
        capsys, "ingest", "--input", "/nonexistent/path.jsonl", "--out", "/tmp/x-linkrisk-test"
    )
    assert code == 1
    assert "/nonexistent/path.jsonl" in err


def test_framework_impossibility(capsys):
    code, out, _ = run(capsys, "framework", "impossibility")
    assert code == 0
    assert "SD = 1.0" in out


def test_framework_without_action_exits_two(capsys):
    code, _, _ = run(capsys, "framework")
    assert code == 2


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
    code, out, _ = run(
        capsys, "anonymity", "--models", str(work / "models.jsonl"), "--community", "alpha",
        "--subject", "u1", "--d", "1.0",
    )
    assert code == 0
    assert json.loads(out)["k"] == 6


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
    code, _, _ = run(capsys, "distances", "--models", str(work / "models.jsonl"),
                     "--community", "alpha", "--out", str(work))
    assert code == 0
    profiles, _, _ = lm.load_models(work / "models.jsonl")
    in_memory = anonymity.DistanceMatrix.build({a: m for (a, _), m in profiles.items()})
    for subject in in_memory.keys:
        for d in in_memory.values[in_memory.index_of(subject)]:
            _, from_matrix, _ = run(capsys, "anonymity", "--matrix", str(work / "alpha.dmat"),
                                    "--subject", subject, "--d", repr(float(d)))
            _, from_models, _ = run(capsys, "anonymity", "--models", str(work / "models.jsonl"),
                                    "--community", "alpha", "--subject", subject,
                                    "--d", repr(float(d)))
            assert from_matrix == from_models
            assert json.loads(from_matrix)["k"] == int(np.count_nonzero(
                in_memory.values[in_memory.index_of(subject)] <= d))


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


def test_anonymity_matrix_errors_keep_their_order(tmp_path, capsys):
    from linkrisk.anonymity import DistanceMatrix

    path = tmp_path / "m.dmat"
    DistanceMatrix(keys=["a", "b"], values=np.array([[0.0, 0.3], [0.3, 0.0]])).save(path)
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
    (("bound", "--c", "0.2", "--d", "0.1", "--k", "5"), "workers=abc",
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
    message = f"error: line 2: {kind} models are no longer stored; re-run linkrisk build-models\n"
    assert run(capsys, *argv) == (1, "", message)
    assert not (tmp_path / "out").exists()


def test_a_community_record_that_contradicts_the_profiles_is_refused(tmp_path, capsys):
    # the community record claims a token that no profile of the community holds
    profiles = ('{"counts":{"x":2},"key":["u0","alpha"],"kind":"profile"}\n'
                '{"counts":{"x":1,"z":3},"key":["u1","alpha"],"kind":"profile"}\n')
    path = tmp_path / "models.jsonl"
    path.write_text(profiles + '{"counts":{"y":100},"key":"alpha","kind":"community"}\n', encoding="utf-8")
    message = "error: line 3: community models are no longer stored; re-run linkrisk build-models\n"
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
    (("eval", "--profiles", "{file}", "--community-a", "alpha", "--community-b", "beta", "--out", "{out}"),
     "line 1: not valid JSON ("),
    (("build-models", "--profiles", "{file}", "--out", "{out}"), "line 1: not valid JSON ("),
    (("top-unigrams", "--models", "{file}", "--kind", "global"), "line 1: not valid JSON ("),
    (("distances", "--models", "{file}", "--community", "alpha", "--out", "{out}"), "line 1: not valid JSON ("),
    (("anonymity", "--models", "{file}", "--community", "alpha", "--subject", "u0", "--d", "0.5"),
     "line 1: not valid JSON ("),
    (("anonymity", "--matrix", "{file}", "--subject", "u0", "--d", "0.5"),
     "{file}: not a linkrisk distance matrix\n"),
    (("framework", "run", "{file}"), "scenario is not valid JSON ("),
], ids=["eval", "build-models", "top-unigrams", "distances", "anonymity-models", "anonymity-matrix",
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
