"""The benchmark's layer tracer still binds to the library it measures.

`perfbench/spans.py` wraps the functions named in each layer's `__all__` and
binds counters to argument names (`dists`, `dists_a`, `dists_b`, the `path`
of `lm.save_models` and `DistanceMatrix.save`) and result fields (`links`).
A rename in the library would otherwise show only in a benchmark run.  The
tracer is imported as it is, never modified.
"""

import json
import os
import sys
from types import SimpleNamespace

from linkrisk import anonymity, cli, corpus, evaluation, lm, metric

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
LAYERS = SimpleNamespace(cli=cli, corpus=corpus, lm=lm, metric=metric, anonymity=anonymity,
                         evaluation=evaluation)


def _bindings(spans):
    """Every attribute the tracer replaces, with the object it holds now."""
    owners = [getattr(LAYERS, layer) for layer in spans.WRAPPED_MODULES]
    bound = {(module.__name__, attr): module.__dict__[attr]
             for module in owners for attr in module.__all__}
    matrix = anonymity.DistanceMatrix
    bound.update({("DistanceMatrix", attr): matrix.__dict__[attr] for attr in ("build", "load", "save")})
    bound[("cli", "dispatch")] = cli.__dict__["dispatch"]
    return bound


def _traced(monkeypatch, argvs):
    """Run each argv through `cli.dispatch` under the tracer; its layer metrics once removed."""
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import spans

    before = _bindings(spans)
    tracer = spans.Tracer("contract")
    tracer.install(LAYERS)
    try:
        codes = [cli.dispatch(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert codes == [0] * len(argvs)
    return {name: value for name, (value, _) in spans.layer_metrics(tracer).items()}


def _write_profiles(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def test_tracer_counts_an_eval_run_and_restores_every_attribute(tmp_path, capsys, monkeypatch):
    na, nb, shared = 3, 4, 2
    profiles = tmp_path / "profiles.jsonl"
    lines = [{"author": f"u{i}", "community": "alpha", "n_comments": 1, "tokens": [f"t{i}", "x"]}
             for i in range(na)]
    lines += [{"author": f"u{i}", "community": "beta", "n_comments": 1, "tokens": [f"t{i}", "y"]}
              for i in range(na - shared, na - shared + nb)]
    _write_profiles(profiles, lines)

    layer = _traced(monkeypatch, [["eval", "--profiles", str(profiles), "--community-a", "alpha",
                                   "--community-b", "beta", "--k", "1,2", "--out", str(tmp_path / "out")]])
    capsys.readouterr()
    assert layer["metric.pairs"] == na * nb + na * (na - 1) // 2 + nb * (nb - 1) // 2
    # two tokens per profile: the cross matrix reads 4*6 + 3*8 entries, the within matrices 2*6 and 3*8
    assert layer["metric.support_elems"] == 84
    assert layer["lm.to_distribution_calls"] == na + nb
    assert layer["evaluation.links"] == shared
    assert layer["cli.calls"] == 1
    assert layer["cli.nonzero_exits"] == 0


def test_tracer_counts_the_matrix_store_commands(tmp_path, capsys, monkeypatch):
    n = 5
    profiles = tmp_path / "profiles.jsonl"
    _write_profiles(profiles, [{"author": f"u{i}", "community": "alpha", "n_comments": 1,
                                "tokens": [f"t{i}", "x", "x"]} for i in range(n)])
    models, dmat = tmp_path / "models.jsonl", tmp_path / "alpha.dmat"
    queries = [(f"u{i}", d) for i in range(n) for d in ("0.0", "0.5", "1.0")]
    layer = _traced(monkeypatch, [
        ["build-models", "--profiles", str(profiles), "--out", str(tmp_path)],
        ["distances", "--models", str(models), "--community", "alpha", "--out", str(tmp_path)],
        *(["anonymity", "--matrix", str(dmat), "--subject", s, "--d", d] for s, d in queries),
    ])
    capsys.readouterr()
    # A gap in the tracer, not a property of the queries: each reads one row with anonymity._load_row,
    # which spans.py does not wrap, so the queries are counted by cli.calls alone.  When the tracer
    # wraps _load_row as the query's load (ROADMAP item 8), this is len(queries) again.
    assert layer["anonymity.load_calls"] == 0
    assert layer["anonymity.dmat_bytes"] == os.path.getsize(dmat)
    assert layer["lm.store_bytes"] == os.path.getsize(models)
    assert layer["metric.pairs"] == n * (n - 1) // 2
    assert layer["cli.calls"] == 2 + len(queries)
    assert layer["cli.nonzero_exits"] == 0


def test_tracer_counts_a_matrix_built_from_the_model_store(tmp_path, capsys, monkeypatch):
    # distances hands pairwise_distances a prepared collection, and anonymity --models hands
    # cross_distances one prepared source row against it; the tracer counts the rows of each
    n = 4
    profiles, models = tmp_path / "profiles.jsonl", str(tmp_path / "models.jsonl")
    _write_profiles(profiles, [{"author": f"u{i}", "community": "alpha", "n_comments": 1,
                                "tokens": [f"t{j}" for j in range(i + 1)]} for i in range(n)])
    _traced(monkeypatch, [["build-models", "--profiles", str(profiles), "--out", str(tmp_path)]])
    layer = _traced(monkeypatch, [["distances", "--models", models, "--community", "alpha",
                                   "--out", str(tmp_path)]])
    assert layer["metric.pairs"] == n * (n - 1) // 2
    # supports 1, 2, 3 and 4: each row is read against the other n - 1
    assert layer["metric.support_elems"] == (n - 1) * 10
    assert layer["lm.to_distribution_calls"] == n
    assert layer["cli.calls"] == 1
    layer = _traced(monkeypatch, [["anonymity", "--models", models, "--community", "alpha",
                                   "--subject", "u0", "--d", "0.5"]])
    capsys.readouterr()
    assert layer["metric.pairs"] == n
    # u0's support of 1 read against n targets, and their 1 + 2 + 3 + 4 entries against one source
    assert layer["metric.support_elems"] == n * 1 + 10
    # the subject's distribution is made once more, as the source
    assert layer["lm.to_distribution_calls"] == n + 1
    assert layer["cli.calls"] == 1


def test_each_benchmark_sequence_yields_every_per_layer_metric(tmp_path, capsys, monkeypatch):
    # perfbench/run.py reads every per_layer name of BENCHMARK.json from one workload's trace,
    # so a layer call dropped from a sequence (lm.build_models in eval, say) fails that run
    with open(os.path.join(PERFBENCH, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {spec["name"] for spec in json.load(fh)["per_layer"]}
    wanted -= {"metric.speedup_w2", "anonymity.boundary_disagreements", "trace.overhead_s"}  # run.py's own
    corp = evaluation.synth_corpus(n_users=6, topics=2, comments_per_user=4, rng_seed=3)
    comments = tmp_path / "all.jsonl"
    comments.write_text(evaluation.comments_to_jsonl(corp.comments_a + corp.comments_b), encoding="utf-8")
    ingest = ["ingest", "--input", str(comments), "--min-comments", "1", "--min-profiles", "1",
              "--out", str(tmp_path / "ingest")]
    profiles = str(tmp_path / "ingest" / "profiles.jsonl")
    eval_run = _traced(monkeypatch, [ingest, [
        "eval", "--profiles", profiles, "--community-a", "alpha", "--community-b", "beta",
        "--k", "1,5", "--workers", "2", "--out", str(tmp_path / "report")]])
    audit_run = _traced(monkeypatch, [
        ingest,
        ["build-models", "--profiles", profiles, "--out", str(tmp_path / "models")],
        ["distances", "--models", str(tmp_path / "models" / "models.jsonl"), "--community", "alpha",
         "--workers", "2", "--out", str(tmp_path / "matrix")],
        ["anonymity", "--matrix", str(tmp_path / "matrix" / "alpha.dmat"),
         "--subject", corp.links[0].source, "--d", "0.5", "--k", "2"],
        ["bound", "--c", "0.5", "--d", "0.1", "--k", "2"],
    ])
    capsys.readouterr()
    assert sorted(wanted - eval_run.keys()) == []
    assert sorted(wanted - audit_run.keys()) == []
