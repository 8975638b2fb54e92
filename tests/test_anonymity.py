import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkrisk import anonymity, cli, corpus, evaluation, lm, metric
from linkrisk.anonymity import DistanceMatrix
from conftest import random_distribution


def matrix_from(entries, keys):
    """Build a DistanceMatrix from explicit symmetric entries."""
    n = len(keys)
    values = np.zeros((n, n))
    for (i, j), v in entries.items():
        values[i, j] = values[j, i] = v
    return DistanceMatrix(keys=list(keys), values=values[np.triu_indices(n, k=1)])


@pytest.fixture
def toy_matrix():
    # distances from "s": p1 -> 0.2, p2 -> 0.6
    return matrix_from(
        {(0, 1): 0.2, (0, 2): 0.6, (1, 2): 0.5},
        ["s", "p1", "p2"],
    )


def test_convergent_subset_radius_zero(toy_matrix):
    members = anonymity.convergent_subset(toy_matrix, "s", 0.0)
    assert members == ("s",)
    assert len(members) == 1


def test_convergent_subset_radius_zero_includes_duplicates():
    m = matrix_from({(0, 1): 0.0, (0, 2): 0.7, (1, 2): 0.7}, ["s", "twin", "far"])
    members = anonymity.convergent_subset(m, "s", 0.0)
    assert set(members) == {"s", "twin"}


def test_convergent_subset_radius_one_is_everyone(toy_matrix):
    assert len(anonymity.convergent_subset(toy_matrix, "s", 1.0)) == 3


def test_convergent_subset_midway(toy_matrix):
    members = anonymity.convergent_subset(toy_matrix, "s", 0.5)
    assert set(members) == {"s", "p1"}
    assert len(members) == 2


def test_convergent_subset_unknown_subject(toy_matrix):
    with pytest.raises(ValueError, match="unknown profile"):
        anonymity.convergent_subset(toy_matrix, "nobody", 0.5)
    with pytest.raises(ValueError):
        anonymity.convergent_subset(toy_matrix, "s", 1.5)


def test_is_kd_anonymous(toy_matrix):
    assert anonymity.is_kd_anonymous(toy_matrix, "s", 1, 0.0)
    assert anonymity.is_kd_anonymous(toy_matrix, "s", 2, 0.5)
    assert not anonymity.is_kd_anonymous(toy_matrix, "s", 3, 0.5)
    assert not anonymity.is_kd_anonymous(toy_matrix, "s", 4, 1.0)
    with pytest.raises(ValueError):
        anonymity.is_kd_anonymous(toy_matrix, "s", 0, 0.5)


def test_kd_monotone_in_d_antitone_in_k():
    rng = np.random.default_rng(31)
    models = {f"p{i}": random_distribution(rng) for i in range(12)}
    m = DistanceMatrix.build(models)
    for _ in range(60):
        subject = f"p{int(rng.integers(12))}"
        d1, d2 = sorted(rng.random(2))
        k = int(rng.integers(1, 13))
        if anonymity.is_kd_anonymous(m, subject, k, d1):
            assert anonymity.is_kd_anonymous(m, subject, k, d2)
        if anonymity.is_kd_anonymous(m, subject, k, d1) and k > 1:
            assert anonymity.is_kd_anonymous(m, subject, k - 1, d1)


def test_lemma_bound_constructed_case():
    # anchor at c from the target, member at d from the anchor
    m = matrix_from(
        {(0, 1): 0.3, (0, 2): 0.1, (1, 2): 0.35},
        ["anchor", "target", "member"],
    )
    assert anonymity.lemma_bound_check(m, ["anchor", "member"], "target", c=0.3, d=0.1)


def test_lemma_bound_singleton_reduces_to_c():
    m = matrix_from({(0, 1): 0.25}, ["anchor", "target"])
    assert anonymity.lemma_bound_check(m, ["anchor"], "target", c=0.25, d=0.0)


def test_lemma_bound_precondition_violation():
    m = matrix_from({(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.9}, ["a", "t", "b"])
    with pytest.raises(ValueError, match="precondition"):
        anonymity.lemma_bound_check(m, ["a", "b"], "t", c=0.1, d=0.1)
    just_above = matrix_from({(0, 1): 0.31}, ["a", "t"])  # c-matching is dist <= c: 0.31 misses c = 0.3
    with pytest.raises(ValueError, match="precondition"):
        anonymity.lemma_bound_check(just_above, ["a"], "t", c=0.3, d=0.0)


def test_lemma_bound_random_instances():
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        models = {f"p{i}": random_distribution(rng) for i in range(n)}
        models["target"] = random_distribution(rng)
        m = DistanceMatrix.build(models)
        anchor = f"p{int(rng.integers(n))}"
        c = m.distance(anchor, "target")
        d = float(rng.random())
        members = [k for k in m.keys if k != "target" and m.distance(anchor, k) <= d]
        assert anonymity.lemma_bound_check(m, members, "target", c=c, d=d)


def test_choice_likelihood_two_candidates():
    m = matrix_from(
        {(0, 1): 0.2, (0, 2): 0.8, (1, 2): 0.5},
        ["t", "c1", "c2"],
    )
    assert anonymity.choice_likelihood(m, ["c1", "c2"], "t", "c1") == pytest.approx(0.8)
    assert anonymity.choice_likelihood(m, ["c1", "c2"], "t", "c2") == pytest.approx(0.2)


def test_choice_likelihood_equidistant():
    n = 5
    keys = ["t"] + [f"c{i}" for i in range(n)]
    entries = {(0, i + 1): 0.4 for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i + 1, j + 1)] = 0.3
    m = matrix_from(entries, keys)
    cands = [f"c{i}" for i in range(n)]
    for c in cands:
        assert anonymity.choice_likelihood(m, cands, "t", c) == pytest.approx(1 - 1 / n)


def test_choice_likelihood_normalized_sums_to_one():
    rng = np.random.default_rng(33)
    models = {f"p{i}": random_distribution(rng) for i in range(6)}
    models["t"] = random_distribution(rng)
    m = DistanceMatrix.build(models)
    cands = [f"p{i}" for i in range(6)]
    total = sum(anonymity.choice_likelihood(m, cands, "t", c, normalized=True) for c in cands)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_choice_likelihood_degenerate():
    m = matrix_from({(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}, ["t", "c1", "c2"])
    with pytest.raises(ValueError, match="degenerate"):
        anonymity.choice_likelihood(m, ["c1", "c2"], "t", "c1")
    with pytest.raises(ValueError):
        anonymity.choice_likelihood(m, ["c1"], "t", "c1")


def test_choice_likelihood_chosen_must_be_a_candidate():
    m = matrix_from({(0, 1): 0.2, (0, 2): 0.8, (1, 2): 0.5}, ["t", "c1", "c2"])
    with pytest.raises(ValueError, match="^chosen profile 't' not among candidates$"):
        anonymity.choice_likelihood(m, ["c1", "c2"], "t", "t")


def test_matching_bound_values():
    assert anonymity.matching_bound(0.5, 0.3, 1) == 0.0
    assert anonymity.matching_bound(0.2, 0.1, 5) == pytest.approx(1 - 0.2 / 1.4)
    assert anonymity.matching_bound(1.0, 1.0, 2) == pytest.approx(2 / 3)


@pytest.mark.parametrize("exponent", [17, 308, 309, 400])
def test_matching_bound_reaches_its_limit_for_a_huge_k(exponent):
    # from 10**309 on, k - 1 does not fit in a float
    k = 10**exponent
    assert anonymity.matching_bound(0.5, 0.1, k) == 1.0
    assert anonymity.matching_bound(1e-300, 0.0, k) == 1.0


def test_matching_bound_errors():
    with pytest.raises(ValueError, match="zero matching distance"):
        anonymity.matching_bound(0.0, 0.1, 3)
    with pytest.raises(ValueError):
        anonymity.matching_bound(0.2, -0.1, 3)
    with pytest.raises(ValueError):
        anonymity.matching_bound(0.2, 0.1, 0)


def test_bound_in_range():
    rng = np.random.default_rng(34)
    for _ in range(200):
        c = float(rng.uniform(1e-6, 1.0))
        d = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(1, 100))
        t = anonymity.matching_bound(c, d, k)
        assert 0.0 <= t < 1.0


def test_metric_claims_hold_on_eval_scale_matrices(tmp_path):
    """The paper's metric claims on the matrices `eval` computes, 300 users per side.

    Across the cross kernel and the pairwise kernel (read back from `.dmat`):
    the triangle inequality for every triple, the (c+d)-lemma with d = c
    around each link's source, and the distance-only choice likelihood of
    the true target among its radius-c ball in beta, bounded by
    `matching_bound(c, c, k)`.  These distances lie in [0.64, 1], so the
    claims hold with slack: they catch an entry far too small, such as a
    stale zero, but not a pairwise entry written to its neighbour's place.
    The two kernels computing the same square bit for bit catches that.
    """
    corp = evaluation.synth_corpus(n_users=300, topics=20, rng_seed=42)
    cfg = corpus.NormalizationConfig.default()
    streams = corpus.aggregate_profiles(corp.comments_a + corp.comments_b, cfg)
    models = lm.build_models(streams)[0]
    side = {c: {a: m for (a, comm), m in models.items() if comm == c} for c in ("alpha", "beta")}
    dists = {c: [lm.to_distribution(side[c][a]) for a in sorted(side[c])] for c in side}
    cross = metric.cross_distances(dists["alpha"], dists["beta"])
    within = {}
    for c in side:
        DistanceMatrix(sorted(side[c]), metric.pairwise_distances(dists[c])).save(tmp_path / f"{c}.dmat")
        within[c] = DistanceMatrix.load(tmp_path / f"{c}.dmat").values
        assert np.array_equal(within[c], metric.cross_distances(dists[c], dists[c]))
    tol = 4 * np.finfo(np.float64).eps  # a few ulps of a distance in [0, 1]

    excess = -np.inf
    for s in range(cross.shape[0]):  # |cross[s, t] - cross[x, t]| <= within_a[s, x], one source row at a time
        excess = max(excess, (np.abs(cross[s] - cross) - within["alpha"][s][:, None]).max())
    for t in range(cross.shape[1]):  # |cross[s, t] - cross[s, y]| <= within_b[t, y]
        excess = max(excess, (np.abs(cross[:, [t]] - cross) - within["beta"][t]).max())
    assert excess <= tol, excess

    index_b = {a: i for i, a in enumerate(sorted(side["beta"]))}
    lemma_slack, bound_excess = np.inf, -np.inf
    for s, source in enumerate(sorted(side["alpha"])):
        t = index_b[source]  # the same user
        c = cross[s, t]
        members = within["alpha"][s] <= c  # the source's c-neighborhood: d = c
        lemma_slack = min(lemma_slack, (2 * c - cross[members, t]).min())
        ball = within["beta"][t] <= c  # the candidates: the target's ball at radius c
        k = int(np.count_nonzero(ball))
        likelihood = 1.0 - c / cross[s, ball].sum()  # choice_likelihood's raw score of the true target
        bound_excess = max(bound_excess, likelihood - anonymity.matching_bound(c, c, k))
    assert lemma_slack >= -tol, lemma_slack
    assert bound_excess <= tol, bound_excess


def test_build_sorts_keys_and_is_symmetric():
    rng = np.random.default_rng(35)
    models = {name: random_distribution(rng) for name in ("zeta", "alpha", "mid")}
    m = DistanceMatrix.build(models)
    assert m.keys == ["alpha", "mid", "zeta"]
    assert np.array_equal(m.values, m.values.T)
    assert np.all(np.diag(m.values) == 0.0)


def test_build_accepts_unigram_models():
    models = {
        "a": lm.UnigramModel.from_tokens(["x", "x", "y"]),
        "b": lm.UnigramModel.from_tokens(["y", "z"]),
    }
    m = DistanceMatrix.build(models)
    expected = metric.distance(
        lm.to_distribution(models["a"]), lm.to_distribution(models["b"])
    )
    assert m.distance("a", "b") == pytest.approx(expected, abs=1e-12)


def test_matrix_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(36)
    models = {f"p{i}": random_distribution(rng) for i in range(8)}
    m = DistanceMatrix.build(models)
    path = tmp_path / "c.dmat"
    m.save(path)
    loaded = DistanceMatrix.load(path)
    assert loaded.keys == m.keys
    # float64 storage: the round trip is exact
    assert np.array_equal(loaded.values, m.values)
    assert np.array_equal(loaded.values, loaded.values.T)


def test_matrix_load_rejects_corruption(tmp_path):
    rng = np.random.default_rng(37)
    models = {f"p{i}": random_distribution(rng) for i in range(4)}
    path = tmp_path / "c.dmat"
    DistanceMatrix.build(models).save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-2] + bytes([blob[-2] ^ 0xFF]) + blob[-1:])
    with pytest.raises(ValueError, match="checksum"):
        DistanceMatrix.load(path)
    (tmp_path / "other").write_bytes(b'{"format":"nope"}\n')
    with pytest.raises(ValueError, match="not a linkrisk"):
        DistanceMatrix.load(tmp_path / "other")


def test_build_worker_determinism():
    rng = np.random.default_rng(38)
    models = {f"p{i}": random_distribution(rng) for i in range(14)}
    m1 = DistanceMatrix.build(models, workers=1)
    m2 = DistanceMatrix.build(models, workers=4)
    assert np.array_equal(m1.values, m2.values)


def _write_dmat(path, header, payload):
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n")
        fh.write(payload)


def test_matrix_v2_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(39)
    models = {f"p{i}": random_distribution(rng) for i in range(9)}
    m = DistanceMatrix.build(models)
    path = tmp_path / "c.dmat"
    m.save(path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert (header["version"], header["dtype"]) == (3, "<f8")
    loaded = DistanceMatrix.load(path)
    assert loaded.keys == m.keys
    assert np.array_equal(loaded.values, m.values)


def _refusal(path, version):
    return f"{path}: .dmat version {version!r} is not read; re-run linkrisk distances"


def test_matrix_loads_version_1_float32_file(tmp_path, capsys):
    """A version 1 file is refused as a whole, by the loader and by `anonymity --matrix`."""
    path = tmp_path / "v1.dmat"
    path.write_bytes(_v1_bytes(["a", "b", "c"], [0.1, 0.25, 0.7]))
    with pytest.raises(ValueError) as info:
        DistanceMatrix.load(path)
    assert str(info.value) == _refusal(path, 1)
    code = cli.dispatch(["anonymity", "--matrix", str(path), "--subject", "a", "--d", "0.25"])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {_refusal(path, 1)}\n")


def _v2_bytes(keys, tri):
    """A version 2 file as earlier releases wrote it: one checksum over header and payload, no digests."""
    payload = np.asarray(tri, dtype="<f8").tobytes()
    header = {"format": "linkrisk-dmat", "version": 2, "n": len(keys), "keys": keys,
              "ordering": "row-major-upper", "dtype": "<f8"}
    canonical = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header["checksum"] = "sha256:" + hashlib.sha256(canonical + b"\n" + payload).hexdigest()
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n" + payload


def test_matrix_refuses_version_2_file(tmp_path, capsys):
    """A version 2 file is refused before its payload is read, by the loader and by `anonymity --matrix`."""
    path = tmp_path / "v2.dmat"
    path.write_bytes(_v2_bytes(["a", "b", "c"], [0.1, 0.25, 0.7]))
    with mock.patch.object(anonymity.np, "frombuffer", side_effect=AssertionError("payload read")):
        with pytest.raises(ValueError) as info:
            DistanceMatrix.load(path)
        code = cli.dispatch(["anonymity", "--matrix", str(path), "--subject", "a", "--d", "0.25"])
    assert str(info.value) == _refusal(path, 2)
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {_refusal(path, 2)}\n")


def _signed(header):
    """`header` with its checksum recomputed, so the header itself is consistent."""
    return {**header, "checksum": anonymity._dmat_checksum(header)}


def _with_payload(header, values):
    """A header and payload for `values` whose checksum holds, so only the values are wrong.

    Each row's digest is rebuilt for the new values, and the checksum for
    that header.
    """
    tri = np.asarray(values, dtype="<f8")
    n = header["n"]
    square, upper = np.zeros((n, n), dtype="<f8"), np.triu_indices(n, k=1)
    square[upper] = square.T[upper] = tri
    digests = [hashlib.sha256(row.tobytes()).hexdigest() for row in square]
    return _signed({**header, "row_sha256": digests}), tri.tobytes()


# (header, payload) edits of a valid 3-key file and the message each must raise
DMAT_CORRUPTIONS = [
    pytest.param(
        lambda h, p: ({**h, "n": 4}, p), "n = 4 but the header lists 3 keys",
        id="n-mismatch",
    ),
    pytest.param(
        lambda h, p: ({**h, "keys": ["a", "a", "b"]}, p), "keys are not unique",
        id="duplicate-keys",
    ),
    pytest.param(
        lambda h, p: ({**h, "keys": ["a", 1, "b"]}, p), "keys must be a list of strings",
        id="non-string-key",
    ),
    pytest.param(
        lambda h, p: (h, p[:-8]), "payload is 16 bytes, expected 24",
        id="short-payload",
    ),
    pytest.param(
        lambda h, p: (h, p + b"\0"), "payload is 25 bytes, expected 24",
        id="long-payload",
    ),
    pytest.param(
        lambda h, p: ({**h, "keys": ["a", "b", "z"]}, p), "checksum mismatch",
        id="header-tampered",
    ),
    pytest.param(
        lambda h, p: ({**h, "dtype": "<f4"}, p), "needs dtype <f8",
        id="dtype-mismatch",
    ),
    pytest.param(
        lambda h, p: ({**h, "version": 4}, p), ".dmat version 4 is not read; re-run linkrisk distances",
        id="unknown-version",
    ),
    pytest.param(
        lambda h, p: ({**h, "version": True}, p), ".dmat version True is not read; re-run linkrisk distances",
        id="boolean-version",
    ),
    pytest.param(
        lambda h, p: ({**h, "version": "3"}, p), ".dmat version '3' is not read; re-run linkrisk distances",
        id="string-version",
    ),
    pytest.param(
        lambda h, p: ({**h, "version": 1}, p), ".dmat version 1 is not read; re-run linkrisk distances",
        id="version-1",
    ),
    pytest.param(
        lambda h, p: ({**h, "version": 2}, p), ".dmat version 2 is not read; re-run linkrisk distances",
        id="version-2",
    ),
    pytest.param(
        lambda h, p: (_signed({**h, "row_sha256": h["row_sha256"][:-1]}), p),
        "row_sha256 must be a list of 3 strings",
        id="row-digests-short",
    ),
    pytest.param(
        lambda h, p: (_signed({**h, "row_sha256": [h["row_sha256"][0], 1, h["row_sha256"][2]]}), p),
        "row_sha256 must be a list of 3 strings",
        id="row-digest-not-string",
    ),
    pytest.param(
        lambda h, p: ({**h, "row_sha256": [h["row_sha256"][1], *h["row_sha256"][1:]]}, p), "checksum mismatch",
        id="row-digest-tampered",
    ),
    pytest.param(
        lambda h, p: (_signed({**h, "row_sha256": [*h["row_sha256"][:2], h["row_sha256"][0]]}), p),
        "checksum mismatch",
        id="row-digest-re-signed",
    ),
    pytest.param(
        lambda h, p: ({**h, "n": True, "keys": ["a"]}, b""), "n = True but the header lists 1 keys",
        id="boolean-n",
    ),
    pytest.param(
        lambda h, p: ({k: v for k, v in h.items() if k != "checksum"}, p), "checksum mismatch",
        id="no-checksum",
    ),
    pytest.param(
        lambda h, p: _with_payload(h, [0.2, np.nan, 0.5]), "distance nan is not in [0, 1]",
        id="nan-distance",
    ),
    pytest.param(
        lambda h, p: _with_payload(h, [0.2, 1.5, 0.5]), "distance 1.5 is not in [0, 1]",
        id="distance-above-one",
    ),
    pytest.param(
        lambda h, p: _with_payload(h, [0.2, 0.6, -0.2]), "distance -0.2 is not in [0, 1]",
        id="negative-distance",
    ),
    pytest.param(
        lambda h, p: (h, np.array([0.2, 1.5, 0.5]).tobytes()), "checksum mismatch",
        id="distance-above-one-and-checksum",
    ),
]


@pytest.mark.parametrize("change, message", DMAT_CORRUPTIONS)
def test_matrix_load_validates_header_and_payload(tmp_path, change, message):
    m = matrix_from({(0, 1): 0.2, (0, 2): 0.6, (1, 2): 0.5}, ["a", "b", "c"])
    path = tmp_path / "m.dmat"
    m.save(path)
    first, payload = path.read_bytes().split(b"\n", 1)
    header, payload = change(json.loads(first), payload)
    _write_dmat(path, header, payload)
    with pytest.raises(ValueError) as info:
        DistanceMatrix.load(path)
    assert message in str(info.value)
    assert str(info.value).startswith(f"{path}: ")
    assert "\n" not in str(info.value)


def test_load_runs_each_check_once(tmp_path):
    m = matrix_from({(0, 1): 0.2, (0, 2): 0.6, (1, 2): 0.5}, ["a", "b", "c"])
    path = tmp_path / "m.dmat"
    m.save(path)
    with mock.patch.object(anonymity, "_check_keys", wraps=anonymity._check_keys) as keys, \
            mock.patch.object(anonymity, "_check_distances", wraps=anonymity._check_distances) as dists:
        loaded = DistanceMatrix.load(path)
    assert keys.call_count == 1 and dists.call_count == 1
    assert keys.call_args.args[1] == dists.call_args.args[1] == f"{path}: "
    assert loaded.keys == m.keys and np.array_equal(loaded.tri, m.tri)
    assert np.array_equal(loaded.values, m.values)


def test_matrix_load_rejects_header_that_is_not_json(tmp_path):
    path = tmp_path / "junk.dmat"
    path.write_bytes(b"\xff\xfe not json\n\x00\x01")
    with pytest.raises(ValueError, match="not a linkrisk distance matrix"):
        DistanceMatrix.load(path)


# --- row-only reads of a loaded matrix -----------------------------------------

@pytest.mark.parametrize("change, message", DMAT_CORRUPTIONS)
def test_load_rows_validates_header_and_payload(tmp_path, capsys, change, message):
    m = matrix_from({(0, 1): 0.2, (0, 2): 0.6, (1, 2): 0.5}, ["a", "b", "c"])
    path = tmp_path / "m.dmat"
    m.save(path)
    first, payload = path.read_bytes().split(b"\n", 1)
    header, payload = change(json.loads(first), payload)
    _write_dmat(path, header, payload)
    with pytest.raises(ValueError) as info:
        DistanceMatrix.load(path)
    assert message in str(info.value)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError) as from_load:
        DistanceMatrix.load(path)
    assert str(from_load.value) == str(info.value)
    # a query verifies its own row: c's holds payload entries 1 and 2, every entry a case changes
    code = cli.dispatch(["anonymity", "--matrix", str(path), "--subject", "c", "--d", "0.5"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_load_rows_rejects_corruption_and_junk(tmp_path):
    m = matrix_from({(0, 1): 0.2, (0, 2): 0.6, (1, 2): 0.5}, ["a", "b", "c"])
    path = tmp_path / "c.dmat"
    m.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-2] + bytes([blob[-2] ^ 0xFF]) + blob[-1:])
    with pytest.raises(ValueError, match="checksum mismatch"):
        DistanceMatrix.load(path)
    path.write_bytes(b"\xff\xfe not json\n\x00\x01")
    with pytest.raises(ValueError, match="not a linkrisk distance matrix"):
        DistanceMatrix.load(path)
    path.write_bytes(b'{"format":"linkrisk-dmat"}')  # no newline at all
    with pytest.raises(ValueError, match="^" + re.escape(_refusal(path, None)) + "$"):
        DistanceMatrix.load(path)


def test_load_rows_answers_like_the_full_matrix(tmp_path, toy_matrix):
    path = tmp_path / "toy.dmat"
    toy_matrix.save(path)
    rows = DistanceMatrix.load(path)
    assert rows.keys == toy_matrix.keys
    for d in (0.0, 0.2, 0.5, 0.6, 1.0):
        for subject in toy_matrix.keys:
            assert anonymity.convergent_subset(rows, subject, d) == \
                anonymity.convergent_subset(toy_matrix, subject, d)
    assert anonymity.is_kd_anonymous(rows, "s", k=2, d=0.2)
    with pytest.raises(ValueError, match="unknown profile 'nobody'"):
        rows.row("nobody")
    # the radius is checked before the subject, as for an in-memory matrix
    with pytest.raises(ValueError, match=r"d must be in \[0, 1\]"):
        anonymity.convergent_subset(rows, "nobody", 2.0)


def test_packed_index_is_the_row_major_upper_order():
    for n in range(0, 41):
        i, j = np.triu_indices(n, k=1)
        assert np.array_equal(anonymity._packed_index(n, i, j), np.arange(len(i)))


def _v1_bytes(keys, tri):
    payload = np.asarray(tri, dtype="<f4").tobytes()
    header = {
        "format": "linkrisk-dmat",
        "version": 1,
        "n": len(keys),
        "keys": keys,
        "ordering": "row-major-upper",
        "dtype": "<f4",
        "checksum": "sha256:" + hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n" + payload


@st.composite
def packed_matrices(draw, min_n=0):
    """Unique Unicode keys and the upper triangle of a matrix with entries in [0, 1]."""
    n = draw(st.integers(min_value=min_n, max_value=40))
    keys = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    tri = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n * (n - 1) // 2,
                        max_size=n * (n - 1) // 2))
    return keys, np.array(tri, dtype=np.float64)


@settings(max_examples=80, deadline=None)
@given(packed_matrices())
def test_dmat_roundtrip_and_rows_property(case):
    keys, tri = case
    m = DistanceMatrix(keys=keys, values=tri)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.dmat")
        m.save(path)
        loaded = DistanceMatrix.load(path)
        rows = DistanceMatrix.load(path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        for i, key in enumerate(keys):
            assert header["row_sha256"][i] == hashlib.sha256(m.values[i].astype("<f8").tobytes()).hexdigest()
            row_keys, row = anonymity._load_row(path, key)
            assert row_keys == keys and row.dtype == np.float64
            assert np.array_equal(row, loaded.row(key))
    assert loaded.keys == keys and rows.keys == keys
    assert np.array_equal(loaded.values, m.values)
    for i, key in enumerate(keys):
        row = rows.row(key)
        assert row.dtype == np.float64
        assert np.array_equal(row, loaded.values[i])
    _assert_distance_reads_values(m)
    _assert_distance_reads_values(loaded)


@settings(max_examples=80, deadline=None)
@given(packed_matrices())
def test_each_gathered_row_is_bit_for_bit_the_square_row(case):
    """`_row_at`, the one row gather behind `row`, the digests and `_load_row`, against `values`' scatter."""
    m = DistanceMatrix(*case)
    for i in range(len(m.keys)):
        row = m._row_at(i)
        assert row.dtype == np.float64 and row.shape == (len(m.keys),)
        assert row.tobytes() == m.values[i].tobytes()


@settings(max_examples=80, deadline=None)
@given(packed_matrices(), st.integers(min_value=0, max_value=5))
def test_dmat_version_1_rows_property(case, cut):
    """Every version 1 file, even a truncated one, is refused before its payload is read."""
    keys, tri = case
    blob = _v1_bytes(keys, tri)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v1.dmat")
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) - min(cut, 4 * len(tri))])  # the header stays whole
        with mock.patch.object(anonymity.np, "frombuffer", side_effect=AssertionError("payload read")), \
                pytest.raises(ValueError) as info:
            DistanceMatrix.load(path)
    assert str(info.value) == _refusal(path, 1)


def _query(path, subject, d):
    """`anonymity --matrix` run in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(["anonymity", "--matrix", str(path), f"--subject={subject}", f"--d={d!r}"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None)
@given(packed_matrices(min_n=2), st.data())
def test_a_flipped_payload_byte_is_refused_by_load_and_by_each_row_it_lies_in(case, data):
    """A query verifies its own row: a flip there is `checksum mismatch`, a flip elsewhere changes nothing."""
    keys, tri = case
    entry = data.draw(st.integers(0, len(tri) - 1), label="entry")
    byte, mask = data.draw(st.integers(0, 7), label="byte"), data.draw(st.integers(1, 255), label="mask")
    subject = data.draw(st.sampled_from(keys), label="subject")
    d = data.draw(st.floats(min_value=0.0, max_value=1.0), label="d")
    i, j = (int(axis[entry]) for axis in np.triu_indices(len(keys), k=1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.dmat")
        DistanceMatrix(keys, tri).save(path)
        clean = _query(path, subject, d)
        assert clean[0] == 0
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[blob.index(b"\n") + 1 + 8 * entry + byte] ^= mask
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match="checksum mismatch"):
            DistanceMatrix.load(path)
        flipped = _query(path, subject, d)
    if subject in (keys[i], keys[j]):
        assert flipped == (1, "", f"error: {path}: checksum mismatch\n")
    else:
        assert flipped == clean


# keys as callers might pass them: repeats and non-strings included
_any_keys = st.lists(st.one_of(st.text(alphabet="ab\u00e9", max_size=2), st.text(max_size=4),
                               st.integers(-1, 1), st.none(), st.binary(max_size=1)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(_any_keys, st.data())
def test_every_matrix_the_constructor_accepts_round_trips(keys, data):
    size = len(keys) * (len(keys) - 1) // 2
    tri = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                      min_size=size, max_size=size)), dtype=np.float64)
    valid = all(isinstance(k, str) for k in keys) and len(set(keys)) == len(keys)
    if not valid:
        with pytest.raises(ValueError, match="^keys (must be a list of strings|are not unique)$"):
            DistanceMatrix(keys=keys, values=tri)
        return
    m = DistanceMatrix(keys=keys, values=tri)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.dmat")
        m.save(path)
        loaded = DistanceMatrix.load(path)
    assert loaded.keys == m.keys
    assert np.array_equal(loaded.tri, m.tri)


@pytest.mark.parametrize("keys, message", [
    (["a", "a"], "keys are not unique"),
    (("b", "a", "b"), "keys are not unique"),
    (["a", 1], "keys must be a list of strings"),
    ([None, None], "keys must be a list of strings"),
], ids=["duplicate", "duplicate-tuple", "non-string", "non-string-duplicate"])
def test_constructor_refuses_the_keys_load_refuses(keys, message):
    n = len(keys)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DistanceMatrix(keys, [0.3] * (n * (n - 1) // 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        DistanceMatrix(keys, np.zeros((n, n)))


def _assert_distance_reads_values(m):
    """`distance` of every ordered pair, the diagonal included, equals the square's entry."""
    for i, a in enumerate(m.keys):
        for j, b in enumerate(m.keys):
            assert m.distance(a, b) == m.values[i, j]


def test_distance_reads_the_entry_of_a_built_matrix():
    rng = np.random.default_rng(41)
    models = {f"p{i}": random_distribution(rng) for i in range(7)}
    m = DistanceMatrix.build(models)
    _assert_distance_reads_values(m)
    assert m.distance("p5", "p2") == pytest.approx(metric.distance(models["p2"], models["p5"]), abs=1e-12)


def test_loaded_matrix_answers_queries_without_the_square(tmp_path, toy_matrix, monkeypatch):
    path = tmp_path / "toy.dmat"
    toy_matrix.save(path)
    expected = {(s, d): anonymity.convergent_subset(toy_matrix, s, d)
                for s in toy_matrix.keys for d in (0.0, 0.2, 0.5, 1.0)}
    expected_rows = {s: toy_matrix.values[i].copy() for i, s in enumerate(toy_matrix.keys)}

    def no_square(self):
        raise AssertionError("the n x n matrix was built")

    monkeypatch.setattr(DistanceMatrix, "values", property(no_square))
    loaded = DistanceMatrix.load(path)
    for s, row in expected_rows.items():
        assert np.array_equal(loaded.row(s), row)
    for (s, d), result in expected.items():
        assert anonymity.convergent_subset(loaded, s, d) == result
    assert anonymity.is_kd_anonymous(loaded, "s", k=2, d=0.2)
    assert loaded.distance("p2", "s") == 0.6
    loaded.save(tmp_path / "again.dmat")
    assert (tmp_path / "again.dmat").read_bytes() == path.read_bytes()


def test_values_is_the_symmetric_square_and_read_only(toy_matrix):
    values = toy_matrix.values
    assert values.dtype == np.float64 and values.shape == (3, 3)
    assert np.array_equal(values, [[0.0, 0.2, 0.6], [0.2, 0.0, 0.5], [0.6, 0.5, 0.0]])
    assert toy_matrix.values is values
    with pytest.raises(ValueError):
        values[0, 1] = 0.9


def test_constructor_takes_the_packed_triangle_only(toy_matrix):
    packed = DistanceMatrix(keys=toy_matrix.keys, values=[0.2, 0.6, 0.5])
    assert np.array_equal(packed.tri, toy_matrix.tri)
    assert np.array_equal(packed.values, toy_matrix.values)
    for values, shape in (([0.2, 0.6], "(2,)"), (np.zeros((2, 2)).ravel(), "(4,)"),
                          (toy_matrix.values, "(3, 3)"), (0.2, "()")):
        message = f"3 keys need 3 packed distances, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DistanceMatrix(keys=toy_matrix.keys, values=values)
    with pytest.raises(ValueError, match=r"^2 keys need 1 packed distances, got shape \(2, 2\)$"):
        DistanceMatrix(["a", "b"], np.zeros((2, 2)))
    for values, bad in (([np.nan, 1.5, -0.2], "nan"), ([0.2, 1.5, -0.2], "1.5"), ([0.2, 0.6, -0.2], "-0.2")):
        with pytest.raises(ValueError, match=rf"^distance {bad} is not in \[0, 1\]$"):
            DistanceMatrix(keys=toy_matrix.keys, values=values)


@pytest.mark.parametrize("keys, square, shape", [
    (["a", "b"], np.zeros((3, 3)), "(3, 3)"),
    (["a", "b"], np.zeros((2, 3)), "(2, 3)"),
    (["a", "b"], np.zeros((2, 2, 1)), "(2, 2, 1)"),
    (["a", "b"], [[0.0, 0.3], [0.4, 0.0]], "(2, 2)"),
    (["a", "b"], [[0.1, 0.3], [0.3, 0.0]], "(2, 2)"),
    (["a", "b"], [[np.nan, 0.3], [0.3, 0.0]], "(2, 2)"),
    (["a", "b"], [[0.0, np.nan], [np.nan, 0.0]], "(2, 2)"),
    (["a", "b"], [[0.0, 1.5], [1.5, 0.0]], "(2, 2)"),
    (["a", "b"], [[0.0, -0.2], [-0.2, 0.0]], "(2, 2)"),
], ids=["too-large", "not-square", "three-dims", "asymmetric", "nonzero-diagonal", "nan-diagonal",
        "nan-entry", "entry-above-one", "negative-entry"])
def test_constructor_rejects_a_square_that_is_not_a_distance_matrix(keys, square, shape):
    """The constructor takes the packed triangle only: a square is refused for its shape alone."""
    with pytest.raises(ValueError, match=rf"^2 keys need 1 packed distances, got shape {re.escape(shape)}$"):
        DistanceMatrix(keys=keys, values=square)


@pytest.mark.parametrize("c, d, message", [
    (-0.5, 0.1, "bound undefined at zero matching distance"),
    (np.nan, 0.1, r"c must be in \(0, 1\]"),
    (2.0, 0.1, r"c must be in \(0, 1\]"),
    (0.2, np.nan, r"d must be in \[0, 1\]"),
    (0.2, 5.0, r"d must be in \[0, 1\]"),
    (0.2, -0.1, r"d must be in \[0, 1\]"),
])
def test_matching_bound_rejects_values_outside_the_distance_range(c, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        anonymity.matching_bound(c, d, 5)
