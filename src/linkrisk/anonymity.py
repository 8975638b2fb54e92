"""Convergence radii, anonymity subsets, matching, and adversary choice bounds.

A profile's neighborhood at radius d is the positions `<= d` (`_within`) of
one row of sqrt-JS distances in sorted key order: a row `_row_at` gathers
from a packed upper triangle (a `DistanceMatrix`'s, or one of
`run_experiment`'s), the one row `_load_row` reads from a `.dmat` file and
verifies against its digest of the keys and that row, or the one source row
`_row` computes; keys replace positions only to be shown.  A profile is
anonymous to the extent that many peers sit within a small radius of it;
the matching bound turns that neighborhood size and radius into an upper
limit on a distance-based adversary's linking likelihood.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import lm, metric
from .corpus import _encode_json

__all__ = [
    "DistanceMatrix",
    "convergent_subset",
    "is_kd_anonymous",
    "lemma_bound_check",
    "choice_likelihood",
    "matching_bound",
]


class DistanceMatrix:
    """Pairwise distances in [0, 1] over an ordered list of unique string keys.

    Stored as `tri`, the row-major upper triangle without the diagonal (the
    `.dmat` payload, and what `metric.pairwise_distances` returns), which is
    also the one layout the constructor takes as `values`.  The constructor
    refuses the keys and the distances (NaN, or outside [0, 1]) that `load`
    refuses.  `distance` reads one entry, `row` gathers n, and the symmetric
    n x n `values` with its zero diagonal is built on first use.
    """

    def __init__(self, keys: Sequence[str], values: np.ndarray):
        self.keys = list(keys)
        _check_keys(self.keys)
        n, self.tri = len(self.keys), np.asarray(values, dtype=np.float64)
        size = n * (n - 1) // 2
        if self.tri.shape != (size,):
            raise ValueError(f"{n} keys need {size} packed distances, got shape {self.tri.shape}")
        _check_distances(self.tri)
        self._square = None

    @classmethod
    def build(cls, models: Mapping[str, object], workers: int | None = None) -> "DistanceMatrix":
        """Compute the matrix for a key->model mapping; `workers` has no effect.

        Each model is turned into a distribution as it is packed, so one
        distribution is alive at a time.
        """
        keys, dists = lm._distributions(models)
        (profiles,) = metric._prepare(dists)
        return cls(keys, metric.pairwise_distances(profiles))

    @property
    def values(self) -> np.ndarray:
        """The full symmetric matrix, built once and read-only."""
        if self._square is None:
            upper = ~np.tri(len(self.keys), dtype=bool)
            self._square = np.zeros(upper.shape, dtype=np.float64)
            self._square[upper] = self.tri
            self._square.T[upper] = self.tri
            self._square.flags.writeable = False
        return self._square

    def index_of(self, key: str) -> int:
        try:
            return self.keys.index(key)  # a scan: cheaper than a dict for the one query per load
        except ValueError:
            raise ValueError(f"unknown profile {key!r}") from None

    def distance(self, a: str, b: str) -> float:
        i, j = sorted((self.index_of(a), self.index_of(b)))
        return 0.0 if i == j else float(self.tri[_packed_index(len(self.keys), i, j)])

    def row(self, key: str) -> np.ndarray:
        """The distances from `key` to every profile, in key order; O(n)."""
        return _row_at(self.tri, len(self.keys), self.index_of(key))

    def save(self, path) -> None:
        """Write a version 4 JSON header line plus the little-endian float64 upper triangle.

        The header holds one sha256 per full row, each over the keys and that
        row (`_row_digests`), so together they cover the keys and every
        payload byte; rows are gathered one at a time, never as the square.
        """
        n = len(self.keys)
        header = {
            "format": "linkrisk-dmat",
            "version": 4,
            "n": n,
            "keys": self.keys,
            "ordering": "row-major-upper",
            "dtype": "<f8",
            "row_sha256": _row_digests(self.keys, (_row_at(self.tri, n, i) for i in range(n))),
        }
        with open(path, "wb") as fh:
            fh.write(_encode_json(header).encode("utf-8"))
            fh.write(b"\n")
            fh.write(np.ascontiguousarray(self.tri, dtype="<f8"))

    @classmethod
    def load(cls, path) -> "DistanceMatrix":
        """Read a version 4 `.dmat` file: exactly the keys and float64 distances `save` wrote.

        Every row is verified against its `row_sha256` entry, so the keys and
        every payload byte are (each lies in two rows), then every distance
        against [0, 1].  Any other version, or any inconsistency between header
        and payload, raises a one-line ValueError naming the file.
        """
        keys, tri, row_sha256 = _read_dmat(path)
        if _row_digests(keys, (_row_at(tri, len(keys), i) for i in range(len(keys)))) != row_sha256:
            raise ValueError(f"{path}: checksum mismatch")
        _check_distances(tri, f"{path}: ")
        matrix = cls.__new__(cls)  # _read_dmat ran the constructor's key check, naming the file
        matrix.keys, matrix.tri, matrix._square = keys, tri, None
        return matrix


def _check_keys(keys, prefix: str = "") -> None:
    """The key rules of every matrix, built or loaded: a list of unique strings."""
    if not isinstance(keys, list) or not all(map(isinstance, keys, repeat(str))):
        raise ValueError(f"{prefix}keys must be a list of strings")
    if len(set(keys)) != len(keys):
        raise ValueError(f"{prefix}keys are not unique")


def _check_distances(tri: np.ndarray, prefix: str = "") -> None:
    """The distance rule of every matrix, built or loaded: no NaN, every entry in [0, 1]."""
    if len(tri) and not 0.0 <= tri.min() <= tri.max() <= 1.0:  # a NaN fails both comparisons
        bad = tri[~((tri >= 0.0) & (tri <= 1.0))][0]
        raise ValueError(f"{prefix}distance {bad} is not in [0, 1]")


def _read_dmat(path) -> Tuple[List[str], np.ndarray, List[str]]:
    """A `.dmat` file's keys, packed triangle and row digests, none yet verified against the others.

    One read; the triangle stays a view of the file's bytes.  Checks run in
    order: format, version, dtype and ordering, keys, n, payload size, then
    the row digests' field; every version but 4 is refused by one rule,
    before the payload is read.  Neither the keys nor the payload is hashed
    or range-checked here: `DistanceMatrix.load` verifies every row,
    `_load_row` one.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.find(b"\n")
    if cut < 0:
        cut = len(blob)
    payload = memoryview(blob)[cut + 1:]
    try:
        header = json.loads(blob[:cut].decode("utf-8"))
    except (ValueError, RecursionError):  # RecursionError: deeply nested JSON
        header = None
    if not isinstance(header, dict) or header.get("format") != "linkrisk-dmat":
        raise ValueError(f"{path}: not a linkrisk distance matrix")
    version = header.get("version")
    if type(version) is not int or version != 4:  # bool is not a version
        raise ValueError(f"{path}: .dmat version {version!r} is not read; re-run linkrisk distances")
    if header.get("dtype") != "<f8" or header.get("ordering") != "row-major-upper":
        raise ValueError(f"{path}: version 4 needs dtype <f8 and ordering row-major-upper")
    n, keys = header.get("n"), header.get("keys")
    _check_keys(keys, f"{path}: ")
    if type(n) is not int or n != len(keys):
        raise ValueError(f"{path}: n = {n!r} but the header lists {len(keys)} keys")
    expected = n * (n - 1) // 2 * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    row_sha256 = header.get("row_sha256")
    if not (isinstance(row_sha256, list) and len(row_sha256) == n
            and all(map(isinstance, row_sha256, repeat(str)))):
        raise ValueError(f"{path}: row_sha256 must be a list of {n} strings")
    return keys, np.frombuffer(payload, dtype="<f8"), row_sha256


def _load_row(path, subject: str) -> Tuple[List[str], np.ndarray]:
    """The keys of a `.dmat` file and the subject's row, verified against its own digest.

    Mirrors `_row` for a stored matrix: the header fields are checked, then
    the keys and the subject's n distances, and only they, are hashed, and
    those distances range-checked, as every answer from this row depends on
    them and on nothing else.  A corrupted value or digest of another row
    goes unseen here; `DistanceMatrix.load` refuses it.
    """
    keys, tri, row_sha256 = _read_dmat(path)
    if subject not in keys:
        raise ValueError(f"unknown profile {subject!r}")
    i = keys.index(subject)
    row = _row_at(tri, len(keys), i)
    if _row_digests(keys, [row]) != [row_sha256[i]]:
        raise ValueError(f"{path}: checksum mismatch")
    _check_distances(row, f"{path}: ")
    return keys, row


def _row_digests(keys: List[str], rows: Iterable[np.ndarray]) -> List[str]:
    """Per row, the hex sha256 of the keys as canonical JSON, then that full row as little-endian float64."""
    keyed = hashlib.sha256(_encode_json(keys).encode("utf-8"))  # hashed once, copied per row
    digests = []
    for row in rows:
        hasher = keyed.copy()
        hasher.update(np.ascontiguousarray(row, dtype="<f8"))
        digests.append(hasher.hexdigest())
    return digests


def _row_at(tri: np.ndarray, n: int, i: int) -> np.ndarray:
    """Full row i of an n x n matrix's packed triangle, the one row gather: column i above, 0.0, row i's slice."""
    row = np.zeros(n, dtype=np.float64)
    row[:i] = tri[_packed_index(n, np.arange(i), i)]
    row[i + 1:] = tri[_packed_index(n, i, i + 1):_packed_index(n, i, n)]
    return row


def _packed_index(n: int, i, j):
    """Position of entry (i, j), i < j, in the `.dmat` payload of an n x n matrix.

    The payload is the upper triangle without the diagonal, row by row
    ("row-major-upper"), so row i's part runs from (i, i+1) up to, not
    including, `_packed_index(n, i, n)`.  Works elementwise on index arrays.
    """
    return i * (2 * n - i - 1) // 2 + j - i - 1


def _row(source: Mapping[str, float], targets: Mapping[str, object]) -> Tuple[List[str], np.ndarray]:
    """The target keys in row order, and the distances from one distribution to each target model.
    Each pair is computed alone, so a source among the targets gets exactly its `DistanceMatrix.build` row."""
    keys, dists = lm._distributions(targets)
    return keys, metric.cross_distances(*metric._prepare([source], dists))[0]


def _within(row: np.ndarray, d: float) -> np.ndarray:
    """The positions of the entries of `row` at most d, inclusive, ascending."""
    return np.flatnonzero(row <= d)


def convergent_subset(m: DistanceMatrix, subject: str, d: float) -> Tuple[str, ...]:
    """The keys of every profile within distance d of the subject, in key order.

    The subject is one of them, so the tuple is never empty; its length is
    the k of the subject's (k, d)-anonymity.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be in [0, 1]")
    return tuple(m.keys[j] for j in _within(m.row(subject), d))


def is_kd_anonymous(m: DistanceMatrix, subject: str, k: int, d: float) -> bool:
    """Whether at least k profiles (subject included) lie within radius d."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return len(convergent_subset(m, subject, d)) >= k


def lemma_bound_check(
    m: DistanceMatrix, subject_set: Sequence[str], target: str, c: float, d: float
) -> bool:
    """Verify that a convergent set around a matching profile matches at c+d.

    A profile c-matches the target when its distance to it is at most c,
    inclusive: `dist <= c`.  Preconditions: some member of `subject_set` has
    all other members within d and itself c-matches `target`.  Raises ValueError when no such
    member exists.  With a true metric the triangle inequality then forces
    every member within c+d of the target, so the check always returns True
    on consistent inputs; it exists to exercise exactly that claim.
    """
    members = list(subject_set)
    m.index_of(target)  # an unknown target fails first, even with no members
    if not any(m.distance(target, cand) <= c and all(m.distance(cand, o) <= d for o in members)
               for cand in members):
        raise ValueError("precondition violated: no member both c-matches the target and d-covers the set")
    return all(m.distance(target, member) <= c + d for member in members)


def choice_likelihood(
    m: DistanceMatrix,
    candidates: Sequence[str],
    target: str,
    chosen: str,
    normalized: bool = False,
) -> float:
    """Likelihood that a distance-only adversary picks `chosen` for `target`.

    Raw score: 1 - dist(chosen, target) / sum of all candidate distances.
    The raw scores over n candidates sum to n-1, so they form a proper
    distribution only for n = 2; `normalized=True` divides by n-1, which
    is the form to use when actually sampling an adversary's choice.
    """
    cands = list(candidates)
    if len(cands) < 2:
        raise ValueError("need at least 2 candidates")
    if chosen not in cands:
        raise ValueError(f"chosen profile {chosen!r} not among candidates")
    total = sum(m.distance(target, c) for c in cands)
    if total <= 0.0:
        raise ValueError("degenerate: all candidates identical to target")
    score = 1.0 - m.distance(target, chosen) / total
    return score / (len(cands) - 1) if normalized else score


def matching_bound(c: float, d: float, k: int) -> float:
    """Upper bound t on a distance-only adversary's likelihood of linking a (k,d)-anonymous match.

    For a true match at distance `c` hiding in a neighborhood of size `k`
    and radius `d`, t = 1 - c / (c + (k-1)(c+d)).  c and d are distances:
    c in (0, 1] (undefined at c = 0) and d in [0, 1]; NaN is rejected.
    A k too large for `k - 1` to fit in a float gives the limit t = 1.
    The linked pair stays sigma-unlinkable for every sigma >= t.
    """
    if c <= 0.0:
        raise ValueError("bound undefined at zero matching distance")
    if not c <= 1.0:
        raise ValueError("c must be in (0, 1]")
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        return 1.0 - c / (c + (k - 1) * (c + d))
    except OverflowError:  # k - 1 beyond the float range
        return 1.0

