"""Convergence radii, anonymity subsets, matching, and adversary choice bounds.

Everything here operates on one symmetric matrix of sqrt-JS distances,
`DistanceMatrix`, which keeps the packed upper triangle of its `.dmat` file
whether it was computed or loaded.  A profile is anonymous to the extent
that many peers sit within a small radius of it; the matching bound turns
that neighborhood size and radius into an upper limit on a distance-based
adversary's linking likelihood.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import repeat
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from . import lm, metric
from .corpus import _encode_json

__all__ = [
    "DistanceMatrix",
    "AnonymityResult",
    "MatchingBound",
    "convergent_subset",
    "is_kd_anonymous",
    "c_matches",
    "lemma_bound_check",
    "choice_likelihood",
    "matching_bound",
    "unlinkability_sigma",
]


class DistanceMatrix:
    """Pairwise distances in [0, 1] over an ordered list of unique string keys.

    Stored as `tri`, the row-major upper triangle without the diagonal (the
    `.dmat` payload, and what `metric.pairwise_distances` returns).  The
    constructor takes `values` as that triangle or as the n x n square, which
    must be exactly symmetric with a zero diagonal, and refuses the keys and
    the distances (NaN, or outside [0, 1]) that `load` refuses.  `distance`
    reads one entry, `row` gathers n, and the symmetric n x n `values` with
    its zero diagonal is built on first use.
    """

    def __init__(self, keys: Sequence[str], values: np.ndarray):
        self.keys = list(keys)
        _check_keys(self.keys)
        n = len(self.keys)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            if values.shape != (n, n):
                raise ValueError(f"{n} keys need a {n} x {n} square, got shape {values.shape}")
            if not np.array_equal(values, values.T, equal_nan=True):
                raise ValueError("distance square is not symmetric")
            if np.any(np.diagonal(values)):
                raise ValueError("distance square has a nonzero diagonal")
            values = values[~np.tri(n, dtype=bool)]
        self.tri = values
        if len(self.tri) != n * (n - 1) // 2:
            raise ValueError(f"{n} keys need {n * (n - 1) // 2} packed distances, got {len(self.tri)}")
        _check_distances(self.tri)
        self._square = None

    @classmethod
    def build(cls, models: Mapping[str, object], workers: int | None = None) -> "DistanceMatrix":
        """Compute the matrix for a key->model mapping; `workers` has no effect.

        Each model is turned into a distribution as it is packed, so one
        distribution is alive at a time.
        """
        (profiles,) = metric._prepare(lm._distributions(models))
        return cls(sorted(models), metric.pairwise_distances(profiles))

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
        i = self.index_of(key)
        n = len(self.keys)
        row = np.empty(n, dtype=np.float64)
        row[:i] = self.tri[_packed_index(n, np.arange(i), i)]
        row[i] = 0.0
        row[i + 1:] = self.tri[_packed_index(n, i, i + 1):_packed_index(n, i, n)]
        return row

    def save(self, path) -> None:
        """Write a JSON header line plus the little-endian float64 upper triangle."""
        payload = self.tri.astype("<f8", copy=False).tobytes()
        header = {
            "format": "linkrisk-dmat",
            "version": 2,
            "n": len(self.keys),
            "keys": self.keys,
            "ordering": "row-major-upper",
            "dtype": "<f8",
        }
        header["checksum"] = _dmat_checksum(header, payload)
        with open(path, "wb") as fh:
            fh.write(_encode_json(header).encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)

    @classmethod
    def load(cls, path) -> "DistanceMatrix":
        """Read a version 2 `.dmat` file: exactly the float64 distances `save` wrote.

        A version 1 (float32) file, or any inconsistency between header and
        payload, raises a one-line ValueError naming the file.
        """
        keys, tri = _read_dmat(path)
        # _read_dmat ran the constructor's key and distance checks, naming the file
        matrix = cls.__new__(cls)
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


def _read_dmat(path) -> Tuple[List[str], np.ndarray]:
    """Keys and float64 upper triangle of a `.dmat` file, after every check.

    One read; the payload stays a view of the file's bytes.  Checks run in
    order: format, version, dtype and ordering, keys, n, size, checksum,
    distance range.
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
    if type(version) is int and version == 1:
        raise ValueError(f"{path}: .dmat version 1 (float32) is no longer read; re-run linkrisk distances")
    if type(version) is not int or version != 2:  # bool is not a version
        raise ValueError(f"{path}: unsupported .dmat version {version!r}")
    if header.get("dtype") != "<f8" or header.get("ordering") != "row-major-upper":
        raise ValueError(f"{path}: version 2 needs dtype <f8 and ordering row-major-upper")
    n, keys = header.get("n"), header.get("keys")
    _check_keys(keys, f"{path}: ")
    if type(n) is not int or n != len(keys):
        raise ValueError(f"{path}: n = {n!r} but the header lists {len(keys)} keys")
    expected = n * (n - 1) // 2 * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    if _dmat_checksum(header, payload) != header.get("checksum"):
        raise ValueError(f"{path}: checksum mismatch")
    tri = np.frombuffer(payload, dtype="<f8")
    _check_distances(tri, f"{path}: ")
    return keys, tri


def _dmat_checksum(header: dict, payload) -> str:
    """sha256 over the canonical header without its checksum, a newline, and the payload."""
    fields = {k: v for k, v in header.items() if k != "checksum"}
    digest = hashlib.sha256(_encode_json(fields).encode("utf-8"))
    digest.update(b"\n")
    digest.update(payload)
    return "sha256:" + digest.hexdigest()


def _packed_index(n: int, i, j):
    """Position of entry (i, j), i < j, in the `.dmat` payload of an n x n matrix.

    The payload is the upper triangle without the diagonal, row by row
    ("row-major-upper"), so row i's part runs from (i, i+1) up to, not
    including, `_packed_index(n, i, n)`.  Works elementwise on index arrays.
    """
    return i * (2 * n - i - 1) // 2 + j - i - 1


@dataclass
class AnonymityResult:
    """The maximal set of profiles within radius `d` of `subject`."""

    subject: str
    d: float
    members: Tuple[str, ...]
    k: int


@dataclass
class MatchingBound:
    """Upper bound t on the linking likelihood of a distance-only adversary.

    For a true match at distance c hiding in a size-k neighborhood of
    radius d, t = 1 - c / (c + (k-1)(c+d)).
    """

    c: float
    d: float
    k: int
    t: float


def convergent_subset(m: DistanceMatrix, subject: str, d: float) -> AnonymityResult:
    """All profiles within distance d of the subject (subject included)."""
    if not 0.0 <= d <= 1.0:
        raise ValueError("d must be in [0, 1]")
    row = m.row(subject)
    members = tuple(m.keys[j] for j in np.flatnonzero(row <= d))
    return AnonymityResult(subject=subject, d=d, members=members, k=len(members))


def is_kd_anonymous(m: DistanceMatrix, subject: str, k: int, d: float) -> bool:
    """Whether at least k profiles (subject included) lie within radius d."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return convergent_subset(m, subject, d).k >= k


def c_matches(dist_value: float, c: float) -> bool:
    """Whether a distance qualifies as a match at threshold c (inclusive)."""
    if not 0.0 <= dist_value <= 1.0 or not 0.0 <= c <= 1.0:
        raise ValueError("distance and c must be in [0, 1]")
    return dist_value <= c


def lemma_bound_check(
    m: DistanceMatrix, subject_set: Sequence[str], target: str, c: float, d: float
) -> bool:
    """Verify that a convergent set around a matching profile matches at c+d.

    Preconditions: some member of `subject_set` has all other members within
    d and itself lies within c of `target`.  Raises ValueError when no such
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


def matching_bound(c: float, d: float, k: int) -> MatchingBound:
    """Bound on the adversary's likelihood of linking a (k,d)-anonymous match.

    `c` is the matching distance between the true pair, `d` the convergence
    radius of the anonymous neighborhood, `k` its size.  Both are distances:
    c in (0, 1] (undefined at c = 0) and d in [0, 1]; NaN is rejected.
    A k too large for `k - 1` to fit in a float gives the limit t = 1.
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
        t = 1.0 - c / (c + (k - 1) * (c + d))
    except OverflowError:  # k - 1 beyond the float range
        t = 1.0
    return MatchingBound(c=c, d=d, k=k, t=t)


def unlinkability_sigma(c: float, d: float, k: int) -> float:
    """The sigma for which the linked pair stays sigma-unlinkable; equals the matching bound."""
    return matching_bound(c, d, k).t
