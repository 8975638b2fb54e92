"""Comment ingestion and text normalization into per-profile token streams.

The normalization pipeline applies, in order: lowercasing, markdown
stripping, diacritic cleanup, URL-to-hostname replacement, punctuation
removal (smilies and hostnames survive), collapsing of long character runs,
whitespace tokenization, and stopword removal.

The first four steps look across chunks and run on the whole comment.  The
last three act on one whitespace chunk at a time, so they run once per
distinct chunk per `NormalizationConfig`: the config remembers each chunk's
token (at most `_TAIL_CACHE_MAX` chunks; past that it forgets them all and
starts again), and equal tokens come back as one shared string.

Markdown handling is a pragmatic subset (emphasis, links, headings, lists,
tables, blockquotes, inline and fenced code); layout markers are unwrapped
around their text, while embedded content such as code blocks and quoted
text is deleted outright.  Unrecognized syntax passes through as plain text.

It also owns the one JSON-lines reader `_store_records` (comments, profile
and model stores), the canonical JSON encoder `_encode_json`, and the one
writer per text format: `_write_records` (JSON lines), `_write_json`
(manifest and metadata sidecars) and `_write_csv`.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "RawComment",
    "NormalizationConfig",
    "TokenStream",
    "IngestResult",
    "ingest_jsonl",
    "normalize",
    "aggregate_profiles",
    "filter_interesting",
    "load_wordlist",
    "default_stopwords",
    "default_smilies",
    "wordlist_hash",
    "write_profiles",
    "load_profiles",
]

ProfileKey = Tuple[str, str]

_SENTINEL = "\x00"
_SMILEY_MARK = "\x02"
_WS_SPLIT = re.compile(r"(\s+)")

_MD_FENCE = re.compile(r"```.*?```", re.DOTALL)
_MD_INDENT_CODE = re.compile(r"^(?: {4}|\t).*$", re.MULTILINE)
_MD_INLINE_CODE = re.compile(r"`[^`\n]*`")
_MD_QUOTE = re.compile(r"^ {0,3}>.*$", re.MULTILINE)
_MD_LINK = re.compile(r"\[([^\]]*)\]\(\s*([^)\s]+)[^)]*\)")
_MD_TABLE_SEP = re.compile(r"^ {0,3}\|?[ :|-]+\|[ :|-]*$", re.MULTILINE)
_MD_HR = re.compile(r"^ {0,3}[-*_]{3,}[ \t]*$", re.MULTILINE)
_MD_LIST = re.compile(r"^ {0,3}(?:[-*+]|\d+\.)[ \t]+", re.MULTILINE)
_MD_HEADING = re.compile(r"^ {0,3}#{1,6}[ \t]+", re.MULTILINE)
_MD_EMPHASIS = re.compile(r"(\*{1,3}|_{1,3}|~~)(.+?)\1")
# each pattern above needs one of these characters, four spaces (indented
# code) or a digit followed by "." (numbered list); text without them is
# returned unchanged
_MD_CHARS = frozenset("`>[|*_~#+-\t")
_MD_DIGIT_DOT = re.compile(r"\.(?<=\d\.)")  # finds the "." first: digits are common

_MAX_CHAR_REPEAT = 3  # longer runs of one character are cut to this length
_REPEAT = re.compile(r"(.)\1{%d,}" % _MAX_CHAR_REPEAT, re.DOTALL)

_TAIL_CACHE_MAX = 1 << 18  # chunks one config remembers before it forgets them all

_URL = re.compile(r"(?:[a-z][a-z0-9+.\-]*://|(?<![\w.])www\.)\S+")
_HOST_JUNK = re.compile(r"[^\w.\-]")


class _DeletionTable(dict):
    """`str.translate` table deleting the code points `drop` selects.

    Filled in lazily, one entry per code point seen, so a lookup is a plain
    dict hit after the first occurrence.
    """

    def __init__(self, drop):
        super().__init__()
        self._drop = drop

    def __missing__(self, code_point: int):
        value = None if self._drop(chr(code_point)) else code_point
        self[code_point] = value
        return value


_PUNCTUATION = _DeletionTable(lambda ch: unicodedata.category(ch)[0] in ("P", "S"))
_COMBINING = _DeletionTable(unicodedata.combining)


def _chunk_token(chunk: str, smilies, stopwords) -> str:
    """The tail of `normalize` for one whitespace chunk: its token, or "" if none.

    Drops Unicode P*/S* characters except in a smiley and between sentinels,
    cuts runs of one character to `_MAX_CHAR_REPEAT`, then drops stopwords.
    Chunk by chunk gives the tokens these steps give on the chunks joined by
    single spaces: deleting P*/S* characters never makes whitespace, no run
    of one character crosses a single space, and stopwords are whole tokens.
    """
    if chunk in smilies:
        token = chunk
    elif _SENTINEL in chunk:
        parts = chunk.split(_SENTINEL)
        parts[::2] = [part.translate(_PUNCTUATION) for part in parts[::2]]
        token = "".join(parts)
    else:
        token = chunk.translate(_PUNCTUATION)
    token = _REPEAT.sub(lambda m: m.group(1) * _MAX_CHAR_REPEAT, token)
    return "" if token in stopwords else token


class _ChunkTokens(dict):
    """Chunk -> `_chunk_token` of one config, filled in as chunks are seen.

    Equal tokens are stored as one shared string.  A chunk that is its own
    token is keyed by that shared string too, so a plain word is held once,
    not as a key and an equal value.  Past `_TAIL_CACHE_MAX` chunks the
    table is emptied and fills again.
    """

    def __init__(self, smilies, stopwords):
        super().__init__()
        self._smilies = smilies
        self._stopwords = stopwords
        self._shared: Dict[str, str] = {}

    def __missing__(self, chunk: str) -> str:
        if len(self) >= _TAIL_CACHE_MAX:
            self.clear()
            self._shared.clear()
        token = _chunk_token(chunk, self._smilies, self._stopwords)
        if token == chunk:
            chunk = token = self._shared.setdefault(chunk, chunk)
        else:
            token = self._shared.setdefault(token, token)
        self[chunk] = token
        return token


@dataclass(slots=True)
class RawComment:
    """One comment as read from the input stream.

    Slotted: ingest holds every comment until it is normalized, and a
    per-instance attribute dict would add to each one.
    """

    author_id: str
    community_id: str
    body: str
    created_at: Optional[int] = None

    def __post_init__(self):
        if not self.author_id:
            raise ValueError("author_id must be nonempty")
        if not self.community_id:
            raise ValueError("community_id must be nonempty")


@dataclass
class TokenStream:
    """Normalized tokens of all comments of one (author, community) profile."""

    tokens: List[str] = field(default_factory=list)
    n_comments: int = 0


@dataclass
class IngestResult:
    comments: List[RawComment]
    errors: List[Tuple[int, str]]


@dataclass(frozen=True)
class NormalizationConfig:
    """Word lists for the normalization pipeline.

    The pipeline itself is fixed (see `normalize`); only its stopwords and
    smilies vary.  Smiley literals are matched after lowercasing, so the
    configured set is lowercased on construction.  An empty stopword set
    keeps every token; the smiley set must be nonempty.
    """

    stopwords: frozenset = frozenset()
    smilies: frozenset = frozenset()
    _chunk_tokens: _ChunkTokens = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))
        object.__setattr__(self, "smilies", frozenset(s.lower() for s in self.smilies))
        if not self.smilies:
            raise ValueError("smilies must be nonempty")
        object.__setattr__(self, "_chunk_tokens", _ChunkTokens(self.smilies, self.stopwords))

    @classmethod
    def default(cls) -> "NormalizationConfig":
        return cls(stopwords=default_stopwords(), smilies=default_smilies())


def _parse_wordlist(text: str) -> Set[str]:
    """One entry per line; blank lines and # comments (indented or not) are ignored."""
    entries = (line.strip() for line in text.split("\n"))
    return {entry for entry in entries if entry and not entry.startswith("#")}


def load_wordlist(path) -> Set[str]:
    """Read a word list file in the format of the packaged lists; a leading BOM is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return _parse_wordlist(text)


def _packaged_list(name: str) -> Set[str]:
    return _parse_wordlist(resources.files("linkrisk").joinpath("data", name).read_text("utf-8"))


def default_stopwords() -> Set[str]:
    return _packaged_list("stopwords.txt")


def default_smilies() -> Set[str]:
    return _packaged_list("smilies.txt")


def wordlist_hash(entries: Iterable[str]) -> str:
    """Order-independent sha256 of a word list, for output manifests."""
    canon = "\n".join(sorted(set(entries))).encode("utf-8")
    return hashlib.sha256(canon).hexdigest()


def ingest_jsonl(path, lenient: bool = False) -> IngestResult:
    """Read a JSON-lines file of comments.

    Lines end at line feeds and are decoded as UTF-8 one at a time; a
    leading BOM is dropped.  A line that does not decode or is not valid
    JSON is a bad line.  Each record needs `author`, `community`, and `body`, each a JSON
    string; `created_at` is optional, a JSON integer or null (a boolean,
    string or float makes the line bad).  In strict mode the first bad line
    raises ValueError with its line number; in lenient mode bad lines are
    collected as (line_number, message) pairs and skipped.  Equal author
    and community names come back as one shared string across all
    comments, so the result holds each distinct name once.
    """
    comments: List[RawComment] = []
    errors: List[Tuple[int, str]] = []
    names: Dict[str, str] = {}
    for line_no, rec in _store_records(path, errors if lenient else None):
        try:
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
            missing = [k for k in ("author", "community", "body") if k not in rec]
            if missing:
                raise ValueError(f"missing required field(s): {', '.join(missing)}")
            for key in ("author", "community", "body"):
                if not isinstance(rec[key], str):
                    raise ValueError(f"{key!r} must be a string")
            created = rec.get("created_at")
            if created is not None and (isinstance(created, bool) or not isinstance(created, int)):
                raise ValueError("'created_at' must be an integer or null")
            author, community = rec["author"], rec["community"]
            comments.append(RawComment(
                author_id=names.setdefault(author, author),
                community_id=names.setdefault(community, community),
                body=rec["body"],
                created_at=created,
            ))
        except ValueError as exc:
            if not lenient:
                raise ValueError(f"line {line_no}: {exc}") from exc
            errors.append((line_no, str(exc)))
    return IngestResult(comments=comments, errors=errors)


def _strip_markdown(text: str, smilies) -> str:
    if _MD_CHARS.isdisjoint(text) and "    " not in text and not _MD_DIGIT_DOT.search(text):
        return text
    # smilies may contain markdown-active characters (:-|, *-*, o_o);
    # shield whole-chunk matches behind placeholders for the duration
    placeholders = {}
    parts = _WS_SPLIT.split(text)
    for i, part in enumerate(parts):
        if part in smilies:
            key = f"{_SMILEY_MARK}{len(placeholders)}{_SMILEY_MARK}"
            placeholders[key] = part
            parts[i] = key
    text = "".join(parts)
    # each pass runs only if the text as it stands holds a substring its
    # pattern needs; earlier passes insert spaces, so no test may look ahead
    if "```" in text:
        text = _MD_FENCE.sub(" ", text)
    if "    " in text or "\t" in text:
        text = _MD_INDENT_CODE.sub(" ", text)
    if "`" in text:
        text = _MD_INLINE_CODE.sub(" ", text)
    if ">" in text:
        text = _MD_QUOTE.sub(" ", text)
    if "](" in text:
        text = _MD_LINK.sub(r"\1 \2", text)
    if "|" in text:
        text = _MD_TABLE_SEP.sub(" ", text)
    if "-" in text or "*" in text or "_" in text:
        text = _MD_HR.sub(" ", text)
    if "-" in text or "*" in text or "+" in text or _MD_DIGIT_DOT.search(text):
        text = _MD_LIST.sub("", text)
    if "#" in text:
        text = _MD_HEADING.sub("", text)
    if "*" in text or "_" in text or "~~" in text:
        text = _MD_EMPHASIS.sub(r"\2", text)
    text = text.replace("|", " ")
    for key, smiley in placeholders.items():
        text = text.replace(key, smiley)
    return text


def _strip_diacritics(text: str) -> str:
    # compose what can be composed, then drop leftover combining marks
    if text.isascii():
        return text
    return unicodedata.normalize("NFC", text).translate(_COMBINING)


def _hostname(url: str) -> str:
    rest = url.split("://", 1)[1] if "://" in url else url
    rest = re.split(r"[/?#]", rest, maxsplit=1)[0]
    rest = rest.rpartition("@")[2]
    rest = rest.split(":", 1)[0]
    return _HOST_JUNK.sub("", rest).strip("._-")


def _replace_urls(text: str) -> str:
    if "://" not in text and "www." not in text:
        return text

    def repl(match: re.Match) -> str:
        host = _hostname(match.group(0))
        return f"{_SENTINEL}{host}{_SENTINEL}" if host else " "

    return _URL.sub(repl, text)


def normalize(body: str, cfg: NormalizationConfig) -> List[str]:
    """Run the full pipeline over one comment body.

    Total function: any input yields a (possibly empty) token list.
    """
    text = body.replace(_SENTINEL, " ").replace(_SMILEY_MARK, " ")
    text = text.lower()
    text = _strip_markdown(text, cfg.smilies)
    text = _strip_diacritics(text)
    text = _replace_urls(text)
    return list(filter(None, map(cfg._chunk_tokens.__getitem__, text.split())))


def aggregate_profiles(
    comments: Iterable[RawComment], cfg: NormalizationConfig
) -> Dict[ProfileKey, TokenStream]:
    """Normalize comments and group the tokens per (author, community).

    Per-comment normalization is pure; the reduction appends tokens in
    comment order and returns profiles sorted by key, so the outcome is
    the same however the comments were partitioned for processing.
    """
    profiles: Dict[ProfileKey, TokenStream] = {}
    for comment in comments:
        key = (comment.author_id, comment.community_id)
        stream = profiles.get(key)
        if stream is None:
            stream = profiles[key] = TokenStream()
        stream.tokens.extend(normalize(comment.body, cfg))
        stream.n_comments += 1
    return {key: profiles[key] for key in sorted(profiles)}


_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode  # canonical JSON


def _write_records(path, records: Iterable[dict]) -> None:
    """Write each record as one canonical JSON line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(_encode_json(rec) + "\n")


def _write_json(path, obj) -> None:
    """Write a JSON sidecar (a manifest or metadata): sorted keys, indented, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a header and rows as CSV: "\\n" line ends, fields quoted only where needed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _store_records(path, bad_lines: Optional[List[Tuple[int, str]]] = None) -> Iterator[Tuple[int, object]]:
    """(line number, parsed JSON value) of each nonblank line of a JSON-lines file.

    Lines end at line feeds and are decoded as UTF-8 one at a time; a UTF-8
    BOM at the start of the file is dropped.  A line that does not decode,
    or is not valid JSON, raises ValueError("line N: ..."), or, given a list
    `bad_lines`, is appended to it as (N, message) and skipped.
    """
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if line_no == 1:
                raw = raw.removeprefix(codecs.BOM_UTF8)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
            except UnicodeDecodeError as exc:
                message = str(exc)
            except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
                message = f"not valid JSON ({exc})"
            else:
                yield line_no, rec
                continue
            if bad_lines is None:
                raise ValueError(f"line {line_no}: {message}")
            bad_lines.append((line_no, message))


def write_profiles(profiles: Mapping[ProfileKey, TokenStream], path) -> None:
    """Persist token streams, one JSON record per profile, sorted by key."""
    _write_records(path, (
        {"author": author, "community": community, "n_comments": stream.n_comments, "tokens": stream.tokens}
        for (author, community), stream in sorted(profiles.items())
    ))


def load_profiles(path) -> Dict[ProfileKey, TokenStream]:
    """Read back a profile store written by `write_profiles`.

    `tokens` must be a list of strings and `n_comments`, if present, a
    non-negative JSON integer.  Lines end at line feeds and are decoded as
    UTF-8 one at a time; a leading BOM is dropped.  A malformed line, or a
    second line for the same (author, community), raises ValueError("line
    N: ...").  Equal tokens come back as one shared string across all
    profiles, so the returned streams hold each distinct token once.
    """
    profiles: Dict[ProfileKey, TokenStream] = {}
    shared: Dict[str, str] = {}
    for line_no, rec in _store_records(path):
        if not isinstance(rec, dict):
            raise ValueError(f"line {line_no}: profile record is not a JSON object")
        missing = [k for k in ("author", "community", "tokens") if k not in rec]
        if missing:
            raise ValueError(f"line {line_no}: missing required field(s): {', '.join(missing)}")
        if not (isinstance(rec["author"], str) and isinstance(rec["community"], str)):
            raise ValueError(f"line {line_no}: 'author' and 'community' must be strings")
        tokens = rec["tokens"]
        if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
            raise ValueError(f"line {line_no}: 'tokens' must be a list of strings")
        n_comments = rec.get("n_comments", 0)
        if type(n_comments) is not int or n_comments < 0:  # bool is not a count
            raise ValueError(f"line {line_no}: 'n_comments' must be a non-negative integer")
        key = (rec["author"], rec["community"])
        if key in profiles:
            raise ValueError(f"line {line_no}: duplicate profile {key!r}")
        tokens = list(map(shared.setdefault, tokens, tokens))
        profiles[key] = TokenStream(tokens=tokens, n_comments=n_comments)
    return profiles


def filter_interesting(
    profiles: Mapping[ProfileKey, TokenStream],
    min_comments: int,
    min_profiles: int,
    exclude_communities: Sequence[str] = (),
) -> Dict[ProfileKey, TokenStream]:
    """Keep profiles with enough comments in communities with enough such profiles.

    Single pass: first qualify profiles by comment count, then drop
    communities whose qualifying-profile count falls short.  The two
    conditions are not iterated to a fixpoint.  Both thresholds are
    inclusive.  `exclude_communities` removes whole communities first.
    """
    excluded = set(exclude_communities)
    qualified = {
        key: stream
        for key, stream in profiles.items()
        if key[1] not in excluded and stream.n_comments >= min_comments
    }
    per_community: Dict[str, int] = {}
    for key in qualified:
        per_community[key[1]] = per_community.get(key[1], 0) + 1
    return {
        key: stream
        for key, stream in qualified.items()
        if per_community[key[1]] >= min_profiles
    }
