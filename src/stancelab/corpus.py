"""Tweet corpus ingestion, validation, and the canonical in-memory model.

The canonical on-disk format is UTF-8 JSONL, one object per line, with
required keys ``tweet_id``, ``user_id``, ``text``, ``hashtags`` and optional
keys ``screen_name``, ``retweeted_user_id``, ``in_reply_to_user_id``,
``mentioned_user_ids``, ``timestamp`` (ISO-8601).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from datetime import datetime
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path

from .fileio import write_text

__all__ = [
    "CorpusFormatError",
    "TweetRecord",
    "Corpus",
    "Interaction",
    "InteractionKind",
    "normalize_hashtag",
    "extract_interactions",
    "load_corpus",
    "dump_corpus",
]


class CorpusFormatError(ValueError):
    """Malformed corpus input (raised eagerly in strict mode)."""


def normalize_hashtag(raw: str) -> str | None:
    """Canonical hashtag token: trimmed, leading '#' removed, case folded.

    All leading '#' characters are dropped ('#' is never part of a tag),
    which keeps normalization idempotent and the JSONL round trip exact.
    Returns None when nothing is left, so callers can drop empty tags.
    """
    token = raw.strip().lstrip("#").strip().casefold()
    return token or None


class InteractionKind(str, Enum):
    RETWEET = "retweet"
    REPLY = "reply"
    MENTION = "mention"


@dataclass(frozen=True)
class Interaction:
    kind: InteractionKind
    source: str
    target: str

    @property
    def is_self(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One message. Hashtags are stored normalized; retweet text is verbatim."""

    tweet_id: str
    user_id: str
    text: str
    hashtags: tuple[str, ...] = ()
    screen_name: str = ""
    retweeted_user_id: str | None = None
    in_reply_to_user_id: str | None = None
    mentioned_user_ids: tuple[str, ...] = ()
    timestamp: datetime | None = None

    @property
    def is_retweet(self) -> bool:
        return self.retweeted_user_id is not None


def extract_interactions(record: TweetRecord) -> list[Interaction]:
    """All directed interactions a record carries, in retweet/reply/mention order.

    Self-interactions are emitted too; check ``Interaction.is_self``.
    """
    out: list[Interaction] = []
    if record.retweeted_user_id is not None:
        out.append(Interaction(InteractionKind.RETWEET, record.user_id, record.retweeted_user_id))
    if record.in_reply_to_user_id is not None:
        out.append(Interaction(InteractionKind.REPLY, record.user_id, record.in_reply_to_user_id))
    for target in record.mentioned_user_ids:
        out.append(Interaction(InteractionKind.MENTION, record.user_id, target))
    return out


@dataclass
class Corpus:
    """Immutable-after-load tweet collection, grouped by author.

    ``users`` maps each user_id to that author's records in corpus order, so
    a per-user question reads only the author's own tweets.
    """

    tweets: list[TweetRecord]
    skipped_count: int = field(default=0, compare=False)
    duplicate_count: int = field(default=0, compare=False)
    users: dict[str, list[TweetRecord]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.users = {}
        for t in self.tweets:
            self.users.setdefault(t.user_id, []).append(t)

    def __len__(self) -> int:
        return len(self.tweets)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def all_hashtags(self) -> set[str]:
        tags: set[str] = set()
        for t in self.tweets:
            tags.update(t.hashtags)
        return tags

    def hashtag_counts(self, user_id: str, include_retweets: bool = True) -> dict[str, int]:
        """Usage-event counts per hashtag for one user, optionally skipping retweets.

        A hashtag repeated inside one tweet counts once per occurrence.
        Raises KeyError for users absent from the corpus.
        """
        counts: dict[str, int] = {}
        for t in self.users[user_id]:
            if include_retweets or not t.is_retweet:
                for h in t.hashtags:
                    counts[h] = counts.get(h, 0) + 1
        return counts

    def screen_names(self) -> dict[str, str]:
        """First-seen screen name per author (empty names skipped)."""
        names: dict[str, str] = {}
        for t in self.tweets:
            if t.screen_name and t.user_id not in names:
                names[t.user_id] = t.screen_name
        return names


class _TagCache(dict):
    """Each raw hashtag's normalized form (None when nothing is left), worked
    out once per load; looking up a value that is not a string raises
    TypeError."""

    def __missing__(self, raw: object) -> str | None:
        if type(raw) is not str:
            raise TypeError(raw)
        tag = self[raw] = normalize_hashtag(raw)
        return tag


_OPTIONAL_STR = ("screen_name", "retweeted_user_id", "in_reply_to_user_id")
# Each field's slot setter, in field order: ``_parse_record`` fills a new
# record through them, at about half the cost of the frozen ``__init__``,
# which calls ``object.__setattr__`` once per field.
(
    _set_tweet_id, _set_user_id, _set_text, _set_hashtags, _set_screen_name,
    _set_retweeted_user_id, _set_in_reply_to_user_id, _set_mentioned_user_ids, _set_timestamp,
) = (getattr(TweetRecord, f.name).__set__ for f in fields(TweetRecord))
_STR_OR_NONE = {str, type(None)}


def _check_ids(tweet_id: object, user_id: object, text: object, line_no: int) -> None:
    """Raise for the first bad one of the three required fields."""
    for key, value in (("tweet_id", tweet_id), ("user_id", user_id)):
        if value is None:
            raise CorpusFormatError(f"line {line_no}: missing required field {key!r}")
        if type(value) is not str:
            raise CorpusFormatError(f"line {line_no}: field {key!r} must be a string")
    if type(text) is not str:
        raise CorpusFormatError(f"line {line_no}: missing required field 'text'")
    for key, value in (("tweet_id", tweet_id), ("user_id", user_id)):
        if not value:
            raise CorpusFormatError(f"line {line_no}: {key} must be nonempty")


def _parse_record(obj: object, line_no: int, tags: _TagCache) -> TweetRecord:
    """One validated record.  A bad record raises the message of its first
    failing check, taken in this order: the ids and text, ``hashtags``,
    ``mentioned_user_ids``, ``timestamp``, the optional strings.  JSON yields
    exact ``dict``, ``list`` and ``str`` objects, so ``type(x) is`` tests them;
    ``tags`` caches the normalized hashtags across one file."""
    if type(obj) is not dict:
        raise CorpusFormatError(f"line {line_no}: expected a JSON object")
    get = obj.get
    tweet_id, user_id, text = get("tweet_id"), get("user_id"), get("text")
    if type(tweet_id) is not str or type(user_id) is not str or type(text) is not str or not tweet_id or not user_id:
        _check_ids(tweet_id, user_id, text, line_no)

    raw_tags = get("hashtags")
    try:
        if type(raw_tags) is not list:
            raise TypeError(raw_tags)
        hashtags = tuple(filter(None, map(tags.__getitem__, raw_tags)))
    except TypeError:
        raise CorpusFormatError(f"line {line_no}: 'hashtags' must be an array of strings") from None

    mentions = get("mentioned_user_ids", [])
    if type(mentions) is not list or (mentions and not all(type(m) is str for m in mentions)):
        raise CorpusFormatError(f"line {line_no}: 'mentioned_user_ids' must be an array of strings")

    timestamp = raw_ts = get("timestamp")
    if raw_ts is not None:
        if type(raw_ts) is not str:
            raise CorpusFormatError(f"line {line_no}: 'timestamp' must be an ISO-8601 string")
        try:
            timestamp = datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
        except ValueError as exc:
            raise CorpusFormatError(f"line {line_no}: bad timestamp {raw_ts!r}: {exc}") from exc

    optional = tuple(map(get, _OPTIONAL_STR))
    if not set(map(type, optional)) <= _STR_OR_NONE:
        key = next(key for key, value in zip(_OPTIONAL_STR, optional) if type(value) not in _STR_OR_NONE)
        raise CorpusFormatError(f"line {line_no}: field {key!r} must be a string")
    screen_name, retweeted_user_id, in_reply_to_user_id = optional
    record = object.__new__(TweetRecord)
    _set_tweet_id(record, tweet_id)
    _set_user_id(record, user_id)
    _set_text(record, text)
    _set_hashtags(record, hashtags)
    _set_screen_name(record, screen_name or "")
    _set_retweeted_user_id(record, retweeted_user_id)
    _set_in_reply_to_user_id(record, in_reply_to_user_id)
    _set_mentioned_user_ids(record, tuple(mentions))
    _set_timestamp(record, timestamp)
    return record


_raw_decode = json.JSONDecoder().raw_decode


def _json_line(line: str) -> object:
    """``json.loads(line)``, without its wrapper's checks when the line is one
    JSON value and its newline; any other line goes to ``json.loads``."""
    try:
        obj, end = _raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    return obj if line[end:] in ("", "\n") else json.loads(line)


def load_corpus(path: str | Path, strict: bool = False) -> Corpus:
    """Read canonical JSONL.

    Strict mode aborts on the first malformed line or duplicate tweet_id.
    Lenient mode skips malformed lines (``skipped_count``) and keeps the first
    record for a duplicated tweet_id (``duplicate_count``).  Blank lines are
    ignored in both modes.
    """
    tweets: list[TweetRecord] = []
    seen: set[str] = set()
    tags = _TagCache()
    skipped = 0
    duplicates = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(_json_line(line), line_no, tags)
            except (json.JSONDecodeError, CorpusFormatError) as exc:
                if strict:
                    if isinstance(exc, CorpusFormatError):
                        raise
                    raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
                skipped += 1
                continue
            if record.tweet_id in seen:
                if strict:
                    raise CorpusFormatError(f"line {line_no}: duplicate tweet_id {record.tweet_id!r}")
                duplicates += 1
                continue
            seen.add(record.tweet_id)
            tweets.append(record)
    return Corpus(tweets=tweets, skipped_count=skipped, duplicate_count=duplicates)


def _jsonl_record(t: TweetRecord) -> str:
    """``t``'s canonical JSONL line: the fields in sorted key order, the
    optional ones only when set, as ``jsonl_line`` writes the same object."""
    q = encode_basestring
    line = '{"hashtags": [' + ", ".join(map(q, t.hashtags)) + "]"
    if t.in_reply_to_user_id is not None:
        line += ', "in_reply_to_user_id": ' + q(t.in_reply_to_user_id)
    if t.mentioned_user_ids:
        line += ', "mentioned_user_ids": [' + ", ".join(map(q, t.mentioned_user_ids)) + "]"
    if t.retweeted_user_id is not None:
        line += ', "retweeted_user_id": ' + q(t.retweeted_user_id)
    if t.screen_name:
        line += ', "screen_name": ' + q(t.screen_name)
    line += ', "text": ' + q(t.text)
    if t.timestamp is not None:
        line += ', "timestamp": ' + q(t.timestamp.isoformat())
    return line + ', "tweet_id": ' + q(t.tweet_id) + ', "user_id": ' + q(t.user_id) + "}\n"


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write canonical JSONL, line by line; reloading yields an equal Corpus."""
    write_text(path, map(_jsonl_record, corpus.tweets))
