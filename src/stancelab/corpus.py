"""Tweet corpus ingestion, validation, and the canonical in-memory model.

The canonical on-disk format is UTF-8 JSONL, one object per line, with
required keys ``tweet_id``, ``user_id``, ``text``, ``hashtags`` and optional
keys ``screen_name``, ``retweeted_user_id``, ``in_reply_to_user_id``,
``mentioned_user_ids``, ``timestamp`` (ISO-8601).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from pathlib import Path

from .fileio import jsonl_line, write_jsonl

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
    "record_to_dict",
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


@dataclass(frozen=True)
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
    """Immutable-after-load tweet collection with derived per-user indices.

    ``users`` maps user_id to the set of their tweet ids; ``hashtag_usage``
    counts usage events per (user_id, hashtag), where a duplicated hashtag
    inside one tweet counts once per occurrence.
    """

    tweets: list[TweetRecord]
    skipped_count: int = field(default=0, compare=False)
    duplicate_count: int = field(default=0, compare=False)
    users: dict[str, set[str]] = field(init=False, repr=False, compare=False)
    hashtag_usage: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    _digest: str | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rebuild_indices()

    def rebuild_indices(self) -> None:
        users: dict[str, set[str]] = {}
        usage: dict[tuple[str, str], int] = {}
        for t in self.tweets:
            users.setdefault(t.user_id, set()).add(t.tweet_id)
            for h in t.hashtags:
                key = (t.user_id, h)
                usage[key] = usage.get(key, 0) + 1
        self.users = users
        self.hashtag_usage = usage
        self._digest = None

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
        """Usage-event counts per hashtag for one user, optionally skipping retweets."""
        if user_id not in self.users:
            raise KeyError(user_id)
        counts: dict[str, int] = {}
        for t in self.tweets:
            if t.user_id != user_id:
                continue
            if not include_retweets and t.is_retweet:
                continue
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

    def digest(self) -> str:
        """SHA-256 of the bytes ``dump_corpus`` writes, cached per instance."""
        if self._digest is None:
            h = hashlib.sha256()
            for t in self.tweets:
                h.update(jsonl_line(record_to_dict(t)).encode("utf-8"))
            self._digest = h.hexdigest()
        return self._digest


def record_to_dict(record: TweetRecord) -> dict:
    """Canonical JSON object for one record; optional empties are omitted."""
    obj: dict = {
        "tweet_id": record.tweet_id,
        "user_id": record.user_id,
        "text": record.text,
        "hashtags": list(record.hashtags),
    }
    if record.screen_name:
        obj["screen_name"] = record.screen_name
    if record.retweeted_user_id is not None:
        obj["retweeted_user_id"] = record.retweeted_user_id
    if record.in_reply_to_user_id is not None:
        obj["in_reply_to_user_id"] = record.in_reply_to_user_id
    if record.mentioned_user_ids:
        obj["mentioned_user_ids"] = list(record.mentioned_user_ids)
    if record.timestamp is not None:
        obj["timestamp"] = record.timestamp.isoformat()
    return obj


def _expect_str(obj: dict, key: str, line_no: int, required: bool = True) -> str | None:
    if key not in obj or obj[key] is None:
        if required:
            raise CorpusFormatError(f"line {line_no}: missing required field {key!r}")
        return None
    value = obj[key]
    if not isinstance(value, str):
        raise CorpusFormatError(f"line {line_no}: field {key!r} must be a string")
    return value


def _parse_record(obj: object, line_no: int) -> TweetRecord:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"line {line_no}: expected a JSON object")
    tweet_id = _expect_str(obj, "tweet_id", line_no)
    user_id = _expect_str(obj, "user_id", line_no)
    text = obj.get("text")
    if text is None or not isinstance(text, str):
        raise CorpusFormatError(f"line {line_no}: missing required field 'text'")
    if not tweet_id:
        raise CorpusFormatError(f"line {line_no}: tweet_id must be nonempty")
    if not user_id:
        raise CorpusFormatError(f"line {line_no}: user_id must be nonempty")

    raw_tags = obj.get("hashtags")
    if not isinstance(raw_tags, list) or any(not isinstance(h, str) for h in raw_tags):
        raise CorpusFormatError(f"line {line_no}: 'hashtags' must be an array of strings")
    hashtags = tuple(h for h in (normalize_hashtag(raw) for raw in raw_tags) if h)

    mentions = obj.get("mentioned_user_ids", [])
    if not isinstance(mentions, list) or any(not isinstance(m, str) for m in mentions):
        raise CorpusFormatError(f"line {line_no}: 'mentioned_user_ids' must be an array of strings")

    timestamp = None
    if obj.get("timestamp") is not None:
        raw_ts = obj["timestamp"]
        if not isinstance(raw_ts, str):
            raise CorpusFormatError(f"line {line_no}: 'timestamp' must be an ISO-8601 string")
        try:
            timestamp = datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
        except ValueError as exc:
            raise CorpusFormatError(f"line {line_no}: bad timestamp {raw_ts!r}: {exc}") from exc

    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        text=text,
        hashtags=hashtags,
        screen_name=_expect_str(obj, "screen_name", line_no, required=False) or "",
        retweeted_user_id=_expect_str(obj, "retweeted_user_id", line_no, required=False),
        in_reply_to_user_id=_expect_str(obj, "in_reply_to_user_id", line_no, required=False),
        mentioned_user_ids=tuple(mentions),
        timestamp=timestamp,
    )


def load_corpus(path: str | Path, strict: bool = False) -> Corpus:
    """Read canonical JSONL.

    Strict mode aborts on the first malformed line or duplicate tweet_id.
    Lenient mode skips malformed lines (``skipped_count``) and keeps the first
    record for a duplicated tweet_id (``duplicate_count``).  Blank lines are
    ignored in both modes.
    """
    tweets: list[TweetRecord] = []
    seen: set[str] = set()
    skipped = 0
    duplicates = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _parse_record(json.loads(line), line_no)
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


def dump_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write canonical JSONL; reloading yields an equal Corpus."""
    write_jsonl(path, (record_to_dict(t) for t in corpus.tweets))
