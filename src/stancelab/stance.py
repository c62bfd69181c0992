"""Per-user polarity scores and categorical stance assignment.

A user's polarity is the usage-weighted average of the labels of the
labeled hashtags they used; the stance trichotomy is negative/positive/zero
(or no labeled hashtags) -> disbeliever/believer/unclassified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .fileio import read_csv, write_csv

__all__ = [
    "Stance",
    "StanceRow",
    "StanceTable",
    "stance_from_polarity",
    "user_polarity",
    "classify_users",
    "read_stance_csv",
    "write_stance_csv",
]


class Stance(str, Enum):
    DISBELIEVER = "disbeliever"
    BELIEVER = "believer"
    UNCLASSIFIED = "unclassified"


def stance_from_polarity(polarity: float | None) -> Stance:
    if polarity is None or polarity == 0:
        return Stance.UNCLASSIFIED
    return Stance.DISBELIEVER if polarity < 0 else Stance.BELIEVER


@dataclass(frozen=True)
class StanceRow:
    """hashtag_count is the number of labeled usage events backing the score
    (distinct labeled hashtags under presence weighting)."""

    user_id: str
    polarity: float | None
    stance: Stance
    hashtag_count: int


@dataclass
class StanceTable:
    rows: dict[str, StanceRow]

    def __len__(self) -> int:
        return len(self.rows)

    def stance_of(self, user_id: str, default: Stance = Stance.UNCLASSIFIED) -> Stance:
        row = self.rows.get(user_id)
        return row.stance if row is not None else default

    def group(self, stance: Stance) -> set[str]:
        return {u for u, row in self.rows.items() if row.stance is stance}

    def counts(self) -> dict[Stance, int]:
        out = {s: 0 for s in Stance}
        for row in self.rows.values():
            out[row.stance] += 1
        return out


def _labeled_usage(
    corpus: Corpus,
    labels: dict[str, float],
    user_id: str,
    count_weighting: bool,
    include_retweet_hashtags: bool,
) -> list[tuple[str, int]]:
    counts = corpus.hashtag_counts(user_id, include_retweets=include_retweet_hashtags)
    usage = [(h, c if count_weighting else 1) for h, c in counts.items() if h in labels]
    usage.sort()
    return usage


def user_polarity(
    corpus: Corpus,
    labels: dict[str, float],
    user_id: str,
    *,
    count_weighting: bool = True,
    include_retweet_hashtags: bool = True,
) -> float | None:
    """Weighted average label of the labeled hashtags a user used.

    None when the user used no labeled hashtag.  Raises KeyError for users
    absent from the corpus.
    """
    return _average(_labeled_usage(corpus, labels, user_id, count_weighting, include_retweet_hashtags), labels)


def _average(usage: list[tuple[str, int]], labels: dict[str, float]) -> float | None:
    if not usage:
        return None
    score = 0.0
    total = 0.0
    for tag, weight in usage:
        score += labels[tag] * weight
        total += weight
    return score / total


def classify_users(
    corpus: Corpus,
    labels: dict[str, float],
    *,
    count_weighting: bool = True,
    include_retweet_hashtags: bool = True,
) -> StanceTable:
    """One stance row per corpus author."""
    rows: dict[str, StanceRow] = {}
    for user_id in corpus.users:
        usage = _labeled_usage(corpus, labels, user_id, count_weighting, include_retweet_hashtags)
        polarity = _average(usage, labels)
        rows[user_id] = StanceRow(
            user_id=user_id,
            polarity=polarity,
            stance=stance_from_polarity(polarity),
            hashtag_count=sum(w for _, w in usage),
        )
    return StanceTable(rows=rows)


_STANCE_COLUMNS = ("user_id", "polarity", "stance", "hashtag_count")


def write_stance_csv(table: StanceTable, path: str | Path) -> None:
    """Output CSV: user_id,polarity,stance,hashtag_count (polarity blank when
    undefined)."""
    rows = sorted(table.rows.items())
    write_csv(path, _STANCE_COLUMNS, ((u, r.polarity, r.stance.value, r.hashtag_count) for u, r in rows))


def _stance_row(row: list[str]) -> StanceRow:
    user_id, raw_pol, raw_stance, raw_count = row[:4]
    return StanceRow(
        user_id=user_id,
        polarity=None if raw_pol == "" else float(raw_pol),
        stance=Stance(raw_stance),
        hashtag_count=int(raw_count),
    )


def read_stance_csv(path: str | Path) -> StanceTable:
    return StanceTable(rows={row.user_id: row for row in read_csv(path, _STANCE_COLUMNS, _stance_row)})
