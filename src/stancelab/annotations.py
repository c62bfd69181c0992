"""External per-account annotations: bot probabilities and account types.

Bot classification uses a strict greater-than threshold on externally
supplied probabilities.  The sweep reports, per stance group and threshold,
the fraction of bot-like accounts and of tweets they authored.  News-source
concentration summarizes how much of a group's traffic comes from how few
news-typed accounts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, astuple, dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .corpus import Corpus
from .fileio import parse_field, read_csv, write_csv, write_json
from .stance import Stance, StanceTable

__all__ = [
    "BotScoreTable",
    "SweepRow",
    "NewsGroupReport",
    "load_bot_scores",
    "load_account_types",
    "classify_bots",
    "bot_threshold_sweep",
    "news_source_concentration",
    "write_sweep_csv",
    "write_concentration_json",
]

_ACCOUNT_TYPES = {"news", "other"}


@dataclass
class BotScoreTable:
    """user_id -> bot probability in [0, 1]; missing users are unscored."""

    scores: dict[str, float]

    def __len__(self) -> int:
        return len(self.scores)


def _bot_score(row: list[str]) -> tuple[str, float]:
    prob = parse_field(float, row[1], "probability")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability {prob} out of [0, 1]")
    return row[0], prob


def load_bot_scores(path: str | Path) -> BotScoreTable:
    """Bot scores CSV: header ``user_id,probability``."""
    return BotScoreTable(scores=dict(read_csv(path, ("user_id", "probability"), _bot_score, header_optional=True)))


def _account_type(row: list[str]) -> tuple[str, str]:
    kind = row[1].strip().lower()
    if kind not in _ACCOUNT_TYPES:
        raise ValueError(f"unknown account type {row[1]!r}")
    return row[0], kind


def load_account_types(path: str | Path) -> dict[str, str]:
    """Account types CSV: header ``user_id,type`` with type in {news, other}."""
    return dict(read_csv(path, ("user_id", "type"), _account_type, header_optional=True))


def classify_bots(scores: BotScoreTable, threshold: float) -> set[str]:
    """Accounts whose probability strictly exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} out of [0, 1]")
    return {u for u, p in scores.scores.items() if p > threshold}


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    group: str
    account_fraction: float
    tweet_fraction: float
    unscored_count: int


def bot_threshold_sweep(
    corpus: Corpus,
    table: StanceTable,
    scores: BotScoreTable,
    grid: Sequence[float],
    *,
    include_global: bool = False,
) -> list[SweepRow]:
    """One row per (threshold, stance group), ordered by threshold then group.

    Unscored accounts never count as bot-like; their number is reported per
    group.  ``include_global`` adds an "all" group over every corpus author.
    """
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b < a for a, b in zip(grid, list(grid)[1:])):
        raise ValueError("grid values must be ascending")

    groups: dict[str, set[str]] = {s.value: table.group(s) for s in Stance}
    if include_global:
        groups["all"] = set(corpus.users)
    tweets_by_user = {u: len(tweets) for u, tweets in corpus.users.items()}

    # Per group: its scored members' probabilities ascending, and the tweets
    # of the members from each index on.  The bots at a threshold are the
    # members past bisect_right, so one sort serves every threshold; the
    # counts are integers, so each fraction is the same division as a count
    # made member by member.
    tallies = []
    for group_name in sorted(groups):
        members = groups[group_name]
        scored = sorted((p, tweets_by_user.get(u, 0)) for u in members if (p := scores.scores.get(u)) is not None)
        probs = [p for p, _ in scored]
        tail_tweets = list(accumulate(reversed([n for _, n in scored]), initial=0))[::-1]
        group_tweets = sum(tweets_by_user.get(u, 0) for u in members)
        tallies.append((group_name, len(members), len(members) - len(scored), group_tweets, probs, tail_tweets))

    rows: list[SweepRow] = []
    for threshold in grid:
        for group_name, n_members, unscored, group_tweets, probs, tail_tweets in tallies:
            first_bot = bisect_right(probs, threshold)
            rows.append(
                SweepRow(
                    threshold=threshold,
                    group=group_name,
                    account_fraction=(len(probs) - first_bot) / n_members if n_members else 0.0,
                    tweet_fraction=tail_tweets[first_bot] / group_tweets if group_tweets else 0.0,
                    unscored_count=unscored,
                )
            )
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))


@dataclass(frozen=True)
class NewsGroupReport:
    """Word-cloud data and concentration summary for one stance group.

    ``accounts`` lists (user_id, screen_name, tweet_count) for news-typed
    group members, by descending tweet count.  ``herfindahl`` is the sum of
    squared shares of news tweets over those accounts (1/m for m equal
    accounts, 1.0 for a single dominating source).
    """

    group: str
    accounts: list[tuple[str, str, int]]
    group_tweet_count: int
    news_tweet_count: int
    news_tweet_share: float
    top_share: float
    herfindahl: float


def news_source_concentration(
    corpus: Corpus,
    table: StanceTable,
    types: dict[str, str],
) -> list[NewsGroupReport]:
    """Per-group news-account tweet counts and concentration indices."""
    names = corpus.screen_names()
    reports: list[NewsGroupReport] = []
    for stance in sorted(Stance, key=lambda s: s.value):
        members = table.group(stance)
        group_tweets = sum(len(corpus.users[u]) for u in members)
        news_counts = {
            u: len(corpus.users[u]) for u in members if types.get(u) == "news"
        }
        total_news = sum(news_counts.values())
        accounts = sorted(news_counts.items(), key=lambda item: (-item[1], item[0]))
        shares = [c / total_news for _, c in accounts] if total_news else []
        reports.append(
            NewsGroupReport(
                group=stance.value,
                accounts=[(u, names.get(u, ""), c) for u, c in accounts],
                group_tweet_count=group_tweets,
                news_tweet_count=total_news,
                news_tweet_share=total_news / group_tweets if group_tweets else 0.0,
                top_share=max(shares) if shares else 0.0,
                herfindahl=sum(s * s for s in shares),
            )
        )
    return reports


def write_concentration_json(reports: list[NewsGroupReport], path: str | Path) -> None:
    keys = ("user_id", "screen_name", "tweet_count")
    write_json(path, [{**asdict(r), "accounts": [dict(zip(keys, a)) for a in r.accounts]} for r in reports])
