"""Seeded synthetic inputs for the stancelab benchmark.

``generate(spec, seed, dest)`` writes the four pipeline inputs and a config
file into ``dest`` and returns the planted truth, which it also writes to
``dest.parent / "truth.json"`` so the program never sees it.  The same spec
and seed give byte-identical files.

Make-up of a corpus:

* Users fall into camp -1, camp +1, or a neutral share.  Who tweets and who
  gets retweeted, replied to or mentioned follow Zipf weights over one
  user ranking that interleaves the camps; a target is chosen from the
  author's own camp with probability ``separation``, otherwise from anyone.
* Hashtags are split the same way.  A camp hashtag tweet carries two or more
  tags of one camp: a head tag (Zipf over the camp's first ``head_tags``)
  plus Zipf draws over all the camp's tags, so every used camp tag shares a
  tweet with a head tag.  The first tag tweets of each camp pair the camp's
  first seed with every other head tag, so every used camp tag is connected
  to a seed.  With ``burst_tags`` one tweet of camp -1 carries a seed and
  that many of the camp's rarest tags, a clique that propagation can only
  label once its slack reaches ``burst_tags - 1``; that fixes the pass count
  instead of leaving it to the random graph.  A camp user tags with the other camp's tags with probability
  ``1 - separation``; neutral users use neutral tags, which never share a
  tweet with camp tags.
* Words are pseudo-words that no stop-word list holds.  Each camp has
  ``TOPICS_PER_CAMP`` planted topics with disjoint vocabularies; an original
  tweet draws ``words_per_tweet`` words from one topic of its author's camp,
  except for a background share drawn from words no camp owns.
* A retweet copies the original's text, hashtags and mentions.

Regenerate the inputs of a workload with::

    python3 bench/gen.py --workload crowd --seed 1 --dest .bench_out/crowd/inputs
"""

from __future__ import annotations

import argparse
import bisect
import csv
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

# Shared by every workload.
NEUTRAL_SHARE = 0.1  # share of users and of hashtags outside both camps
SELF_RATE = 0.02  # share of interactions an author aims at themself
TOPICS_PER_CAMP = 4
WORDS_PER_TOPIC = 40
BACKGROUND_WORDS = 200  # words no camp owns


@dataclass(frozen=True)
class Spec:
    tweets: int
    users: int
    hashtags: int
    words_per_tweet: int
    separation: float
    tag_rate: float = 0.6
    tail_tags: tuple[int, int] = (1, 2)
    head_tags: int = 8
    seeds_per_camp: int = 2
    retweet_rate: float = 0.3
    reply_rate: float = 0.1
    mention_rate: float = 0.3
    background_share: float = 0.1
    burst_tags: int = 0
    config: dict[str, str] = field(default_factory=dict)


WORKLOADS: dict[str, Spec] = {
    "crowd": Spec(
        tweets=16_000,
        users=3_200,
        hashtags=300,
        words_per_tweet=12,
        separation=0.9,
        retweet_rate=0.35,
        reply_rate=0.15,
        mention_rate=0.4,
        config={"gamma": "1", "lda_iterations": "0"},
    ),
    "topics": Spec(
        tweets=1_200,
        users=300,
        hashtags=100,
        words_per_tweet=16,
        separation=0.95,
        tag_rate=0.7,
        mention_rate=0.5,
        background_share=0.05,
        config={"gamma": "1", "lda_topics": "8", "lda_alpha": "0.1", "lda_iterations": "20"},
    ),
    "tags": Spec(
        tweets=8_000,
        users=2_000,
        hashtags=4_000,
        words_per_tweet=8,
        separation=0.9,
        tag_rate=0.9,
        tail_tags=(1, 4),
        head_tags=6,
        seeds_per_camp=6,
        burst_tags=15,
        config={"lda_iterations": "0", "export_formats": "csv,gexf,dot"},
    ),
}


def pseudo_word(index: int) -> str:
    """Three or more syllables from a fixed alphabet; distinct per index."""
    out = []
    n = len(_SYLLABLES)
    if index < n**3:  # spread consecutive indices over all syllables
        index = (index * 7919 + 13) % n**3
    for _ in range(3):
        out.append(_SYLLABLES[index % n])
        index //= n
    while index:
        out.append(_SYLLABLES[index % n])
        index //= n
    return "".join(out)


class _Zipf:
    """Weighted choice over ``items`` with weight 1 / (rank + 1) ** s."""

    def __init__(self, items: list, s: float = 1.0):
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(items))))

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_right(self.cum, rng.random() * self.cum[-1]) % len(self.items)]


def _split(items: list) -> tuple[list, list, list]:
    n_neutral = int(len(items) * NEUTRAL_SHARE)
    half = (len(items) - n_neutral) // 2
    return items[:half], items[half : 2 * half], items[2 * half :]


def generate(spec: Spec, seed: int, dest: Path) -> dict:
    rng = random.Random(seed)
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)

    users = [f"u{i:05d}" for i in range(spec.users)]
    shuffled = users[:]
    rng.shuffle(shuffled)
    camp_neg, camp_pos, neutral = _split(shuffled)
    camp = {u: -1 for u in camp_neg} | {u: 1 for u in camp_pos} | {u: 0 for u in neutral}
    members = {-1: camp_neg, 1: camp_pos, 0: neutral}
    # One ranking orders both activity and popularity, so the most active
    # authors are also the most retweeted and mentioned and each camp has a
    # strongly connected core with a clear leading eigenvector.  The camps
    # are interleaved in it by their sizes, so that every seed gives each
    # camp the same share of the busiest accounts.
    position = {u: (i + 0.5) / len(m) for m in members.values() for i, u in enumerate(m)}
    order = sorted(users, key=lambda u: (position[u], camp[u]))
    activity = _Zipf(order, 0.8)
    popular_any = _Zipf(order, 1.0)
    popular_in = {c: _Zipf([u for u in order if camp[u] == c], 1.0) for c in members if members[c]}

    tags = [f"tag{pseudo_word(i)}" for i in range(spec.hashtags)]
    rng.shuffle(tags)
    tag_neg, tag_pos, tag_neutral = _split(tags)
    camp_tags = {-1: tag_neg, 1: tag_pos, 0: tag_neutral}
    tag_draw = {c: _Zipf(t) for c, t in camp_tags.items()}
    head_draw = {c: _Zipf(t[: spec.head_tags]) for c, t in camp_tags.items()}
    seeds = {c: camp_tags[c][: spec.seeds_per_camp] for c in (-1, 1)}
    forced = {c: [[seeds[c][0], h] for h in camp_tags[c][1 : spec.head_tags]] for c in (-1, 1)}
    if spec.burst_tags:
        forced[-1].insert(0, [seeds[-1][0], *camp_tags[-1][-spec.burst_tags :]])

    n_topic_words = 2 * TOPICS_PER_CAMP * WORDS_PER_TOPIC
    vocab = [pseudo_word(i) for i in range(n_topic_words + BACKGROUND_WORDS)]
    rng.shuffle(vocab)
    topics: dict[int, list[list[str]]] = {}
    for ci, c in enumerate((-1, 1)):
        start = ci * TOPICS_PER_CAMP * WORDS_PER_TOPIC
        topics[c] = [
            vocab[start + j * WORDS_PER_TOPIC : start + (j + 1) * WORDS_PER_TOPIC]
            for j in range(TOPICS_PER_CAMP)
        ]
    topic_draw = {c: [_Zipf(words) for words in ts] for c, ts in topics.items()}
    background = _Zipf(vocab[n_topic_words:])

    def target(author: str) -> str:
        c = camp[author]
        if rng.random() < SELF_RATE:
            return author
        if rng.random() < spec.separation:
            return popular_in[c].draw(rng)
        return popular_any.draw(rng)

    def tags_for(author: str) -> list[str]:
        c = camp[author]
        if c and rng.random() >= spec.separation:
            c = -c
        if c == 0:
            return sorted({tag_draw[0].draw(rng) for _ in range(rng.randint(1, 2))})
        chosen = [head_draw[c].draw(rng)]
        for _ in range(rng.randint(*spec.tail_tags)):
            tag = tag_draw[c].draw(rng)
            if tag not in chosen:
                chosen.append(tag)
        if len(chosen) == 1:
            chosen.append(next(t for t in camp_tags[c] if t != chosen[0]))
        return chosen

    def words_for(author: str) -> list[str]:
        c = camp[author]
        topic = topic_draw[c][rng.randrange(TOPICS_PER_CAMP)] if c else background
        return [
            (background if rng.random() < spec.background_share else topic).draw(rng)
            for _ in range(spec.words_per_tweet)
        ]

    tallies: dict[str, Counter] = {"retweet": Counter(), "mention": Counter(), "reply": Counter()}
    tokens_by_author: dict[str, Counter] = {}
    tags_by_author: dict[str, set[str]] = {}
    originals: dict[str, list[dict]] = {}
    records: list[dict] = []
    for i in range(spec.tweets):
        author = users[i] if i < spec.users else activity.draw(rng)
        record: dict = {"tweet_id": f"t{i:07d}", "user_id": author, "screen_name": f"name_{author}"}
        source = None
        if i >= spec.users and rng.random() < spec.retweet_rate:
            owner = target(author)
            if originals.get(owner):
                source = originals[owner][rng.randrange(len(originals[owner]))]
        if source is not None:
            record["retweeted_user_id"] = source["user_id"]
            for key in ("text", "hashtags", "mentioned_user_ids"):
                if key in source:
                    record[key] = source[key]
            words = source["_words"]
        else:
            words = words_for(author)
            c = camp[author]
            if c and forced[c]:
                hashtags = forced[c].pop()
            else:
                hashtags = tags_for(author) if rng.random() < spec.tag_rate else []
            mentions = []
            if rng.random() < spec.mention_rate:
                mentions = list(dict.fromkeys(target(author) for _ in range(rng.randint(1, 2))))
            if rng.random() < spec.reply_rate:
                record["in_reply_to_user_id"] = target(author)
            parts = [f"@{m}" for m in mentions] + words + [f"#{t}" for t in hashtags]
            record["text"] = " ".join(parts)
            record["hashtags"] = hashtags
            if mentions:
                record["mentioned_user_ids"] = mentions
            originals.setdefault(author, []).append(record | {"_words": words})
        tokens_by_author.setdefault(author, Counter()).update(words)
        tags_by_author.setdefault(author, set()).update(record["hashtags"])
        for kind, key in (("retweet", "retweeted_user_id"), ("reply", "in_reply_to_user_id")):
            if key in record:
                tallies[kind][(author, record[key])] += 1
        for m in record.get("mentioned_user_ids", ()):
            tallies["mention"][(author, m)] += 1
        records.append(record)

    with open(dest / "corpus.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(dest / "seeds.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hashtag", "label"])
        for c in (-1, 1):
            writer.writerows((tag, c) for tag in seeds[c])
    with open(dest / "bot_scores.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "probability"])
        writer.writerows((u, f"{rng.random():.3f}") for u in users if rng.random() < 0.9)
    news = set(rng.sample(users, max(2, spec.users // 40)))
    with open(dest / "account_types.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "type"])
        writer.writerows((u, "news" if u in news else "other") for u in users if u in news or rng.random() < 0.2)
    config = {
        "corpus_path": "corpus.jsonl",
        "seed_file": "seeds.csv",
        "bot_scores_path": "bot_scores.csv",
        "account_types_path": "account_types.csv",
        "output_dir": "report",
    } | spec.config
    (dest / "config.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")

    used_tags = {t for r in records for t in r["hashtags"]}
    truth = {
        "tweets": len(records),
        "user_camp": camp,
        "tag_camp": {t: c for c, ts in camp_tags.items() for t in ts if t in used_tags},
        "seeds": {str(c): s for c, s in seeds.items()},
        "topics": {str(c): ts for c, ts in topics.items()},
        "interactions": {
            kind: [[a, b, n] for (a, b), n in sorted(counts.items())] for kind, counts in tallies.items()
        },
        "tokens_by_author": {u: dict(sorted(c.items())) for u, c in sorted(tokens_by_author.items())},
        "tweets_by_author": dict(sorted(Counter(r["user_id"] for r in records).items())),
        "tags_by_author": {u: sorted(t) for u, t in sorted(tags_by_author.items())},
    }
    with open(dest.parent / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", type=Path, required=True, help="directory for the generated inputs")
    args = parser.parse_args()
    generate(WORKLOADS[args.workload], args.seed, args.dest)


if __name__ == "__main__":
    main()
