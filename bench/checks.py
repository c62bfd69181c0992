"""Output checks for one stancelab bundle, made apart from the program.

Every check reads bundle files with ``csv``/``json`` and compares them with
the planted truth of ``gen.generate``, with the generated input CSVs, or
with a recomputation by ``networkx``, ``scipy`` or ``collections.Counter``.
No check imports stancelab or compares against a stored copy of earlier
output.  ``check_bundle`` returns one message per failed check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Program defaults the generated configs leave unset.
SWEEP_GRID = tuple(round(i * 0.05, 2) for i in range(21))
TOP_N_WORDS = 10
STANCE_OF_CAMP = {-1: "disbeliever", 1: "believer"}
GROUPS = ("believer", "disbeliever")
# A planted topic counts as recovered when a fitted topic has at least this
# many of its top words in the planted vocabulary.
RECOVERY_WORDS = 8
EIGEN_TOL = 1e-6
DENSE_MAX = 300  # larger groups use scipy's sparse solver


def bundle_digest(bundle: Path) -> str:
    """SHA-256 over every bundle file but the timestamped manifest."""
    h = hashlib.sha256()
    for path in sorted(p for p in bundle.rglob("*") if p.is_file() and p.name != "manifest.json"):
        h.update(str(path.relative_to(bundle)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_bundle(bundle: Path, inputs: Path, truth: dict, lda: list[dict], topics: bool) -> list[str]:
    failures: list[str] = []
    labels = {r["hashtag"]: float(r["label"]) for r in _rows(bundle / "hashtag_labels.csv")}
    stance = {r["user_id"]: r["stance"] for r in _rows(bundle / "stance.csv")}

    # Every camp hashtag gets its camp's sign.
    for tag, camp in truth["tag_camp"].items():
        if camp and (tag not in labels or labels[tag] * camp <= 0):
            failures.append(f"hashtag {tag} of camp {camp} has label {labels.get(tag)}")
            break

    # A user whose labeled usage is only their camp's hashtags gets their camp's stance.
    checked = 0
    for user, camp in truth["user_camp"].items():
        used = [t for t in truth["tags_by_author"].get(user, ()) if t in labels]
        if camp and used and all(truth["tag_camp"].get(t) == camp for t in used):
            checked += 1
            if stance.get(user) != STANCE_OF_CAMP[camp]:
                failures.append(f"user {user} of camp {camp} has stance {stance.get(user)}")
                break
    if checked < len(truth["user_camp"]) // 4:
        failures.append(f"stance check covered only {checked} users")

    # Network edge weights plus self-loops equal the emitted interaction tallies.
    combined: Counter = Counter()
    combined_self = 0
    for kind, tallies in truth["interactions"].items():
        with open(bundle / "networks" / f"{kind}.json", encoding="utf-8") as fh:
            net = json.load(fh)
        expected = {(a, b): n for a, b, n in tallies if a != b}
        self_loops = sum(n for a, b, n in tallies if a == b)
        if {(a, b): w for a, b, w in net["edges"]} != expected or net["self_loop_count"] != self_loops:
            failures.append(f"{kind} network differs from the emitted interactions")
        combined.update(expected)
        combined_self += self_loops
    with open(bundle / "networks" / "all_communication.json", encoding="utf-8") as fh:
        net = json.load(fh)
    if {(a, b): w for a, b, w in net["edges"]} != dict(combined) or net["self_loop_count"] != combined_self:
        failures.append("all_communication network differs from the emitted interactions")

    # r, d and e match networkx on the exported edge CSV.
    edges = [(r["src"], r["dst"]) for r in _rows(bundle / "networks" / "all_communication.edges.csv")]
    nodes = set(stance) | {n for e in edges for n in e}
    with open(bundle / "metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    for row in metrics:
        groups = {row["group"]} | ({"unclassified"} if row["with_unclassified"] else set())
        g = nx.DiGraph()
        g.add_nodes_from(n for n in nodes if stance.get(n, "unclassified") in groups)
        g.add_edges_from((a, b) for a, b in edges if a in g and b in g)
        r = nx.reciprocity(g) if g.number_of_edges() else 0.0
        d = nx.density(g)
        if not (
            _close(row["r"], r)
            and _close(row["d"], d)
            and _close(row["e"], (r * d) ** (1 / 3))
            and (row["n_nodes"], row["n_edges"]) == (g.number_of_nodes(), g.number_of_edges())
        ):
            failures.append(f"metrics row {row['group']}/{row['with_unclassified']} differs from networkx")

    # Super-spreader measures match a recomputation on the mentioned-by plus
    # retweeted-by base; eigenvector centrality matches scipy.
    base: Counter = Counter()
    for kind in ("mention", "retweet"):
        for r in _rows(bundle / "networks" / f"{kind}.edges.csv"):
            base[(r["dst"], r["src"])] += int(r["weight"])
    for group in GROUPS:
        failures += _check_spreaders(bundle / f"super_spreaders_{group}.csv", base, stance, group)

    # Frequency rows match a Counter over the generated tokens.
    for group in GROUPS:
        counts: Counter = Counter()
        for user, s in stance.items():
            if s == group:
                counts.update(truth["tokens_by_author"][user])
        expected_rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:TOP_N_WORDS]
        got = [(r["term"], int(r["count"])) for r in _rows(bundle / "text" / f"frequencies_{group}.csv")]
        if got != expected_rows:
            failures.append(f"frequencies_{group}.csv differs from a Counter over the generated tokens")

    failures += _check_annotations(bundle, inputs, truth, stance)
    if topics:
        failures += _check_topics(bundle, truth, lda)
    return failures


def _check_spreaders(path: Path, base: Counter, stance: dict[str, str], group: str) -> list[str]:
    members = {n for e in base for n in e if stance.get(n, "unclassified") == group}
    order = sorted(members)
    index = {n: i for i, n in enumerate(order)}
    received = Counter()
    sources = Counter()
    rows, cols, weights = [], [], []
    for (x, y), w in base.items():
        if x in index and y in index:
            received[x] += w
            sources[x] += 1
            rows.append(index[x])
            cols.append(index[y])
            weights.append(float(w))
    got = {r["user_id"]: r for r in _rows(path)}
    if set(got) != members:
        return [f"{path.name} lists other accounts than the {group} base network"]
    for n in order:
        if (float(got[n]["measure1"]), float(got[n]["measure3"])) != (received[n], sources[n]):
            return [f"{path.name}: received counts of {n} differ"]
    if not order:
        return []
    # Edge (x, y) adds w * score(y) to score(x): the dominant right
    # eigenvector of this matrix, which is also that of matrix + I.
    matrix = scipy.sparse.csr_matrix((weights, (rows, cols)), shape=(len(order), len(order)))
    if len(order) <= DENSE_MAX:
        values, vectors = np.linalg.eig(matrix.toarray())
        vector = np.abs(vectors[:, np.argmax(values.real)].real)
    else:
        _, vectors = scipy.sparse.linalg.eigs(matrix, k=1, which="LR", v0=np.ones(len(order)), tol=1e-12)
        vector = np.abs(vectors[:, 0].real)
    vector /= np.linalg.norm(vector)
    got_vector = np.array([float(got[n]["measure2"]) for n in order])
    error = float(np.max(np.abs(got_vector - vector)))
    if error > EIGEN_TOL:
        return [f"{path.name}: eigenvector centrality is {error:.2e} from scipy's"]
    return []


def _check_annotations(bundle: Path, inputs: Path, truth: dict, stance: dict[str, str]) -> list[str]:
    failures = []
    scores = {r["user_id"]: float(r["probability"]) for r in _rows(inputs / "bot_scores.csv")}
    news = {r["user_id"] for r in _rows(inputs / "account_types.csv") if r["type"] == "news"}
    tweets = truth["tweets_by_author"]
    members = {g: {u for u, s in stance.items() if s == g} for g in ("believer", "disbeliever", "unclassified")}

    expected = []
    for t in SWEEP_GRID:
        for g in sorted(members):
            group = members[g]
            bots = {u for u in group if scores.get(u, -1.0) > t}
            group_tweets = sum(tweets[u] for u in group)
            expected.append(
                (
                    t,
                    g,
                    len(bots) / len(group) if group else 0.0,
                    sum(tweets[u] for u in bots) / group_tweets if group_tweets else 0.0,
                    sum(1 for u in group if u not in scores),
                )
            )
    got = [
        (float(r["threshold"]), r["group"], float(r["account_fraction"]), float(r["tweet_fraction"]), int(r["unscored_count"]))
        for r in _rows(bundle / "bot_sweep.csv")
    ]
    if len(got) != len(expected) or any(
        a[1] != b[1] or a[4] != b[4] or not all(_close(x, y) for x, y in zip(a[:1] + a[2:4], b[:1] + b[2:4]))
        for a, b in zip(got, expected)
    ):
        failures.append("bot_sweep.csv differs from a recomputation over the generated CSVs")

    with open(bundle / "concentration.json", encoding="utf-8") as fh:
        reports = {r["group"]: r for r in json.load(fh)}
    for g, group in members.items():
        counts = {u: tweets[u] for u in group if u in news}
        total = sum(counts.values())
        shares = [c / total for c in counts.values()] if total else []
        herfindahl = sum(s * s for s in sorted(shares, reverse=True))
        report = reports[g]
        if not (
            report["news_tweet_count"] == total
            and report["group_tweet_count"] == sum(tweets[u] for u in group)
            and {a["user_id"]: a["tweet_count"] for a in report["accounts"]} == counts
            and _close(report["herfindahl"], herfindahl)
            and _close(report["top_share"], max(shares, default=0.0))
        ):
            failures.append(f"concentration.json group {g} differs from a recomputation")
    return failures


def _check_topics(bundle: Path, truth: dict, lda: list[dict]) -> list[str]:
    failures = []
    if len(lda) != len(GROUPS) or any(abs(s - 1.0) > 1e-9 for fit in lda for s in fit["phi_row_sums"]):
        failures.append(f"phi rows do not sum to 1: {lda}")
    for camp, group in STANCE_OF_CAMP.items():
        with open(bundle / "text" / f"topics_{group}.json", encoding="utf-8") as fh:
            fitted = [{w["word"] for w in topic["top_words"]} for topic in json.load(fh)]
        for planted in truth["topics"][str(camp)]:
            planted = set(planted)
            if not any(len(words & planted) >= RECOVERY_WORDS for words in fitted):
                failures.append(f"a planted topic of camp {camp} was not recovered in topics_{group}.json")
    return failures
