"""End-to-end batch pipeline over one table of cached intermediates.

The stages form one chain: ingest, hashtags, propagate, classify, networks,
metrics, text, annotations, report.  ``_INTERMEDIATES`` states once, for each
value a stage hands on to later stages (the corpus, the hashtag graph, the
labels, the stance table and the five networks), its bundle path, the stage
that produces it, the last stage that reads it, and how it is read and
written.  Stages take their inputs and hand on their outputs through a
``_Bundle``, whose ``put`` always writes the file:

* ``run_pipeline`` also keeps each intermediate in memory until its last
  reader has run, so later stages take it from there and the run reads back
  no file it wrote.  It builds the bundle in a temporary sibling directory
  and, once every stage has succeeded, renames it into place as
  ``output_dir``.
* ``run_stage`` runs one stage against ``output_dir`` and keeps nothing:
  ``get`` reads the file, and a missing file fails with the name of the
  stage that writes it.

Both paths write the same bytes.
"""

from __future__ import annotations

import hashlib
import logging
import shutil
import tempfile
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, get_args, get_origin, get_type_hints

from . import __version__
from .annotations import (
    bot_threshold_sweep,
    load_account_types,
    load_bot_scores,
    news_source_concentration,
    write_concentration_json,
    write_sweep_csv,
)
from .commnet import (
    NetworkKind,
    all_communication,
    attach_stances,
    build_network,
    export_graph,
    group_subgraph,
    read_network_json,
    reciprocal_subnetwork,
    write_network_json,
)
from .corpus import dump_corpus, load_corpus
from .fileio import write_json
from .hashtag_graph import (
    PropagationConfig,
    SeedSpec,
    build_cooccurrence_graph,
    propagate_labels,
    read_graph_json,
    read_labels_csv,
    seed_labels,
    write_graph_json,
    write_labels_csv,
)
from .netmetrics import echo_chamberness, influence_base, super_friends, super_spreaders, write_influencer_csv
from .stance import Stance, classify_users, read_stance_csv, write_stance_csv
from .textlab import (
    default_stopwords,
    lda_fit,
    load_stopwords,
    tokenize,
    unigram_frequencies,
    write_frequency_csv,
    write_topics_json,
)

__all__ = [
    "PipelineConfig",
    "ConfigError",
    "StageError",
    "STAGE_ORDER",
    "run_pipeline",
    "run_stage",
]

logger = logging.getLogger(__name__)

CORPUS_FILE = "corpus.jsonl"
GRAPH_FILE = "hashtag_graph.json"
LABELS_FILE = "hashtag_labels.csv"
STANCE_FILE = "stance.csv"
NETWORKS_DIR = "networks"
METRICS_FILE = "metrics.json"
INFLUENCER_SUMMARY_FILE = "influencer_summary.json"
TEXT_DIR = "text"
SWEEP_FILE = "bot_sweep.csv"
CONCENTRATION_FILE = "concentration.json"
MANIFEST_FILE = "manifest.json"

_NETWORK_NAMES = ("retweet", "mention", "reply", "all_communication", "reciprocal")
_INFLUENCER_GROUPS = (Stance.BELIEVER, Stance.DISBELIEVER)
_DEFAULT_GRID = tuple(round(i * 0.05, 2) for i in range(21))


class ConfigError(ValueError):
    """Invalid pipeline configuration; raised before any stage runs."""


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@dataclass
class PipelineConfig:
    """All pipeline knobs; mirrors the key=value config file one to one.

    Parsing, the required keys, the input-file checks and the CLI flags all
    follow from these fields and their type hints.
    """

    corpus_path: Path
    seed_file: Path
    bot_scores_path: Path
    account_types_path: Path
    output_dir: Path
    strict_ingest: bool = False
    min_cooccurrence: int = 1
    gamma: int = 100
    max_passes: int = 1_000_000
    unlabeled_as_zero: bool = False
    presence_weighting: bool = False
    include_retweet_hashtags: bool = True
    include_retweet_mentions: bool = True
    reciprocal_base: str = "all_communication"
    top_k: int = 3
    lda_topics: int = 10
    lda_alpha: float | None = None
    lda_beta: float = 0.01
    lda_iterations: int = 1000
    lda_pool_by_user: bool = False
    rng_seed: int = 0
    stopword_file: Path | None = None
    topics_include_hashtags: bool = True
    topics_exclude_hashtags_in_report: bool = False
    frequencies_include_hashtags: bool = False
    top_n_words: int = 10
    sweep_grid: tuple[float, ...] = _DEFAULT_GRID
    sweep_include_global: bool = False
    export_formats: tuple[str, ...] = ("csv",)

    def input_files(self) -> dict[str, Path]:
        """The input files this config names: every set path field but ``output_dir``."""
        return {
            f.name: Path(getattr(self, f.name))
            for f in fields(self)
            if Path in (FIELD_TYPES[f.name], *get_args(FIELD_TYPES[f.name]))
            and f.name != "output_dir"
            and getattr(self, f.name) is not None
        }

    def validate(self) -> None:
        for name, path in self.input_files().items():
            if not path.is_file():
                raise ConfigError(f"{name} does not exist: {path}")
        if self.reciprocal_base not in _NETWORK_NAMES[:4]:
            raise ConfigError(f"reciprocal_base must be one of {_NETWORK_NAMES[:4]}")
        for fmt in self.export_formats:
            if fmt not in ("csv", "dot", "gexf"):
                raise ConfigError(f"unknown export format {fmt!r}")
        if self.min_cooccurrence < 1 or self.gamma < 1 or self.max_passes < 1:
            raise ConfigError("min_cooccurrence, gamma, and max_passes must be >= 1")
        if self.top_k < 1 or self.lda_topics < 1 or self.top_n_words < 1:
            raise ConfigError("top_k, lda_topics, and top_n_words must be >= 1")
        if not (self.lda_alpha is None or self.lda_alpha > 0) or not self.lda_beta > 0:
            raise ConfigError("lda_alpha and lda_beta must be > 0")
        if self.lda_iterations < 0 or self.rng_seed < 0:
            raise ConfigError("lda_iterations and rng_seed must be >= 0")
        if any(not 0.0 <= t <= 1.0 for t in self.sweep_grid):
            raise ConfigError("sweep_grid values must lie in [0, 1]")
        if any(b < a for a, b in zip(self.sweep_grid, self.sweep_grid[1:])):
            raise ConfigError("sweep_grid must be ascending")

    def to_text(self) -> str:
        """Canonical key=value dump (sorted keys); feeds the config hash and
        the manifest, and parses back via ``PipelineConfig.from_text``."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                rendered = ""
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str, base_dir: Path | None = None) -> "PipelineConfig":
        raw: dict[str, str] = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
        unknown = set(raw) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
                raise ConfigError(f"missing required config key {f.name!r}")
        base_dir = base_dir or Path.cwd()
        return cls(**{key: cls.parse_value(key, value, base_dir) for key, value in raw.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8"), base_dir=path.resolve().parent)

    @staticmethod
    def parse_value(name: str, text: str, base_dir: Path) -> Any:
        """Field ``name``'s value from its text, converted by the field's type hint.

        A relative path resolves against ``base_dir``.  An empty value means
        None for an optional field and () for a tuple field.
        """
        try:
            return _parse(FIELD_TYPES[name], text.strip(), base_dir)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc


FIELD_TYPES: dict[str, Any] = get_type_hints(PipelineConfig)


def _parse(hint: Any, text: str, base_dir: Path) -> Any:
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return tuple(_parse(args[0], part.strip(), base_dir) for part in text.split(",") if part.strip())
    if args:  # X | None
        return _parse(args[0], text, base_dir) if text else None
    if hint is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {text!r}")
    if hint is Path:
        return base_dir / text  # an absolute text replaces base_dir
    return hint(text)


@dataclass(frozen=True)
class _Intermediate:
    path: str
    producer: str
    last_reader: str
    read: Callable[[Path], Any]
    write: Callable[[Any, Path], None]


# The readers and writers look their functions up in this module's globals
# when they run, so a function patched onto the module is the one called.
_INTERMEDIATES: dict[str, _Intermediate] = {
    "corpus": _Intermediate(
        CORPUS_FILE, "ingest", "annotations", lambda p: load_corpus(p), lambda v, p: dump_corpus(v, p)
    ),
    "hashtag_graph": _Intermediate(
        GRAPH_FILE, "hashtags", "propagate", lambda p: read_graph_json(p), lambda v, p: write_graph_json(v, p)
    ),
    "labels": _Intermediate(
        LABELS_FILE, "propagate", "classify", lambda p: read_labels_csv(p), lambda v, p: write_labels_csv(v, p)
    ),
    "stance": _Intermediate(
        STANCE_FILE, "classify", "annotations", lambda p: read_stance_csv(p), lambda v, p: write_stance_csv(v, p)
    ),
    **{
        name: _Intermediate(
            f"{NETWORKS_DIR}/{name}.json",
            "networks",
            "metrics",
            lambda p: read_network_json(p),
            lambda v, p: write_network_json(v, p),
        )
        for name in _NETWORK_NAMES
    },
}


class _Bundle:
    """One build's bundle directory, through which stages pass intermediates.

    ``put`` writes an intermediate's file.  With ``keep`` it also holds the
    value until ``forget`` is called after its last reader, and ``get``
    returns it from memory; without, ``get`` reads the file.  ``stage``
    names the running stage for error messages.
    """

    def __init__(self, root: Path, keep: bool) -> None:
        self.root = root
        self.stage = ""
        self._kept: dict[str, Any] | None = {} if keep else None

    def put(self, name: str, value: Any) -> None:
        item = _INTERMEDIATES[name]
        item.write(value, self.root / item.path)
        if self._kept is not None:
            self._kept[name] = value

    def forget(self, stage: str) -> None:
        """Drop the kept values that no stage after ``stage`` reads."""
        if self._kept is not None:
            for name in [n for n in self._kept if _INTERMEDIATES[n].last_reader == stage]:
                del self._kept[name]

    def get(self, name: str) -> Any:
        if self._kept is not None:
            return self._kept[name]
        item = _INTERMEDIATES[name]
        return item.read(self.require(item.path, item.producer))

    def require(self, rel: str, producer: str) -> Path:
        path = self.root / rel
        if not path.is_file():
            raise StageError(self.stage, f"missing intermediate {rel!r}; run the {producer} stage first")
        return path


def _export_path(name: str, fmt: str) -> str:
    return f"{NETWORKS_DIR}/{name}.{'edges.csv' if fmt == 'csv' else fmt}"


def stage_ingest(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = load_corpus(cfg.corpus_path, strict=cfg.strict_ingest)
    if corpus.skipped_count or corpus.duplicate_count:
        logger.warning(
            "ingest: skipped %d malformed line(s), dropped %d duplicate id(s)",
            corpus.skipped_count,
            corpus.duplicate_count,
        )
    bundle.put("corpus", corpus)


def stage_hashtags(cfg: PipelineConfig, bundle: _Bundle) -> None:
    bundle.put("hashtag_graph", build_cooccurrence_graph(bundle.get("corpus"), cfg.min_cooccurrence))


def stage_propagate(cfg: PipelineConfig, bundle: _Bundle) -> None:
    graph = bundle.get("hashtag_graph")
    seeds = SeedSpec.from_csv(cfg.seed_file)
    seeded, missing = seed_labels(graph, seeds)
    if missing:
        logger.warning("propagate: seed hashtags absent from the graph: %s", ", ".join(missing))
    labels = propagate_labels(
        seeded,
        PropagationConfig(
            gamma=cfg.gamma,
            max_passes=cfg.max_passes,
            unlabeled_as_zero=cfg.unlabeled_as_zero,
        ),
    )
    bundle.put("labels", labels)


def stage_classify(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = classify_users(
        corpus,
        bundle.get("labels"),
        count_weighting=not cfg.presence_weighting,
        include_retweet_hashtags=cfg.include_retweet_hashtags,
    )
    bundle.put("stance", table)


def stage_networks(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = bundle.get("stance")

    retweet = build_network(corpus, NetworkKind.RETWEET)
    mention = build_network(corpus, NetworkKind.MENTION, include_retweet_mentions=cfg.include_retweet_mentions)
    reply = build_network(corpus, NetworkKind.REPLY)
    combined = all_communication(retweet, mention, reply, corpus)
    bases = {
        "retweet": retweet,
        "mention": mention,
        "reply": reply,
        "all_communication": combined,
    }
    nets = dict(bases, reciprocal=reciprocal_subnetwork(bases[cfg.reciprocal_base]))
    (bundle.root / NETWORKS_DIR).mkdir(parents=True, exist_ok=True)
    for name in _NETWORK_NAMES:
        net = attach_stances(nets[name], table)
        bundle.put(name, net)
        for fmt in cfg.export_formats:
            export_graph(net, fmt, bundle.root / _export_path(name, fmt))


def stage_metrics(cfg: PipelineConfig, bundle: _Bundle) -> None:
    table = bundle.get("stance")
    combined = bundle.get("all_communication")
    mention = bundle.get("mention")
    retweet = bundle.get("retweet")
    reciprocal = bundle.get("reciprocal")

    echo_rows = []
    for stance in _INFLUENCER_GROUPS:
        for with_unclassified in (False, True):
            groups = {stance} | ({Stance.UNCLASSIFIED} if with_unclassified else set())
            result = echo_chamberness(group_subgraph(combined, table, groups))
            echo_rows.append(
                {
                    "group": stance.value,
                    "with_unclassified": with_unclassified,
                    "r": result.reciprocity,
                    "d": result.density,
                    "e": result.echo_chamberness,
                    "n_nodes": result.node_count,
                    "n_edges": result.edge_count,
                }
            )
    echo_rows.sort(key=lambda row: (row["group"], row["with_unclassified"]))
    write_json(bundle.root / METRICS_FILE, echo_rows)

    base = influence_base(mention, retweet)
    summary: dict[str, dict] = {"k": cfg.top_k, "super_spreaders": {}, "super_friends": {}}
    for stance in _INFLUENCER_GROUPS:
        spread = super_spreaders(group_subgraph(base, table, {stance}), cfg.top_k)
        friends = super_friends(group_subgraph(reciprocal, table, {stance}), cfg.top_k)
        write_influencer_csv(spread, bundle.root / f"super_spreaders_{stance.value}.csv")
        write_influencer_csv(friends, bundle.root / f"super_friends_{stance.value}.csv")
        summary["super_spreaders"][stance.value] = {
            "super_count": len(spread.super_accounts),
            "node_count": len(spread.measures),
            "fraction": spread.fraction,
        }
        summary["super_friends"][stance.value] = {
            "super_count": len(friends.super_accounts),
            "node_count": len(friends.measures),
            "fraction": friends.fraction,
        }
    write_json(bundle.root / INFLUENCER_SUMMARY_FILE, summary)


def stage_text(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = bundle.get("stance")
    stopwords = load_stopwords(cfg.stopword_file) if cfg.stopword_file else default_stopwords()
    hashtag_vocab = corpus.all_hashtags()

    text_dir = bundle.root / TEXT_DIR
    text_dir.mkdir(parents=True, exist_ok=True)
    for stance in _INFLUENCER_GROUPS:
        members = table.group(stance)
        tweets = [t for t in corpus.tweets if t.user_id in members]

        freq_docs = tokenize(tweets, stopwords, include_hashtags=cfg.frequencies_include_hashtags)
        frequencies = unigram_frequencies(freq_docs, cfg.top_n_words) if freq_docs else []
        write_frequency_csv(frequencies, text_dir / f"frequencies_{stance.value}.csv")

        topic_docs = [
            doc
            for doc in tokenize(
                tweets,
                stopwords,
                include_hashtags=cfg.topics_include_hashtags,
                pool_by_user=cfg.lda_pool_by_user,
            )
            if doc.tokens
        ]
        topics_path = text_dir / f"topics_{stance.value}.json"
        if topic_docs:
            model = lda_fit(
                topic_docs,
                cfg.lda_topics,
                alpha=cfg.lda_alpha,
                beta=cfg.lda_beta,
                iterations=cfg.lda_iterations,
                seed=cfg.rng_seed,
            )
            exclude = hashtag_vocab if cfg.topics_exclude_hashtags_in_report else None
            write_topics_json(model, topics_path, cfg.top_n_words, exclude=exclude)
        else:
            write_json(topics_path, [])


def stage_annotations(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = bundle.get("stance")
    scores = load_bot_scores(cfg.bot_scores_path)
    types = load_account_types(cfg.account_types_path)
    rows = bot_threshold_sweep(corpus, table, scores, cfg.sweep_grid, include_global=cfg.sweep_include_global)
    write_sweep_csv(rows, bundle.root / SWEEP_FILE)
    write_concentration_json(news_source_concentration(corpus, table, types), bundle.root / CONCENTRATION_FILE)


def bundle_files(cfg: PipelineConfig) -> dict[str, str]:
    """Every bundle file but the manifest (relative path -> producing stage)."""
    out = {item.path: item.producer for item in _INTERMEDIATES.values()}
    for name in _NETWORK_NAMES:
        for fmt in cfg.export_formats:
            out[_export_path(name, fmt)] = "networks"
    out[METRICS_FILE] = out[INFLUENCER_SUMMARY_FILE] = "metrics"
    for stance in _INFLUENCER_GROUPS:
        out[f"super_spreaders_{stance.value}.csv"] = out[f"super_friends_{stance.value}.csv"] = "metrics"
        out[f"{TEXT_DIR}/frequencies_{stance.value}.csv"] = out[f"{TEXT_DIR}/topics_{stance.value}.json"] = "text"
    out[SWEEP_FILE] = out[CONCENTRATION_FILE] = "annotations"
    return out


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def stage_report(cfg: PipelineConfig, bundle: _Bundle) -> None:
    """Verify the bundle and write the manifest (the only timestamped file)."""
    expected = bundle_files(cfg)
    for rel, producer in sorted(expected.items()):
        bundle.require(rel, producer)
    manifest = {
        "artifact": "stancelab",
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config_hash": cfg.config_hash(),
        "config_text": cfg.to_text(),
        "rng_seed": cfg.rng_seed,
        "input_digests": {name: _file_sha256(path) for name, path in cfg.input_files().items()},
        "outputs": {rel: _file_sha256(bundle.root / rel) for rel in sorted(expected)},
    }
    write_json(bundle.root / MANIFEST_FILE, manifest)


_STAGES: dict[str, Callable[[PipelineConfig, _Bundle], None]] = {
    "ingest": stage_ingest,
    "hashtags": stage_hashtags,
    "propagate": stage_propagate,
    "classify": stage_classify,
    "networks": stage_networks,
    "metrics": stage_metrics,
    "text": stage_text,
    "annotations": stage_annotations,
    "report": stage_report,
}

STAGE_ORDER = tuple(_STAGES)


def _call(name: str, cfg: PipelineConfig, bundle: _Bundle) -> None:
    bundle.stage = name
    try:
        _STAGES[name](cfg, bundle)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run_stage(name: str, cfg: PipelineConfig) -> None:
    """Run one stage against ``cfg.output_dir`` (created if needed)."""
    cfg.validate()
    root = Path(cfg.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    _call(name, cfg, _Bundle(root, keep=False))


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run every stage and move the finished bundle into ``cfg.output_dir``.

    The bundle is built in a temporary sibling directory, so a failing stage
    leaves ``output_dir`` as it was.  An existing ``output_dir`` is renamed
    aside, replaced by rename, and deleted only once the new bundle is in
    place.  It is replaced only if it is empty or holds a manifest, so a
    mistyped path cannot wipe an unrelated directory.
    """
    cfg.validate()
    out_dir = Path(cfg.output_dir)
    if (
        out_dir.exists()
        and not (out_dir / MANIFEST_FILE).is_file()
        and (not out_dir.is_dir() or any(out_dir.iterdir()))
    ):
        raise StageError("run", f"refusing to replace {out_dir}: it is not empty and holds no {MANIFEST_FILE}")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        built, aside = work / "new", work / "old"
        built.mkdir()
        bundle = _Bundle(built, keep=True)
        for name in _STAGES:
            _call(name, cfg, bundle)
            bundle.forget(name)
        if out_dir.exists():
            out_dir.rename(aside)
        try:
            built.rename(out_dir)
        except OSError:
            if aside.exists():
                aside.rename(out_dir)
            raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out_dir
