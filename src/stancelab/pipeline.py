"""End-to-end batch pipeline, declared as one table of stages.

``_STAGE_TABLE`` has one ``_Stage`` entry per stage, in run order: the stage
function, the intermediates it reads, the intermediates it ``put``s, and its
other bundle files for a config.  ``_INTERMEDIATES`` gives each intermediate
its bundle path, reader and writer.  The stage order, the producer a missing
intermediate names, how long a bundle holds each value and the bundle's
file list are all read off the table.

Each stage runs as one ``_Bundle.step``, which records it in ``stages``.
``run_pipeline`` steps through every stage on one bundle in a temporary
sibling directory, so each value is handed on in memory, and renames it into
place once every stage has succeeded.  After ``classify`` it forks: a child
steps the stages marked ``forked`` (``networks``, ``metrics``) while the
parent steps ``text`` and ``annotations``; the parent reaps the child, adds
the stages the child recorded and runs ``report``.  ``run_stage`` takes one
step against ``output_dir``, so ``get`` reads the files earlier steps wrote.
Both write the same bytes, and both pause the cyclic collector while they
build.  The manifest records what the bundle is built from
(``_built_from``: the config, the inputs, the package's code and NumPy's
version) and the ``stages`` run since ``ingest``; ``run_stage`` refuses a
bundle built from anything else, but not another name for the directory.

To add a stage, write its function, taking ``(cfg, bundle)`` and, keyword-only,
one parameter named after each intermediate in its ``reads``; add its entry at
its place in the table, and an ``_INTERMEDIATES`` entry for each value it puts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import math
import os
import signal
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator, get_args, get_origin, get_type_hints

import numpy

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
    EXPORTERS,
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
from .fileio import read_json, write_json
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
SPREADERS_FILE = "super_spreaders_{}.csv"
FRIENDS_FILE = "super_friends_{}.csv"
FREQUENCIES_FILE = TEXT_DIR + "/frequencies_{}.csv"
TOPICS_FILE = TEXT_DIR + "/topics_{}.json"

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
            if path.resolve().is_relative_to(Path(self.output_dir).resolve()):  # a new build would delete it
                raise ConfigError(f"{name} lies inside output_dir {self.output_dir}: {path}")
        if self.reciprocal_base not in _NETWORK_NAMES[:4]:
            raise ConfigError(f"reciprocal_base must be one of {_NETWORK_NAMES[:4]}")
        for fmt in self.export_formats:
            if fmt not in EXPORTERS:
                raise ConfigError(f"unknown export format {fmt!r}; use one of {', '.join(EXPORTERS)}")
        if len(set(self.export_formats)) < len(self.export_formats):
            raise ConfigError("export_formats names a format twice")
        if self.min_cooccurrence < 1 or self.gamma < 1 or self.max_passes < 1:
            raise ConfigError("min_cooccurrence, gamma, and max_passes must be >= 1")
        if self.top_k < 1 or self.lda_topics < 1 or self.top_n_words < 1:
            raise ConfigError("top_k, lda_topics, and top_n_words must be >= 1")
        for name in ("lda_alpha", "lda_beta"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be a finite number > 0")
        if self.lda_iterations < 0 or self.rng_seed < 0:
            raise ConfigError("lda_iterations and rng_seed must be >= 0")
        if any(not 0.0 <= t <= 1.0 for t in self.sweep_grid):
            raise ConfigError("sweep_grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(self.sweep_grid, self.sweep_grid[1:])):
            raise ConfigError("sweep_grid must be strictly ascending")

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
        raw: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
        for line_no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, equals, value = (part.strip() for part in stripped.partition("="))
            if not equals or not key:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            if key in raw:
                raise ConfigError(f"config key {key!r} is set twice, on lines {raw[key][0]} and {line_no}")
            raw[key] = line_no, value
        unknown = set(raw) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
                raise ConfigError(f"missing required config key {f.name!r}")
        base_dir = base_dir or Path.cwd()
        return cls(**{key: cls.parse_value(key, value, base_dir) for key, (_, value) in raw.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8-sig"), base_dir=path.resolve().parent)

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
    read: Callable[[Path], Any]
    write: Callable[..., None]  # (value, path, **the keyword arguments put passes on)


# The readers and writers look their functions up in this module's globals
# when they run, so a function patched onto the module is the one called.
_INTERMEDIATES: dict[str, _Intermediate] = {
    "corpus": _Intermediate(CORPUS_FILE, lambda p: load_corpus(p), lambda v, p: dump_corpus(v, p)),
    "hashtag_graph": _Intermediate(GRAPH_FILE, lambda p: read_graph_json(p), lambda v, p: write_graph_json(v, p)),
    "labels": _Intermediate(LABELS_FILE, lambda p: read_labels_csv(p), lambda v, p: write_labels_csv(v, p)),
    "stance": _Intermediate(STANCE_FILE, lambda p: read_stance_csv(p), lambda v, p: write_stance_csv(v, p)),
    **{
        name: _Intermediate(
            f"{NETWORKS_DIR}/{name}.json",
            lambda p: read_network_json(p),
            lambda v, p, order=None: write_network_json(v, p, order),
        )
        for name in _NETWORK_NAMES
    },
}


class _Bundle:
    """One build's bundle directory, through which stages pass intermediates.

    ``step`` runs a stage on the values it reads and records it in ``stages``.
    ``put`` writes the file and holds the value while a later stage reads it;
    ``get`` returns a held value, or else reads the file if ``stages`` lists
    its producer.  The manifest records ``built_from``, what the bundle is built from.
    """

    def __init__(self, root: Path, cfg: PipelineConfig) -> None:
        self.root = root
        self.cfg = cfg
        self.built_from = _built_from(cfg)
        self.stages: list[str] = []
        self.stage = ""  # the running stage, for messages
        self._held: dict[str, Any] = {}

    def step(self, name: str) -> None:
        """Run stage ``name`` on its reads, passed by name; record it, and drop the values no later stage reads."""
        self.stage = name
        with _failing_as(name):
            inputs = {item: self.get(item) for item in _STAGE_TABLE[name].reads}
            _STAGES[name](self.cfg, self, **inputs)
        self.stages.append(name)
        self._held = {item: value for item, value in self._held.items() if _LAST_READER[item] != name}

    def file(self, rel: str) -> Path:
        """The path of bundle file ``rel``, with its directory made."""
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def put(self, name: str, value: Any, **write_args: Any) -> None:
        item = _INTERMEDIATES[name]
        item.write(value, self.file(item.path), **write_args)
        if name in _LAST_READER:
            self._held[name] = value

    def get(self, name: str) -> Any:
        if name in self._held:
            return self._held[name]
        item, producer = _INTERMEDIATES[name], _PRODUCER[name]
        path = self.require(item.path, producer)
        self.require_run(producer)
        return item.read(path)

    def require(self, rel: str, producer: str) -> Path:
        path = self.root / rel
        if not path.is_file():
            raise StageError(self.stage, f"missing intermediate {rel!r}; run the {producer} stage first")
        return path

    def require_run(self, stage: str) -> None:
        if stage not in self.stages:
            raise StageError(self.stage, f"{MANIFEST_FILE} lists no {stage} stage; run the {stage} stage first")


@contextmanager
def _failing_as(stage: str) -> Iterator[None]:
    """Raise a failure in the block as a ``StageError`` naming ``stage``, unless it is one already."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off, then turn it back on if it
    was on before, however the block ends.

    A build keeps nearly all it makes alive to its end and leaves only a
    few hundred objects in reference cycles, so a collection frees next to
    nothing.  A forked child inherits the paused collector, so neither lane
    walks the objects built before the fork and copies the pages that hold
    them.  The threshold and the freeze state are the caller's throughout.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _export_path(name: str, fmt: str) -> str:
    return f"{NETWORKS_DIR}/{name}.{'edges.csv' if fmt == 'csv' else fmt}"


def _by_group(*patterns: str) -> list[str]:
    """Each pattern's ``{}`` filled with each stance group; a pattern without one names one file."""
    return list(dict.fromkeys(pattern.format(stance.value) for pattern in patterns for stance in _INFLUENCER_GROUPS))


def stage_ingest(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = load_corpus(cfg.corpus_path, strict=cfg.strict_ingest)
    if corpus.skipped_count or corpus.duplicate_count:
        logger.warning(
            "%s: skipped %d malformed line(s), dropped %d duplicate id(s)",
            bundle.stage,
            corpus.skipped_count,
            corpus.duplicate_count,
        )
    bundle.put("corpus", corpus)


def stage_hashtags(cfg: PipelineConfig, bundle: _Bundle, *, corpus) -> None:
    bundle.put("hashtag_graph", build_cooccurrence_graph(corpus, cfg.min_cooccurrence))


def stage_propagate(cfg: PipelineConfig, bundle: _Bundle, *, hashtag_graph) -> None:
    seeds = SeedSpec.from_csv(cfg.seed_file)
    seeded, missing = seed_labels(hashtag_graph, seeds)
    if missing:
        logger.warning("%s: seed hashtags absent from the graph: %s", bundle.stage, ", ".join(missing))
    config = PropagationConfig(gamma=cfg.gamma, max_passes=cfg.max_passes, unlabeled_as_zero=cfg.unlabeled_as_zero)
    bundle.put("labels", propagate_labels(seeded, config))


def stage_classify(cfg: PipelineConfig, bundle: _Bundle, *, corpus, labels) -> None:
    retweets = cfg.include_retweet_hashtags
    table = classify_users(corpus, labels, count_weighting=not cfg.presence_weighting, include_retweet_hashtags=retweets)
    bundle.put("stance", table)


def stage_networks(cfg: PipelineConfig, bundle: _Bundle, *, corpus, stance) -> None:
    retweet = build_network(corpus, NetworkKind.RETWEET)
    mention = build_network(corpus, NetworkKind.MENTION, include_retweet_mentions=cfg.include_retweet_mentions)
    reply = build_network(corpus, NetworkKind.REPLY)
    nets = {"retweet": retweet, "mention": mention, "reply": reply}
    nets["all_communication"] = all_communication(retweet, mention, reply, corpus)
    nets["reciprocal"] = reciprocal_subnetwork(nets[cfg.reciprocal_base])
    for name in _NETWORK_NAMES:
        net = attach_stances(nets[name], stance)
        order = net.in_order()  # once, for every file that lists the network
        bundle.put(name, net, order=order)
        for fmt in cfg.export_formats:
            export_graph(net, fmt, bundle.file(_export_path(name, fmt)), order)


def stage_metrics(
    cfg: PipelineConfig, bundle: _Bundle, *, stance, all_communication, mention, retweet, reciprocal
) -> None:
    echo_rows = []
    for group in _INFLUENCER_GROUPS:
        for with_unclassified in (False, True):
            members = {group} | ({Stance.UNCLASSIFIED} if with_unclassified else set())
            result = echo_chamberness(group_subgraph(all_communication, stance, members))
            echo_rows.append(
                {
                    "group": group.value,
                    "with_unclassified": with_unclassified,
                    "r": result.reciprocity,
                    "d": result.density,
                    "e": result.echo_chamberness,
                    "n_nodes": result.node_count,
                    "n_edges": result.edge_count,
                }
            )
    write_json(bundle.file(METRICS_FILE), echo_rows)

    base = influence_base(mention, retweet)
    summary: dict[str, Any] = {"k": cfg.top_k}
    for kind, measure, net, pattern in (
        ("super_spreaders", super_spreaders, base, SPREADERS_FILE),
        ("super_friends", super_friends, reciprocal, FRIENDS_FILE),
    ):
        summary[kind] = {}
        for group in _INFLUENCER_GROUPS:
            report = measure(group_subgraph(net, stance, {group}), cfg.top_k)
            write_influencer_csv(report, bundle.file(pattern.format(group.value)))
            summary[kind][group.value] = {
                "super_count": len(report.super_accounts),
                "node_count": len(report.measures),
                "fraction": report.fraction,
            }
    write_json(bundle.file(INFLUENCER_SUMMARY_FILE), summary)


def stage_text(cfg: PipelineConfig, bundle: _Bundle, *, corpus, stance) -> None:
    stopwords = load_stopwords(cfg.stopword_file) if cfg.stopword_file else default_stopwords()
    exclude = corpus.all_hashtags() if cfg.topics_exclude_hashtags_in_report else None

    stance_of = stance.stances_of(corpus.users)
    for group in _INFLUENCER_GROUPS:
        tweets = [t for t in corpus.tweets if stance_of[t.user_id] is group]
        # Frequencies are counts, so the pooled documents give the same report.
        views = tokenize(tweets, stopwords, pool_by_user=cfg.lda_pool_by_user)
        frequencies = unigram_frequencies(views[cfg.frequencies_include_hashtags], cfg.top_n_words)
        write_frequency_csv(frequencies, bundle.file(FREQUENCIES_FILE.format(group.value)))

        docs = views[cfg.topics_include_hashtags]
        topics_path = bundle.file(TOPICS_FILE.format(group.value))
        if any(doc.tokens for doc in docs):  # lda_fit skips the empty documents
            model = lda_fit(
                docs,
                cfg.lda_topics,
                alpha=cfg.lda_alpha,
                beta=cfg.lda_beta,
                iterations=cfg.lda_iterations,
                seed=cfg.rng_seed,
            )
            write_topics_json(model, topics_path, cfg.top_n_words, exclude=exclude)
        else:
            write_json(topics_path, [])


def stage_annotations(cfg: PipelineConfig, bundle: _Bundle, *, corpus, stance) -> None:
    scores = load_bot_scores(cfg.bot_scores_path)
    types = load_account_types(cfg.account_types_path)
    rows = bot_threshold_sweep(corpus, stance, scores, cfg.sweep_grid, include_global=cfg.sweep_include_global)
    write_sweep_csv(rows, bundle.file(SWEEP_FILE))
    write_concentration_json(news_source_concentration(corpus, stance, types), bundle.file(CONCENTRATION_FILE))


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@cache
def _code_digest() -> str:
    """SHA-256 over the package's ``.py`` and ``.txt`` files (the stop-word
    list is one): for each, in order of its path relative to the package,
    that path, a NUL byte and the SHA-256 of its bytes."""
    package = Path(__file__).parent
    files = sorted((p.relative_to(package).as_posix(), p) for p in package.rglob("*") if p.suffix in (".py", ".txt"))
    h = hashlib.sha256()
    for rel, path in files:
        h.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _built_from(cfg: PipelineConfig) -> dict[str, Any]:
    return {
        "artifact": "stancelab",
        "version": __version__,
        "code_digest": _code_digest(),  # __version__ does not change with the code
        "numpy_version": numpy.__version__,  # the topic fits draw from its default_rng
        "config_hash": cfg.config_hash(),
        "config_text": cfg.to_text(),
        "rng_seed": cfg.rng_seed,
        "input_digests": {name: _file_sha256(path) for name, path in cfg.input_files().items()},
    }


def stage_report(cfg: PipelineConfig, bundle: _Bundle) -> None:
    """Verify the bundle and write the manifest (the only timestamped file)."""
    expected = bundle_files(cfg)
    outputs = {rel: _file_sha256(bundle.require(rel, expected[rel])) for rel in sorted(expected)}
    for stage in STAGE_ORDER[:-1]:  # every stage but this one
        bundle.require_run(stage)
    stamp = {"created_at": datetime.now(timezone.utc).isoformat(), "stages": list(STAGE_ORDER), "outputs": outputs}
    write_json(bundle.file(MANIFEST_FILE), {**bundle.built_from, **stamp})


@dataclass(frozen=True)
class _Stage:
    run: Callable[..., None]  # (cfg, bundle, *, one keyword argument per read, as its reader returns it)
    reads: tuple[str, ...] = ()
    puts: tuple[str, ...] = ()
    files: Callable[[PipelineConfig], list[str]] = lambda cfg: []  # other bundle files; the manifest is not one
    forked: bool = False  # under run_pipeline, stepped in the forked child


# The stages in run order.  A stage gets only what it reads, puts only what it puts.
# A forked stage reads only what the stages before the first forked one, or
# earlier forked stages, put; and only forked stages read what it puts.
_STAGE_TABLE: dict[str, _Stage] = {
    "ingest": _Stage(stage_ingest, puts=("corpus",)),
    "hashtags": _Stage(stage_hashtags, ("corpus",), ("hashtag_graph",)),
    "propagate": _Stage(stage_propagate, ("hashtag_graph",), ("labels",)),
    "classify": _Stage(stage_classify, ("corpus", "labels"), ("stance",)),
    "networks": _Stage(
        stage_networks,
        ("corpus", "stance"),
        _NETWORK_NAMES,
        lambda cfg: [_export_path(name, fmt) for name in _NETWORK_NAMES for fmt in cfg.export_formats],
        forked=True,
    ),
    "metrics": _Stage(
        stage_metrics,
        ("stance", "all_communication", "mention", "retweet", "reciprocal"),
        (),
        lambda cfg: _by_group(METRICS_FILE, INFLUENCER_SUMMARY_FILE, SPREADERS_FILE, FRIENDS_FILE),
        forked=True,
    ),
    "text": _Stage(
        stage_text,
        ("corpus", "stance"),
        files=lambda cfg: _by_group(FREQUENCIES_FILE, TOPICS_FILE),
    ),
    "annotations": _Stage(stage_annotations, ("corpus", "stance"), files=lambda cfg: [SWEEP_FILE, CONCENTRATION_FILE]),
    "report": _Stage(stage_report),
}

# Read off the table.  ``_Bundle.step`` looks each stage function up in ``_STAGES``
# when it runs, so a function patched in there is the one called.
_STAGES: dict[str, Callable[..., None]] = {name: s.run for name, s in _STAGE_TABLE.items()}
STAGE_ORDER = tuple(_STAGE_TABLE)
_PRODUCER = {item: name for name, s in _STAGE_TABLE.items() for item in s.puts}
_LAST_READER = {item: name for name, s in _STAGE_TABLE.items() for item in s.reads}  # a later reader overwrites
_CHILD_LANE = tuple(name for name, s in _STAGE_TABLE.items() if s.forked)


def bundle_files(cfg: PipelineConfig) -> dict[str, str]:
    """Every bundle file but the manifest (relative path -> producing stage)."""
    return {
        rel: name
        for name, s in _STAGE_TABLE.items()
        for rel in [*(_INTERMEDIATES[item].path for item in s.puts), *s.files(cfg)]
    }


def _refuse_foreign(out: Path, stage: str) -> None:
    if out.exists() and not (out / MANIFEST_FILE).is_file() and (not out.is_dir() or any(out.iterdir())):
        raise StageError(stage, f"refusing to use {out} for a bundle: it is not empty and holds no {MANIFEST_FILE}")


def _location_free(built_from: dict[str, Any]) -> dict[str, Any]:
    """``built_from`` less ``output_dir`` (its config line and the hash over it): where a bundle is, not what it is."""
    lines = str(built_from.get("config_text")).splitlines()
    return {**built_from, "config_hash": None, "config_text": [x for x in lines if not x.startswith("output_dir = ")]}


def run_stage(name: str, cfg: PipelineConfig) -> None:
    """Run one stage against ``cfg.output_dir`` (created if needed), checking the manifest first.

    The cyclic collector is paused while the stage runs (``_gc_paused``).
    """
    if name not in _STAGES:
        raise ValueError(f"unknown stage {name!r}; stages are {', '.join(STAGE_ORDER)}")
    cfg.validate()
    with _gc_paused(), _failing_as(name):
        bundle = _Bundle(Path(cfg.output_dir), cfg)
        manifest = bundle.root / MANIFEST_FILE
        if name == "ingest":  # a new build: delete the files a bundle for cfg does not list
            _refuse_foreign(bundle.root, name)
            listed = {*bundle_files(cfg), MANIFEST_FILE}
            for path in sorted(bundle.root.rglob("*")):
                if path.is_file() and path.relative_to(bundle.root).as_posix() not in listed:
                    path.unlink()
            write_json(bundle.file(MANIFEST_FILE), {**bundle.built_from, "stages": []})
        elif manifest.is_file():
            try:
                found = read_json(manifest)
            except ValueError:
                found = None
            # A manifest that is unreadable, or not an object, describes no build;
            # nor does a "stages" that is not a list of stage names.
            found = _location_free(found if isinstance(found, dict) else {})
            if any(found.get(key) != value for key, value in _location_free(bundle.built_from).items()):
                raise ValueError(f"{manifest} is not from this config, these inputs and this code; run the ingest stage first")
            stages = found.get("stages")
            if isinstance(stages, list) and all(isinstance(s, str) and s in _STAGES for s in stages):
                bundle.stages = stages
        bundle.step(name)
        if name != "report":  # report writes the whole manifest
            write_json(manifest, {**bundle.built_from, "stages": [s for s in STAGE_ORDER if s in bundle.stages]})


def _step_beside_child(bundle: _Bundle, forked: tuple[str, ...], own: list[str]) -> None:
    """Step ``forked`` on ``bundle`` in a forked child while this process steps ``own``.

    The child sends a JSON line ``[stage, error]`` down a pipe for each stage
    it records (``error`` null) or fails, and always leaves by ``os._exit``.
    The child is reaped even if ``own`` fails, and the stages it recorded
    join ``bundle.stages``.  Of two failures, the stage earlier in
    ``STAGE_ORDER`` is raised.
    """
    sys.stdout.flush()
    sys.stderr.flush()  # else the child would print what is still buffered a second time
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe, open(write_end, "wb", buffering=0) as sink:
        pid = os.fork()
        if pid == 0:
            exit_code = 1
            try:
                for name in forked:
                    bundle.step(name)
                    sink.write(json.dumps([name, None]).encode() + b"\n")
                exit_code = 0
            except StageError as exc:
                sink.write(json.dumps([exc.stage, str(exc)]).encode() + b"\n")
            finally:
                try:
                    sys.stderr.flush()
                finally:
                    os._exit(exit_code)  # never return into the caller's code in the child
        sink.close()  # so that reading the pipe ends when the child does
        failures = []
        try:
            for name in own:
                bundle.step(name)
        except StageError as exc:
            failures.append(exc)
        finally:
            lines = pipe.read().split(b"\n")[:-1]  # drops a line cut off by the child's death
            _, status = os.waitpid(pid, 0)
    reported = dict(json.loads(line) for line in lines)  # stage -> its error, or None once recorded
    recorded = [name for name, error in reported.items() if error is None]
    bundle.stages += recorded
    if len(recorded) < len(forked) or status:
        stage = forked[min(len(recorded), len(forked) - 1)]
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
        failures.append(StageError(stage, reported.get(stage) or f"the forked process running it {how}"))
    if failures:
        raise min(failures, key=lambda exc: STAGE_ORDER.index(exc.stage))


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run every stage and move the finished bundle into ``cfg.output_dir``.

    The stages before the forked ones run here; then a forked child (POSIX
    ``os.fork``) steps the forked stages while this process steps the others
    up to ``report``, and ``report`` runs once the child is reaped.  Each
    bundle file has one writer, so the bytes are those of a run in order.
    The fork copies only the calling thread, so call this from a process
    that runs no other threads.

    The bundle is built in a temporary sibling directory, so a failing stage
    leaves ``output_dir`` as it was.  An existing ``output_dir`` is renamed
    aside, replaced by rename, and deleted only once the new bundle is in
    place.  It is replaced only if it is empty or holds a manifest, so a
    mistyped path cannot wipe an unrelated directory.

    The cyclic collector is paused for the build (``_gc_paused``), the
    forked child included.
    """
    cfg.validate()
    out_dir = Path(cfg.output_dir)
    with _gc_paused(), _failing_as("run"):
        _refuse_foreign(out_dir, "run")
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(
            prefix=f".{out_dir.name}-", dir=out_dir.parent, ignore_cleanup_errors=True
        ) as tmp:
            built, aside = Path(tmp) / "new", Path(tmp) / "old"
            bundle = _Bundle(built, cfg)
            fork = STAGE_ORDER.index(_CHILD_LANE[0])
            for name in STAGE_ORDER[:fork]:
                bundle.step(name)
            _step_beside_child(bundle, _CHILD_LANE, [s for s in STAGE_ORDER[fork:-1] if s not in _CHILD_LANE])
            bundle.step(STAGE_ORDER[-1])
            if out_dir.exists():
                out_dir.rename(aside)
            try:
                built.rename(out_dir)
            except OSError:
                if aside.exists():
                    aside.rename(out_dir)
                raise
    return out_dir
