"""End-to-end batch pipeline, declared as one table of stages.

``_STAGE_TABLE`` has one ``_Stage`` entry per stage, in run order: the stage
function, the intermediates it reads, the intermediates it ``put``s, and its
other bundle files for a config.  ``_INTERMEDIATES`` gives each intermediate
its bundle path, reader and writer.  The stage order, the producer a missing
intermediate names, how long ``run_pipeline`` keeps each value and the
bundle's file list are all read off the table.

Stages pass intermediates through a ``_Bundle``, whose ``put`` always writes
the file.  ``run_pipeline`` keeps each value in memory until its last reader
has run (a value no stage reads, not at all), builds the bundle in a
temporary sibling directory and renames it into place once every stage has
succeeded.  ``run_stage`` runs one stage against ``output_dir`` and keeps
nothing, so ``get`` reads the file.  Both paths write the same bytes.  The
manifest records what the bundle is built from (``_built_from``) and the
``stages`` run since ``ingest``; ``run_stage`` refuses to mix builds.

To add a stage, write its function and add its entry at its place in the
table, with an ``_INTERMEDIATES`` entry for each new value it puts.
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
    write: Callable[[Any, Path], None]


# The readers and writers look their functions up in this module's globals
# when they run, so a function patched onto the module is the one called.
_INTERMEDIATES: dict[str, _Intermediate] = {
    "corpus": _Intermediate(CORPUS_FILE, lambda p: load_corpus(p), lambda v, p: dump_corpus(v, p)),
    "hashtag_graph": _Intermediate(GRAPH_FILE, lambda p: read_graph_json(p), lambda v, p: write_graph_json(v, p)),
    "labels": _Intermediate(LABELS_FILE, lambda p: read_labels_csv(p), lambda v, p: write_labels_csv(v, p)),
    "stance": _Intermediate(STANCE_FILE, lambda p: read_stance_csv(p), lambda v, p: write_stance_csv(v, p)),
    **{
        name: _Intermediate(
            f"{NETWORKS_DIR}/{name}.json", lambda p: read_network_json(p), lambda v, p: write_network_json(v, p)
        )
        for name in _NETWORK_NAMES
    },
}


class _Bundle:
    """One build's bundle directory, through which stages pass intermediates.

    With ``keep``, ``put`` also holds a value that some stage reads, ``get``
    returns it from memory, and ``forget`` drops it after its last reader.
    Without ``keep``, ``get`` reads the file if ``stages`` lists its producer.
    """

    def __init__(self, root: Path, keep: bool) -> None:
        self.root = root
        self.keep = keep
        self.stage = ""  # the running stage, for messages
        self.stages: list[str] = list(STAGE_ORDER) if keep else []
        self._kept: dict[str, Any] = {}

    def file(self, rel: str) -> Path:
        """The path of bundle file ``rel``, with its directory made."""
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def put(self, name: str, value: Any) -> None:
        item = _INTERMEDIATES[name]
        item.write(value, self.file(item.path))
        if self.keep and name in _LAST_READER:
            self._kept[name] = value

    def forget(self, stage: str) -> None:
        """Drop the kept values that no stage after ``stage`` reads."""
        self._kept = {name: value for name, value in self._kept.items() if _LAST_READER[name] != stage}

    def get(self, name: str) -> Any:
        if self.keep:
            return self._kept[name]
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


def stage_hashtags(cfg: PipelineConfig, bundle: _Bundle) -> None:
    bundle.put("hashtag_graph", build_cooccurrence_graph(bundle.get("corpus"), cfg.min_cooccurrence))


def stage_propagate(cfg: PipelineConfig, bundle: _Bundle) -> None:
    graph = bundle.get("hashtag_graph")
    seeds = SeedSpec.from_csv(cfg.seed_file)
    seeded, missing = seed_labels(graph, seeds)
    if missing:
        logger.warning("%s: seed hashtags absent from the graph: %s", bundle.stage, ", ".join(missing))
    config = PropagationConfig(gamma=cfg.gamma, max_passes=cfg.max_passes, unlabeled_as_zero=cfg.unlabeled_as_zero)
    bundle.put("labels", propagate_labels(seeded, config))


def stage_classify(cfg: PipelineConfig, bundle: _Bundle) -> None:
    table = classify_users(
        bundle.get("corpus"),
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
    nets = {"retweet": retweet, "mention": mention, "reply": reply}
    nets["all_communication"] = all_communication(retweet, mention, reply, corpus)
    nets["reciprocal"] = reciprocal_subnetwork(nets[cfg.reciprocal_base])
    for name in _NETWORK_NAMES:
        net = attach_stances(nets[name], table)
        bundle.put(name, net)
        for fmt in cfg.export_formats:
            export_graph(net, fmt, bundle.file(_export_path(name, fmt)))


def stage_metrics(cfg: PipelineConfig, bundle: _Bundle) -> None:
    table = bundle.get("stance")
    combined = bundle.get("all_communication")
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
    write_json(bundle.file(METRICS_FILE), echo_rows)

    base = influence_base(bundle.get("mention"), bundle.get("retweet"))
    summary: dict[str, Any] = {"k": cfg.top_k}
    for kind, measure, net in (("super_spreaders", super_spreaders, base), ("super_friends", super_friends, reciprocal)):
        summary[kind] = {}
        for stance in _INFLUENCER_GROUPS:
            report = measure(group_subgraph(net, table, {stance}), cfg.top_k)
            write_influencer_csv(report, bundle.file(f"{kind}_{stance.value}.csv"))
            summary[kind][stance.value] = {
                "super_count": len(report.super_accounts),
                "node_count": len(report.measures),
                "fraction": report.fraction,
            }
    write_json(bundle.file(INFLUENCER_SUMMARY_FILE), summary)


def stage_text(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = bundle.get("stance")
    stopwords = load_stopwords(cfg.stopword_file) if cfg.stopword_file else default_stopwords()
    exclude = corpus.all_hashtags() if cfg.topics_exclude_hashtags_in_report else None

    groups: dict[Stance, list] = {stance: [] for stance in _INFLUENCER_GROUPS}
    for t in corpus.tweets:
        tweets = groups.get(table.stance_of(t.user_id))
        if tweets is not None:
            tweets.append(t)

    for stance, tweets in groups.items():
        # Frequencies are counts, so the pooled documents give the same report.
        views = tokenize(tweets, stopwords, pool_by_user=cfg.lda_pool_by_user)
        frequencies = unigram_frequencies(views[cfg.frequencies_include_hashtags], cfg.top_n_words)
        write_frequency_csv(frequencies, bundle.file(f"{TEXT_DIR}/frequencies_{stance.value}.csv"))

        topic_docs = [doc for doc in views[cfg.topics_include_hashtags] if doc.tokens]
        topics_path = bundle.file(f"{TEXT_DIR}/topics_{stance.value}.json")
        if topic_docs:
            model = lda_fit(
                topic_docs,
                cfg.lda_topics,
                alpha=cfg.lda_alpha,
                beta=cfg.lda_beta,
                iterations=cfg.lda_iterations,
                seed=cfg.rng_seed,
            )
            write_topics_json(model, topics_path, cfg.top_n_words, exclude=exclude)
        else:
            write_json(topics_path, [])


def stage_annotations(cfg: PipelineConfig, bundle: _Bundle) -> None:
    corpus = bundle.get("corpus")
    table = bundle.get("stance")
    scores = load_bot_scores(cfg.bot_scores_path)
    types = load_account_types(cfg.account_types_path)
    rows = bot_threshold_sweep(corpus, table, scores, cfg.sweep_grid, include_global=cfg.sweep_include_global)
    write_sweep_csv(rows, bundle.file(SWEEP_FILE))
    write_concentration_json(news_source_concentration(corpus, table, types), bundle.file(CONCENTRATION_FILE))


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _built_from(cfg: PipelineConfig) -> dict[str, Any]:
    return {
        "artifact": "stancelab",
        "version": __version__,
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
    write_json(bundle.file(MANIFEST_FILE), {**_built_from(cfg), **stamp})


@dataclass(frozen=True)
class _Stage:
    run: Callable[[PipelineConfig, _Bundle], None]
    reads: tuple[str, ...] = ()
    puts: tuple[str, ...] = ()
    files: Callable[[PipelineConfig], list[str]] = lambda cfg: []  # other bundle files; the manifest is not one


# The stages in run order.  A stage gets only what it reads, puts only what it puts.
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
    ),
    "metrics": _Stage(
        stage_metrics,
        ("stance", "all_communication", "mention", "retweet", "reciprocal"),
        (),
        lambda cfg: _by_group(METRICS_FILE, INFLUENCER_SUMMARY_FILE, "super_spreaders_{}.csv", "super_friends_{}.csv"),
    ),
    "text": _Stage(
        stage_text,
        ("corpus", "stance"),
        files=lambda cfg: _by_group(TEXT_DIR + "/frequencies_{}.csv", TEXT_DIR + "/topics_{}.json"),
    ),
    "annotations": _Stage(stage_annotations, ("corpus", "stance"), files=lambda cfg: [SWEEP_FILE, CONCENTRATION_FILE]),
    "report": _Stage(stage_report),
}

# Read off the table.  ``_call`` looks each stage function up in ``_STAGES``
# when it runs, so a function patched in there is the one called.
_STAGES: dict[str, Callable[[PipelineConfig, _Bundle], None]] = {name: s.run for name, s in _STAGE_TABLE.items()}
STAGE_ORDER = tuple(_STAGE_TABLE)
_PRODUCER = {item: name for name, s in _STAGE_TABLE.items() for item in s.puts}
_LAST_READER = {item: name for name, s in _STAGE_TABLE.items() for item in s.reads}  # a later reader overwrites


def bundle_files(cfg: PipelineConfig) -> dict[str, str]:
    """Every bundle file but the manifest (relative path -> producing stage)."""
    return {
        rel: name
        for name, s in _STAGE_TABLE.items()
        for rel in [*(_INTERMEDIATES[item].path for item in s.puts), *s.files(cfg)]
    }


def _call(name: str, cfg: PipelineConfig, bundle: _Bundle) -> None:
    bundle.stage = name
    try:
        _STAGES[name](cfg, bundle)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def _refuse_foreign(out: Path, stage: str) -> None:
    if out.exists() and not (out / MANIFEST_FILE).is_file() and (not out.is_dir() or any(out.iterdir())):
        raise StageError(stage, f"refusing to use {out} for a bundle: it is not empty and holds no {MANIFEST_FILE}")


def run_stage(name: str, cfg: PipelineConfig) -> None:
    """Run one stage against ``cfg.output_dir`` (created if needed), checking the manifest first."""
    if name not in _STAGES:
        raise ValueError(f"unknown stage {name!r}; stages are {', '.join(STAGE_ORDER)}")
    cfg.validate()
    bundle = _Bundle(Path(cfg.output_dir), keep=False)
    manifest, built_from = bundle.root / MANIFEST_FILE, _built_from(cfg)
    if name == "ingest":
        _refuse_foreign(bundle.root, name)
        write_json(bundle.file(MANIFEST_FILE), {**built_from, "stages": []})
    elif manifest.is_file():
        try:
            found = read_json(manifest)
        except ValueError:
            found = {}  # an unreadable manifest describes no build
        if any(found.get(key) != value for key, value in built_from.items()):
            raise StageError(name, f"{manifest} is not from this config and these inputs; run the ingest stage first")
        bundle.stages = found.get("stages", [])
    _call(name, cfg, bundle)
    if name != "report":  # report writes the whole manifest
        write_json(manifest, {**built_from, "stages": [s for s in STAGE_ORDER if s in bundle.stages or s == name]})


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
    _refuse_foreign(out_dir, "run")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        built, aside = work / "new", work / "old"
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
