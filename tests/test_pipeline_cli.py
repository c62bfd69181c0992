import gc
import hashlib
import importlib.resources
import json
import math
import os
import re
import signal
import string
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy
import pytest
from hypothesis import given, strategies as st

import stancelab.pipeline as pipeline
from stancelab.cli import build_parser, load_config, main
from stancelab.demo import write_demo_config, write_demo_inputs
from stancelab.pipeline import (
    FIELD_TYPES,
    STAGE_ORDER,
    ConfigError,
    PipelineConfig,
    StageError,
    bundle_files,
    run_pipeline,
    run_stage,
)

from util import append_record, read_records


@pytest.fixture()
def demo_cfg(tmp_path):
    cfg_path = write_demo_config(tmp_path / "inputs", output_dir=tmp_path / "out")
    return cfg_path, PipelineConfig.from_file(cfg_path)


def digest_tree(root: Path, skip_manifest: bool = True) -> dict[str, str]:
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and not (skip_manifest and p.name == "manifest.json"):
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_file_roundtrip(self, demo_cfg):
        _, cfg = demo_cfg
        again = PipelineConfig.from_text(cfg.to_text())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_key_rejected(self, demo_cfg):
        cfg_path, _ = demo_cfg
        text = cfg_path.read_text() + "mystery_knob = 3\n"
        with pytest.raises(ConfigError, match="mystery_knob"):
            PipelineConfig.from_text(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="config key 'gamma' is set twice, on lines 2 and 4"):
            PipelineConfig.from_text("# knobs\ngamma = 1\n\ngamma = 5\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="corpus_path"):
            PipelineConfig.from_text("output_dir = /tmp/x\n")

    def test_missing_input_file_fails_validation(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        broken = replace(cfg, corpus_path=tmp_path / "nope.jsonl")
        with pytest.raises(ConfigError, match="corpus_path"):
            broken.validate()

    def test_an_input_file_inside_output_dir_fails_validation(self, demo_cfg):
        _, cfg = demo_cfg
        (cfg.output_dir / "sub").mkdir(parents=True)
        for name, path in cfg.input_files().items():
            (cfg.output_dir / path.name).write_bytes(path.read_bytes())
            inside = cfg.output_dir / "sub" / ".." / path.name  # another spelling of the same file
            with pytest.raises(ConfigError, match=f"^{name} lies inside output_dir"):
                replace(cfg, **{name: inside}).validate()
        inputs = cfg.seed_file.parent
        replace(cfg, output_dir=Path(str(inputs)[:-1])).validate()  # a name that only starts the inputs' directory

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        write_demo_inputs(tmp_path)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "corpus_path = corpus.jsonl\nseed_file = seeds.csv\n"
            "bot_scores_path = bot_scores.csv\naccount_types_path = account_types.csv\n"
            "output_dir = out\n",
            encoding="utf-8",
        )
        cfg = PipelineConfig.from_file(cfg_file)
        assert cfg.corpus_path == tmp_path / "corpus.jsonl"
        cfg.validate()

    def test_readme_table_lists_every_field(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert keys == [f.name for f in fields(PipelineConfig)]

    def test_bad_values_rejected(self, demo_cfg):
        _, cfg = demo_cfg
        with pytest.raises(ConfigError):
            replace(cfg, gamma=0).validate()
        with pytest.raises(ConfigError):
            replace(cfg, sweep_grid=(0.5, 0.1)).validate()
        with pytest.raises(ConfigError):
            replace(cfg, export_formats=("png",)).validate()
        with pytest.raises(ConfigError):
            replace(cfg, reciprocal_base="friendship").validate()
        for bad in (
            {"lda_alpha": -1.0},
            {"lda_alpha": 0.0},
            {"lda_alpha": math.inf},
            {"lda_beta": 0.0},
            {"lda_beta": math.inf},
            {"lda_iterations": -1},
            {"rng_seed": -1},
        ):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                replace(cfg, **bad).validate()


class TestRunPipeline:
    def test_bundle_is_complete(self, demo_cfg):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        for rel in bundle_files(cfg):
            assert (out / rel).is_file(), rel
        assert (out / "manifest.json").is_file()

    def test_schemas(self, demo_cfg):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        stance_header = (out / "stance.csv").read_text().splitlines()[0]
        assert stance_header == "user_id,polarity,stance,hashtag_count"
        metrics = json.loads((out / "metrics.json").read_text())
        assert {row["group"] for row in metrics} == {"believer", "disbeliever"}
        for row in metrics:
            assert set(row) == {"group", "with_unclassified", "r", "d", "e", "n_nodes", "n_edges"}
            assert abs(row["e"] - (row["r"] * row["d"]) ** (1 / 3)) < 1e-12
        sweep_header = (out / "bot_sweep.csv").read_text().splitlines()[0]
        assert sweep_header == "threshold,group,account_fraction,tweet_fraction,unscored_count"
        topics = json.loads((out / "text" / "topics_believer.json").read_text())
        assert isinstance(topics, list) and topics
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash()
        for rel, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_rerun_is_byte_identical(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        out_a = run_pipeline(replace(cfg, output_dir=tmp_path / "a"))
        out_b = run_pipeline(replace(cfg, output_dir=tmp_path / "b"))
        assert digest_tree(out_a) == digest_tree(out_b)

    def test_failure_leaves_no_partial_outputs(self, demo_cfg, tmp_path):
        cfg_path, cfg = demo_cfg
        bad_seeds = tmp_path / "bad_seeds.csv"
        bad_seeds.write_text("hashtag,label\nx,5\n", encoding="utf-8")
        cfg = replace(cfg, seed_file=bad_seeds, output_dir=tmp_path / "never")
        with pytest.raises(StageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "propagate"
        assert not (tmp_path / "never").exists()
        assert not list(tmp_path.glob(".never*"))

    def test_manifest_config_reproduces_run(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        embedded = PipelineConfig.from_text(manifest["config_text"])
        out2 = run_pipeline(replace(embedded, output_dir=tmp_path / "replay"))
        assert digest_tree(out) == digest_tree(out2)


class TestStages:
    def test_staged_equals_end_to_end(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        e2e = run_pipeline(replace(cfg, output_dir=tmp_path / "e2e"))
        staged_cfg = replace(cfg, output_dir=tmp_path / "staged")
        for stage in STAGE_ORDER:
            run_stage(stage, staged_cfg)
        assert digest_tree(e2e) == digest_tree(tmp_path / "staged")

    def test_unknown_stage_is_named_before_validation(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        invalid = replace(cfg, corpus_path=tmp_path / "absent.jsonl")
        expected = f"unknown stage 'bogus'; stages are {', '.join(STAGE_ORDER)}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            run_stage("bogus", invalid)

    def test_missing_intermediate_names_prior_stage(self, demo_cfg):
        _, cfg = demo_cfg
        with pytest.raises(StageError) as info:
            run_stage("propagate", cfg)
        assert info.value.stage == "propagate"
        assert "hashtags" in str(info.value)

    def test_short_row_names_the_file_and_line(self, demo_cfg):
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("classify")]:
            run_stage(stage, cfg)
        labels = cfg.output_dir / "hashtag_labels.csv"
        line_no = len(labels.read_text(encoding="utf-8").splitlines()) + 1
        with open(labels, "a", encoding="utf-8") as fh:
            fh.write("orphan\n")
        with pytest.raises(StageError) as info:
            run_stage("classify", cfg)
        assert info.value.stage == "classify"
        assert f"{labels}: line {line_no}:" in str(info.value)

    def test_bad_label_names_the_file_and_line(self, demo_cfg):
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("classify")]:
            run_stage(stage, cfg)
        labels = cfg.output_dir / "hashtag_labels.csv"
        line_no = len(labels.read_text(encoding="utf-8").splitlines()) + 1
        with open(labels, "a", encoding="utf-8") as fh:
            fh.write("foo,abc\n")
        with pytest.raises(StageError) as info:
            run_stage("classify", cfg)
        assert info.value.stage == "classify"
        assert f"{labels}: line {line_no}: bad label 'abc'" in str(info.value)

    def test_bad_stance_names_the_file_and_line(self, demo_cfg):
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("networks")]:
            run_stage(stage, cfg)
        stance = cfg.output_dir / "stance.csv"
        line_no = len(stance.read_text(encoding="utf-8").splitlines()) + 1
        with open(stance, "a", encoding="utf-8") as fh:
            fh.write("zz_user,0.5,bogus,1\n")
        with pytest.raises(StageError) as info:
            run_stage("networks", cfg)
        assert info.value.stage == "networks"
        assert f"{stance}: line {line_no}: 'bogus' is not a valid Stance" in str(info.value)

    def test_report_names_missing_producer(self, demo_cfg):
        _, cfg = demo_cfg
        run_stage("ingest", cfg)
        with pytest.raises(StageError) as info:
            run_stage("report", cfg)
        # bot_sweep.csv is the alphabetically first missing artifact
        assert "annotations" in str(info.value)


def _flip_presence_weighting(cfg):
    return replace(cfg, presence_weighting=not cfg.presence_weighting)


def _raise_gamma(cfg):
    return replace(cfg, gamma=cfg.gamma + 1)


def _flip_seed_labels(cfg):
    header, *rows = cfg.seed_file.read_text(encoding="utf-8").splitlines()
    flipped = [f"{tag},{-float(label):g}" for tag, label in (row.split(",") for row in rows)]
    cfg.seed_file.write_text("\n".join([header, *flipped]) + "\n", encoding="utf-8")
    return cfg


class TestProvenance:
    """Under ``run_stage``, the manifest says what the bundle is built from and
    which stages have run for it; a stage refuses to mix builds."""

    @pytest.mark.parametrize("change", [_flip_presence_weighting, _raise_gamma, _flip_seed_labels])
    def test_classify_refuses_another_config_or_other_inputs(self, demo_cfg, change):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        before = {name: (out / name).read_bytes() for name in ("stance.csv", "manifest.json")}
        with pytest.raises(StageError, match="run the ingest stage first") as info:
            run_stage("classify", change(cfg))
        assert info.value.stage == "classify"
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("key", ["code_digest", "numpy_version"])
    @pytest.mark.parametrize("rewrite", ["change", "drop"])
    def test_classify_refuses_a_bundle_from_other_code_or_numpy(self, demo_cfg, key, rewrite):
        """A staged bundle whose manifest names other code, another NumPy, or
        neither (as written before they were recorded) is refused, and its
        manifest is left as it was."""
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("classify")]:
            run_stage(stage, cfg)
        path = cfg.output_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert (manifest["code_digest"], manifest["numpy_version"]) == (pipeline._code_digest(), numpy.__version__)
        if rewrite == "change":
            manifest[key] = "0" + manifest[key]
        else:
            del manifest[key]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(StageError, match="run the ingest stage first") as info:
            run_stage("classify", cfg)
        assert info.value.stage == "classify"
        assert path.read_bytes() == before
        assert not (cfg.output_dir / "stance.csv").exists()

    def test_code_digest_is_over_every_py_and_txt_file_of_the_package(self):
        files = {}

        def walk(node, prefix):
            for child in node.iterdir():
                if child.is_dir():
                    walk(child, f"{prefix}{child.name}/")
                elif child.name.endswith((".py", ".txt")):
                    files[prefix + child.name] = child.read_bytes()

        walk(importlib.resources.files("stancelab"), "")
        assert {"pipeline.py", "data/stopwords_en.txt"} <= set(files)
        h = hashlib.sha256()
        for rel in sorted(files):
            h.update(rel.encode() + b"\0" + hashlib.sha256(files[rel]).digest())
        assert pipeline._code_digest() == h.hexdigest()

    def test_another_name_for_the_directory_is_the_same_bundle(self, demo_cfg, tmp_path, monkeypatch):
        """The manifest check ignores ``output_dir``: a path through ``..`` and a moved bundle both pass."""
        cfg_path, cfg = demo_cfg
        built = digest_tree(run_pipeline(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["hashtags", "--config", str(cfg_path), "--output-dir", f"../{tmp_path.name}/out"]) == 0
        (tmp_path / "out").rename(tmp_path / "moved")
        for stage in ("hashtags", "report"):
            assert main([stage, "--config", str(cfg_path), "--output-dir", "moved"]) == 0
        assert digest_tree(tmp_path / "moved") == built

    def test_ingest_under_another_config_starts_a_new_build(self, demo_cfg):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        other = _flip_presence_weighting(cfg)
        run_stage("ingest", other)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert "outputs" not in manifest
        assert manifest["stages"] == ["ingest"]
        with pytest.raises(StageError, match="run the propagate stage first"):
            run_stage("classify", other)
        with pytest.raises(StageError, match="run the hashtags stage first"):
            run_stage("report", other)

    def test_ingest_deletes_the_files_a_new_build_does_not_list(self, demo_cfg):
        """A staged rebuild with fewer exports leaves only the files its manifest lists."""
        _, cfg = demo_cfg
        assert set(cfg.export_formats) == {"csv", "gexf", "dot"}
        out = run_pipeline(cfg)
        fewer = replace(cfg, export_formats=("csv",))
        for stage in STAGE_ORDER:
            run_stage(stage, fewer)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert on_disk - set(manifest["outputs"]) == {"manifest.json"}

    def test_a_stage_fetches_every_read_before_it_writes(self, demo_cfg):
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("metrics")]:
            run_stage(stage, cfg)
        (cfg.output_dir / "networks" / "mention.json").unlink()
        with pytest.raises(StageError, match="run the networks stage first") as info:
            run_stage("metrics", cfg)
        assert info.value.stage == "metrics"
        assert not (cfg.output_dir / "metrics.json").exists()

    # A failure at the first network leaves one network file, at the last all five.
    @pytest.mark.parametrize("failing", ["retweet", "reciprocal"])
    def test_a_failed_stage_is_not_recorded(self, demo_cfg, monkeypatch, failing):
        _, cfg = demo_cfg
        for stage in STAGE_ORDER[: STAGE_ORDER.index("networks")]:
            run_stage(stage, cfg)
        export = pipeline.export_graph

        def export_or_fail(net, fmt, path, *edges):
            if net.kind.value == failing:
                raise OSError("no space left on device")
            export(net, fmt, path, *edges)

        monkeypatch.setattr(pipeline, "export_graph", export_or_fail)
        with pytest.raises(StageError, match="no space left"):
            run_stage("networks", cfg)
        assert (cfg.output_dir / "networks" / f"{failing}.json").is_file()
        with pytest.raises(StageError, match="run the networks stage first") as info:
            run_stage("metrics", cfg)
        assert info.value.stage == "metrics"

    @pytest.mark.parametrize("damage", ["drop stages", "truncate", "not an object", "stages a number", "stages a string"])
    def test_old_or_unreadable_manifest_names_ingest(self, demo_cfg, damage):
        """The stage refuses before it writes its output."""
        _, cfg = demo_cfg
        path = run_pipeline(cfg) / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["stages"]  # as written before the manifest listed them
        manifest.update({"stages a number": {"stages": 5}, "stages a string": {"stages": "ingest"}}.get(damage, {}))
        text = json.dumps(manifest)
        damaged = {"truncate": text[: len(text) // 2], "not an object": "[]"}.get(damage, text)
        path.write_text(damaged, encoding="utf-8")
        graph = path.parent / "hashtag_graph.json"
        graph.unlink()
        with pytest.raises(StageError, match="run the ingest stage first"):
            run_stage("hashtags", cfg)
        assert not graph.exists()

    @pytest.mark.parametrize(
        "broken, stage",
        [("_file_sha256", "run"), ("_file_sha256", "ingest"), ("read_json", "hashtags"), ("write_json", "hashtags")],
    )
    def test_a_failure_outside_the_stage_function_names_the_stage(self, demo_cfg, monkeypatch, broken, stage):
        """Hashing the inputs and reading or writing the manifest fail as the stage, or as ``run``."""
        _, cfg = demo_cfg
        run_stage("ingest", cfg)
        run_stage("hashtags", cfg)

        def failing(*args):
            raise PermissionError("permission denied")

        monkeypatch.setattr(pipeline, broken, failing)
        with pytest.raises(StageError, match="permission denied") as info:
            run_pipeline(cfg) if stage == "run" else run_stage(stage, cfg)
        assert info.value.stage == stage

    def test_ingest_refuses_a_directory_without_manifest(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        unrelated = tmp_path / "precious"
        unrelated.mkdir()
        (unrelated / "thesis.tex").write_text("keep me", encoding="utf-8")
        with pytest.raises(StageError, match="manifest"):
            run_stage("ingest", replace(cfg, output_dir=unrelated))
        assert [p.name for p in unrelated.iterdir()] == ["thesis.tex"]


class TestCli:
    def test_run_and_exit_codes(self, demo_cfg, capsys):
        cfg_path, cfg = demo_cfg
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "report bundle" in out
        assert (cfg.output_dir / "manifest.json").is_file()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("corpus_path = missing.jsonl\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_intermediate_exits_1_with_stage(self, demo_cfg, capsys):
        cfg_path, _ = demo_cfg
        assert main(["classify", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage classify failed")
        assert "ingest" in err

    @pytest.mark.parametrize("command", ["run", "ingest"])
    def test_unusable_output_dir_exits_1_with_stage(self, demo_cfg, tmp_path, capsys, command):
        cfg_path, _ = demo_cfg
        (tmp_path / "afile").touch()
        assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path / "afile" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage {command} failed:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "ingest"])
    @pytest.mark.parametrize("rel", ["seeds.csv", "networks/seeds.csv"])
    def test_an_input_file_inside_output_dir_exits_2_and_deletes_nothing(self, demo_cfg, capsys, command, rel):
        """A new build would delete it: ``run`` with the old bundle, ``ingest`` as a file the bundle does not list."""
        cfg_path, cfg = demo_cfg
        assert main(["run", "--config", str(cfg_path)]) == 0
        seeds = cfg.output_dir / rel
        seeds.write_bytes(cfg.seed_file.read_bytes())
        before = digest_tree(cfg.output_dir, skip_manifest=False)
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--seed-file", str(seeds)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed_file lies inside output_dir")
        assert digest_tree(cfg.output_dir, skip_manifest=False) == before
        assert seeds.read_bytes() == cfg.seed_file.read_bytes()

    def test_staged_subcommands_match_run(self, demo_cfg, tmp_path, capsys):
        cfg_path, cfg = demo_cfg
        assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "full")]) == 0
        for stage in STAGE_ORDER:
            assert main([stage, "--config", str(cfg_path), "--output-dir", str(tmp_path / "by_stage")]) == 0
        assert digest_tree(tmp_path / "full") == digest_tree(tmp_path / "by_stage")

    def test_flag_overrides_config(self, demo_cfg, tmp_path):
        cfg_path, _ = demo_cfg
        out_default = tmp_path / "default"
        out_presence = tmp_path / "presence"
        assert main(["run", "--config", str(cfg_path), "--output-dir", str(out_default)]) == 0
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(cfg_path),
                    "--output-dir",
                    str(out_presence),
                    "--presence-weighting",
                ]
            )
            == 0
        )
        default_rows = (out_default / "stance.csv").read_text().splitlines()
        presence_rows = (out_presence / "stance.csv").read_text().splitlines()
        assert default_rows != presence_rows
        d1_presence = next(r for r in presence_rows if r.startswith("d1,"))
        # presence weighting averages d1's four labeled hashtags once each
        assert float(d1_presence.split(",")[1]) == pytest.approx((-1 - 1 - 1 + 1 / 3) / 4)


_WORD = st.text(alphabet=string.ascii_letters + string.digits + "_-", min_size=1, max_size=8)


def _values(hint):
    """Values of a config field's type that its text form can carry."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return st.lists(_values(args[0]), max_size=4).map(tuple)
    if args:
        return st.none() | _values(args[0])
    if hint is Path:
        return st.lists(_WORD, min_size=1, max_size=3).map(lambda parts: Path("/", *parts))
    return {
        bool: st.booleans(),
        int: st.integers(),
        float: st.floats(allow_nan=False, allow_infinity=False),
        str: _WORD,
    }[hint]


@given(st.fixed_dictionaries({name: _values(hint) for name, hint in FIELD_TYPES.items()}))
def test_config_text_roundtrip(values):
    cfg = PipelineConfig(**values)
    assert PipelineConfig.from_text(cfg.to_text()) == cfg


class TestFlags:
    def test_one_flag_per_field(self):
        for f in fields(PipelineConfig):
            value = [] if FIELD_TYPES[f.name] is bool else ["x"]
            args = build_parser().parse_args(["run", "--config", "c.cfg", "--" + f.name.replace("_", "-"), *value])
            assert getattr(args, f.name) is not None

    def test_old_spellings_still_parse(self):
        args = build_parser().parse_args(
            ["run", "--config", "c.cfg", "--corpus", "a.jsonl", "--bot-scores", "b.csv", "--account-types", "t.csv"]
        )
        assert (args.corpus_path, args.bot_scores_path, args.account_types_path) == ("a.jsonl", "b.csv", "t.csv")

    def test_relative_paths_resolve_per_source(self, tmp_path, monkeypatch):
        inputs = tmp_path / "inputs"
        write_demo_inputs(inputs)
        cfg_file = inputs / "c.cfg"
        cfg_file.write_text(
            "corpus_path = corpus.jsonl\nseed_file = seeds.csv\n"
            "bot_scores_path = bot_scores.csv\naccount_types_path = account_types.csv\n"
            "output_dir = out\n",
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(["run", "--config", "inputs/c.cfg", "--seed-file", "inputs/seeds.csv"])
        cfg = load_config(args)
        assert cfg.corpus_path == inputs / "corpus.jsonl"
        assert cfg.seed_file == tmp_path / "inputs" / "seeds.csv"
        assert cfg.output_dir == inputs / "out"

    def test_typed_flag_values(self, demo_cfg):
        cfg_path, _ = demo_cfg
        args = build_parser().parse_args(
            ["run", "--config", str(cfg_path), "--gamma", "7", "--lda-alpha", "", "--sweep-grid", "0.1,0.5",
             "--no-include-retweet-hashtags"]
        )  # fmt: skip
        cfg = load_config(args)
        assert (cfg.gamma, cfg.lda_alpha, cfg.sweep_grid, cfg.include_retweet_hashtags) == (7, None, (0.1, 0.5), False)

    def test_bad_flag_value_exits_2(self, demo_cfg, capsys):
        cfg_path, _ = demo_cfg
        assert main(["run", "--config", str(cfg_path), "--gamma", "many"]) == 2
        assert "gamma" in capsys.readouterr().err


class TestInMemoryRun:
    def test_run_parses_the_corpus_once_and_reads_no_network(self, demo_cfg, monkeypatch, tmp_path):
        """Calls are recorded through a file, so those made in the forked child count too."""
        _, cfg = demo_cfg
        log = tmp_path / "calls.jsonl"
        counted_names = ("load_corpus", "read_network_json")
        for name in counted_names:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                append_record(log, _name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        run_pipeline(cfg)
        calls = read_records(log)
        assert {name: calls.count(name) for name in counted_names} == {"load_corpus": 1, "read_network_json": 0}

    def test_rerun_with_fewer_exports_leaves_only_manifest_files(self, demo_cfg):
        _, cfg = demo_cfg
        assert set(cfg.export_formats) == {"csv", "gexf", "dot"}
        run_pipeline(cfg)
        out = run_pipeline(replace(cfg, export_formats=("csv",)))
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert on_disk == set(manifest["outputs"]) | {"manifest.json"}
        assert not list(out.parent.glob(f".{out.name}-*"))

    def test_refuses_to_replace_a_directory_without_manifest(self, demo_cfg, tmp_path):
        _, cfg = demo_cfg
        unrelated = tmp_path / "precious"
        unrelated.mkdir()
        (unrelated / "thesis.tex").write_text("keep me", encoding="utf-8")
        with pytest.raises(StageError, match="manifest"):
            run_pipeline(replace(cfg, output_dir=unrelated))
        assert [p.name for p in unrelated.iterdir()] == ["thesis.tex"]
        assert (unrelated / "thesis.tex").read_text(encoding="utf-8") == "keep me"

    def test_demo_config_runs_from_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_demo_config("demo_data")
        assert main(["run", "--config", "demo_data/config.cfg"]) == 0
        assert (tmp_path / "demo_data" / "report" / "manifest.json").is_file()


class TestForkedStages:
    """``run_pipeline`` steps the forked stages in a child process: a failure
    on either side names its stage, leaves ``output_dir`` and no temporary
    sibling behind, and the child is always reaped."""

    @pytest.fixture()
    def built(self, demo_cfg):
        _, cfg = demo_cfg
        out = run_pipeline(cfg)
        return cfg, digest_tree(out, skip_manifest=False)

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail instead of hanging if the join never returns."""

        def expired(signum, frame):
            raise TimeoutError("run_pipeline did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def fail_in(monkeypatch, stage, action=None):
        def failing(cfg, bundle, **inputs):
            if action is not None:
                action()
            raise OSError(f"{stage} broke")

        monkeypatch.setitem(pipeline._STAGES, stage, failing)

    @staticmethod
    def assert_left_as_built(cfg, digests):
        out = cfg.output_dir
        assert digest_tree(out, skip_manifest=False) == digests
        assert not list(out.parent.glob(f".{out.name}-*"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("stage", pipeline._CHILD_LANE)
    def test_a_failing_forked_stage_is_named(self, built, monkeypatch, stage):
        cfg, digests = built
        self.fail_in(monkeypatch, stage)
        with pytest.raises(StageError, match=f"{stage} broke") as info:
            run_pipeline(cfg)
        assert info.value.stage == stage
        self.assert_left_as_built(cfg, digests)

    @pytest.mark.parametrize("stage", pipeline._CHILD_LANE)
    def test_a_killed_child_is_named_by_its_stage(self, built, monkeypatch, stage):
        cfg, digests = built
        test_process = os.getpid()

        def kill_self():
            assert os.getpid() != test_process  # never kill the test run itself
            os.kill(os.getpid(), signal.SIGKILL)

        self.fail_in(monkeypatch, stage, kill_self)
        with pytest.raises(StageError, match="killed by SIGKILL") as info:
            run_pipeline(cfg)
        assert info.value.stage == stage
        self.assert_left_as_built(cfg, digests)

    def test_a_failure_beside_the_child_reaps_it(self, built, monkeypatch):
        cfg, digests = built
        self.fail_in(monkeypatch, "text")
        with pytest.raises(StageError, match="text broke") as info:
            run_pipeline(cfg)
        assert info.value.stage == "text"
        self.assert_left_as_built(cfg, digests)

    def test_of_two_failures_the_earlier_stage_is_named(self, built, monkeypatch):
        cfg, digests = built
        self.fail_in(monkeypatch, "text")
        self.fail_in(monkeypatch, "metrics")
        earlier = min(("text", "metrics"), key=STAGE_ORDER.index)
        with pytest.raises(StageError, match=f"{earlier} broke") as info:
            run_pipeline(cfg)
        assert info.value.stage == earlier
        self.assert_left_as_built(cfg, digests)


class TestCollectorThreshold:
    """A build runs with the cyclic collector off: in ``run_pipeline``'s
    head, in the forked child's stages, in the parent's lane and in
    ``report``, and in ``run_stage``.  Afterwards the caller's enabled state,
    threshold and freeze count are as they were, whether the build succeeds
    or a stage fails."""

    CALLER = (1234, 5, 6)

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def caller_gc(self, request):
        threshold, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(*self.CALLER)
        if not request.param:
            gc.disable()
        yield request.param, self.CALLER, gc.get_freeze_count()
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def caller_state():
        return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()

    @staticmethod
    def record_enabled(monkeypatch, log, stage, fail=False):
        step = pipeline._STAGES[stage]

        def recording(cfg, bundle, **inputs):
            append_record(log, [stage, gc.isenabled()])
            if fail:
                raise OSError(f"{stage} broke")
            step(cfg, bundle, **inputs)

        monkeypatch.setitem(pipeline._STAGES, stage, recording)

    @pytest.mark.parametrize("fail", [False, True], ids=["succeeds", "fails"])
    def test_run_pipeline(self, demo_cfg, tmp_path, monkeypatch, caller_gc, fail):
        _, cfg = demo_cfg
        log = tmp_path / "enabled.jsonl"
        stages = ["ingest", "classify", *pipeline._CHILD_LANE, "text", "annotations", "report"]
        for stage in stages:
            self.record_enabled(monkeypatch, log, stage, fail and stage == "annotations")
        if fail:
            with pytest.raises(StageError, match="annotations broke"):
                run_pipeline(cfg)
            stages.remove("report")
        else:
            run_pipeline(cfg)
        assert sorted(read_records(log)) == sorted([stage, False] for stage in stages)
        assert self.caller_state() == caller_gc

    @pytest.mark.parametrize("fail", [False, True], ids=["succeeds", "fails"])
    def test_run_stage(self, demo_cfg, tmp_path, monkeypatch, caller_gc, fail):
        _, cfg = demo_cfg
        log = tmp_path / "enabled.jsonl"
        self.record_enabled(monkeypatch, log, "ingest")
        run_stage("ingest", cfg)
        assert self.caller_state() == caller_gc
        self.record_enabled(monkeypatch, log, "hashtags", fail)
        if fail:
            with pytest.raises(StageError, match="hashtags broke"):
                run_stage("hashtags", cfg)
        else:
            run_stage("hashtags", cfg)
        assert read_records(log) == [["ingest", False], ["hashtags", False]]
        assert self.caller_state() == caller_gc


class TestFrozenAcrossTheFork:
    """A caller's frozen objects stay frozen through a build and its fork."""

    def test_a_caller_that_froze_objects_keeps_them_frozen(self, demo_cfg):
        _, cfg = demo_cfg
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_pipeline(cfg)
            # still frozen, and nothing of the build's added (frozen objects may be freed meanwhile)
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()
