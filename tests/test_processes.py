"""The bundle as fresh interpreters build it: ``python -m stancelab.cli`` and
the demo scripts, each in its own process on the demo inputs.

A set iterated in hash order would leak into the bytes only by chance, so
``run`` is built under two fixed hash seeds, and the stage subcommands, one
process each, under a third.  The networks, the graph and the corpus are
rendered by their own writers rather than by ``json``, so every file of the
bundle is also held to the layout ``json`` writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stancelab.demo import write_demo_config
from stancelab.fileio import jsonl_line
from stancelab.pipeline import STAGE_ORDER, PipelineConfig
from stancelab.stance import read_stance_csv
from util import digest_tree

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


def _python(*args, hash_seed: str | None = None) -> str:
    """Run ``python *args`` with ``src`` on the path; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
    )
    assert done.returncode == 0, f"{args} exited {done.returncode}:\n{done.stderr}"
    return done.stdout


@pytest.fixture(scope="module")
def bundles(tmp_path_factory) -> Path:
    """``hash1`` and ``hash2``: ``run`` under PYTHONHASHSEED 1 and 2;
    ``staged``: each stage subcommand in its own process under 3."""
    root = tmp_path_factory.mktemp("processes")
    config = write_demo_config(root / "inputs")
    for seed in ("1", "2"):
        _python("-m", "stancelab.cli", "run", "--config", config, "--output-dir", root / f"hash{seed}", hash_seed=seed)
    for stage in STAGE_ORDER:
        _python("-m", "stancelab.cli", stage, "--config", config, "--output-dir", root / "staged", hash_seed="3")
    return root


def _outputs(bundle: Path) -> dict[str, str]:
    """The manifest's ``outputs``, checked against the files it names."""
    outputs = json.loads((bundle / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    assert outputs == digest_tree(bundle), bundle.name
    return outputs


def test_run_under_two_hash_seeds_and_each_stage_in_its_own_process_give_equal_outputs(bundles):
    one = _outputs(bundles / "hash1")
    assert one
    for other in ("hash2", "staged"):
        outputs = _outputs(bundles / other)
        assert sorted(rel for rel in one.keys() | outputs.keys() if one.get(rel) != outputs.get(rel)) == [], other


def test_every_json_file_and_corpus_line_is_in_the_layout_json_writes(bundles):
    bundle = bundles / "hash1"
    paths = [p for p in sorted(bundle.rglob("*.json")) if p.name != "manifest.json"]
    assert {"hashtag_graph.json", "networks/mention.json"} <= {p.relative_to(bundle).as_posix() for p in paths}
    for path in paths:
        data = path.read_text(encoding="utf-8")
        assert data == json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n", path
    with open(bundle / "corpus.jsonl", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    assert lines
    for number, line in enumerate(lines, 1):
        assert line == jsonl_line(json.loads(line)), f"corpus.jsonl line {number}"


def test_make_demo_data_writes_a_valid_config(tmp_path):
    _python(REPO / "scripts" / "make_demo_data.py", "--dest", tmp_path / "demo_data")
    PipelineConfig.from_file(tmp_path / "demo_data" / "config.cfg").validate()


def test_run_demo_prints_the_stance_counts_and_the_echo_chamberness_rows(tmp_path):
    printed = _python(REPO / "scripts" / "run_demo.py", "--workdir", tmp_path).splitlines()
    report = tmp_path / "report"
    counts = read_stance_csv(report / "stance.csv").counts()
    assert sum(counts.values()) > 0
    for stance, count in counts.items():
        assert f"  {stance.value:<13} {count}" in printed
    rows = json.loads((report / "metrics.json").read_text(encoding="utf-8"))
    assert rows
    echo = printed[printed.index("echo-chamberness (all-communication subgraphs):") + 1 :]
    assert [line.split()[0] for line in echo[: len(rows)]] == [row["group"] for row in rows]
    assert all(f"e={row['e']:.4f}" in line for row, line in zip(rows, echo))
