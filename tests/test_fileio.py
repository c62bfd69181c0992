import codecs
import json
import os

import pytest

from stancelab import fileio
from stancelab.annotations import load_account_types, load_bot_scores
from stancelab.corpus import load_corpus
from stancelab.demo import write_demo_config
from stancelab.fileio import jsonl_line, parse_field, read_csv, read_json, write_csv, write_json, write_jsonl, write_text
from stancelab.hashtag_graph import SeedSpec
from stancelab.pipeline import PipelineConfig
from stancelab.textlab import load_stopwords


def test_json_dialect(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2.5], "a": "é"})
    assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert read_json(path) == {"a": "é", "b": [1, 2.5]}


def test_json_edges_is_the_json_layout_of_edge_arrays():
    names = ["a", 'é"\\', "b"]
    quoted = [json.dumps(name) for name in names]
    edges = [(0, 2, 3), (0, 1, 1), (1, 0, 12)]
    document = fileio.json_block(['"edges": ' + fileio.json_edges(quoted, edges)], 0, "{}") + "\n"
    assert document == json.dumps({"edges": [[names[i], names[j], w] for i, j, w in edges]}, indent=2) + "\n"
    assert fileio.json_edges(quoted, []) == "[]"


def test_jsonl_dialect(tmp_path):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [{"b": 1, "a": "é"}, {}])
    assert path.read_bytes() == '{"a": "é", "b": 1}\n{}\n'.encode("utf-8")
    assert jsonl_line({"k": "v"}) == '{"k": "v"}\n'


def test_csv_roundtrip_with_quoting(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("name", "value"), [("a,b", 1), ('say "hi"', "")])
    assert path.read_bytes() == b'name,value\n"a,b",1\n"say ""hi""",\n'
    assert list(read_csv(path, ("name", "value"), list)) == [["a,b", "1"], ['say "hi"', ""]]


def _failing_at(name):
    """A row conversion that fails on the row whose first column is ``name``."""

    def convert(row):
        if row[0] == name:
            raise ValueError(f"bad row {row!r}")
        return row

    return convert


def test_header_is_trimmed_and_case_folded_and_blank_rows_skipped(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(" Name ,VALUE,extra\n\nx,1\n ,\ny,2\n", encoding="utf-8")
    assert list(read_csv(path, ("name", "value"), list)) == [["x", "1"], ["y", "2"]]
    with pytest.raises(ValueError, match=r"x\.csv: line 5: bad row \['y', '2'\]"):
        list(read_csv(path, ("name", "value"), _failing_at("y")))


def test_a_bad_value_names_the_file_and_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("name,value\nx,1\ny,maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv: line 3: bad value 'maybe'$"):
        list(read_csv(path, ("name", "value"), lambda row: parse_field(int, row[1], "value")))


def test_empty_file_with_required_header_raises(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv: expected header 'name,value'"):
        list(read_csv(path, ("name", "value"), list))


def test_optional_header_absent_yields_line_1(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x,1\ny,2\n", encoding="utf-8")
    assert list(read_csv(path, ("name", "value"), list, header_optional=True)) == [["x", "1"], ["y", "2"]]
    with pytest.raises(ValueError, match=r"x\.csv: line 1: bad row"):
        list(read_csv(path, ("name", "value"), _failing_at("x"), header_optional=True))


def test_empty_file_with_optional_header_yields_nothing(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("", encoding="utf-8")
    assert list(read_csv(path, ("name", "value"), list, header_optional=True)) == []


def test_short_row_names_the_file_and_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("name,value\nx,1\n\ny\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv: line 4: expected 'name,value'"):
        list(read_csv(path, ("name", "value"), list))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_csv_write_leaves_the_old_file(tmp_path, error):
    path = tmp_path / "x.csv"
    write_csv(path, ("n",), [(1,), (2,)])
    before = path.read_bytes()

    def rows():
        yield (3,)
        raise error("disk full")

    with pytest.raises(error):
        write_csv(path, ("n",), rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


@pytest.mark.parametrize(
    "write",
    [
        lambda p: write_json(p, {"a": 1}),
        lambda p: write_jsonl(p, [{"a": 1}]),
        lambda p: write_csv(p, ("a",), [(1,)]),
        lambda p: write_text(p, "a\n"),
    ],
)
def test_failed_replace_leaves_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "x"
    path.write_bytes(b"old")

    def failing_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(fileio.os, "replace", failing_replace)
    with pytest.raises(OSError):
        write(path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["x"]


def test_failed_first_write_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {"a": 1, "b": object()})  # fails after "a" is written
    assert list(tmp_path.iterdir()) == []


def _corpus_outcome(path, strict):
    corpus = load_corpus(path, strict=strict)
    return corpus.tweets, corpus.skipped_count, corpus.duplicate_count


# Each input file with its reader.  Spreadsheet tools start a UTF-8 file with a byte-order mark.
_INPUT_READERS = {
    "corpus.jsonl (lenient)": ("corpus.jsonl", lambda p: _corpus_outcome(p, strict=False)),
    "corpus.jsonl (strict)": ("corpus.jsonl", lambda p: _corpus_outcome(p, strict=True)),
    "config.cfg": ("config.cfg", PipelineConfig.from_file),
    "seeds.csv": ("seeds.csv", SeedSpec.from_csv),
    "bot_scores.csv": ("bot_scores.csv", load_bot_scores),
    "account_types.csv": ("account_types.csv", load_account_types),
    "stopwords.txt": ("stopwords.txt", load_stopwords),
}


@pytest.mark.parametrize("case", sorted(_INPUT_READERS))
def test_a_leading_byte_order_mark_is_ignored(case, tmp_path):
    name, read = _INPUT_READERS[case]
    write_demo_config(tmp_path)
    (tmp_path / "stopwords.txt").write_text("the\nscam\n", encoding="utf-8")
    path = tmp_path / name
    plain = read(path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert read(path) == plain
