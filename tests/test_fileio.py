import pytest

from stancelab.fileio import jsonl_line, read_csv, read_json, write_csv, write_json, write_jsonl


def test_json_dialect(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 2.5], "a": "é"})
    assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert read_json(path) == {"a": "é", "b": [1, 2.5]}


def test_jsonl_dialect(tmp_path):
    path = tmp_path / "x.jsonl"
    write_jsonl(path, [{"b": 1, "a": "é"}, {}])
    assert path.read_bytes() == '{"a": "é", "b": 1}\n{}\n'.encode("utf-8")
    assert jsonl_line({"k": "v"}) == '{"k": "v"}\n'


def test_csv_roundtrip_with_quoting(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ("name", "value"), [("a,b", 1), ('say "hi"', "")])
    assert path.read_bytes() == b'name,value\n"a,b",1\n"say ""hi""",\n'
    assert list(read_csv(path, ("name", "value"))) == [(2, ["a,b", "1"]), (3, ['say "hi"', ""])]


def test_header_is_trimmed_and_case_folded_and_blank_rows_skipped(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(" Name ,VALUE,extra\n\nx,1\n ,\ny,2\n", encoding="utf-8")
    assert list(read_csv(path, ("name", "value"))) == [(3, ["x", "1"]), (5, ["y", "2"])]


def test_empty_file_with_required_header_raises(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv: expected header 'name,value'"):
        list(read_csv(path, ("name", "value")))


def test_optional_header_absent_yields_line_1(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x,1\ny,2\n", encoding="utf-8")
    rows = list(read_csv(path, ("name", "value"), header_optional=True))
    assert rows == [(1, ["x", "1"]), (2, ["y", "2"])]


def test_empty_file_with_optional_header_yields_nothing(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("", encoding="utf-8")
    assert list(read_csv(path, ("name", "value"), header_optional=True)) == []


def test_short_row_names_the_file_and_line(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("name,value\nx,1\n\ny\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"x\.csv: line 4: expected 'name,value'"):
        list(read_csv(path, ("name", "value")))
