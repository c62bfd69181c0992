"""The file formats stancelab reads and writes, each stated once.

Every JSON, JSONL and CSV file of a report bundle, and of the demo inputs,
goes through this module, so one set of rules fixes their bytes:

* JSON: UTF-8, two-space indent, sorted keys, non-ASCII characters escaped,
  LF line ends and a final newline.
* JSONL: UTF-8, one compact JSON object per line with sorted keys and
  non-ASCII characters kept as they are, each line ended by LF.
* CSV: UTF-8, a header row naming the columns, the ``csv`` module's minimal
  quoting and LF row ends.  On read, blank rows are skipped; the header is
  compared trimmed and lower-cased, extra trailing columns are allowed; a
  missing required header names the file, and a row shorter than the header
  names the file and the line.

``load_corpus`` parses its JSONL line by line with ``json.loads`` itself,
because it skips or reports each bad line on its own.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

__all__ = ["write_json", "read_json", "jsonl_line", "write_jsonl", "write_csv", "read_csv"]


def write_json(path: str | Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def jsonl_line(obj: Any) -> str:
    """One JSONL line, newline included."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n"


def write_jsonl(path: str | Path, objects: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(jsonl_line(obj))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(
    path: str | Path, header: Sequence[str], *, header_optional: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_no, row)`` for each non-blank data row, counting from 1.

    ``header`` lists the lower-case column names.  The header row is line 1;
    unless ``header_optional``, a file without it is an error.
    """
    columns = ",".join(header)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = enumerate(csv.reader(fh), start=1)
        first = next(rows, (1, []))
        if [c.strip().lower() for c in first[1][: len(header)]] != list(header):
            if not header_optional:
                raise ValueError(f"{path}: expected header {columns!r}")
            rows = itertools.chain([first], rows)
        for line_no, row in rows:
            if not row or not "".join(row).strip():
                continue
            if len(row) < len(header):
                raise ValueError(f"{path}: line {line_no}: expected {columns!r}")
            yield line_no, row
