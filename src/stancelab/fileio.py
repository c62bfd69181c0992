"""The file formats stancelab reads and writes, each stated once.

Every file of a report bundle, and of the demo inputs, goes through this
module, so one set of rules fixes their bytes:

* JSON: UTF-8, two-space indent, sorted keys, non-ASCII characters escaped,
  LF line ends and a final newline.
* JSONL: UTF-8, one compact JSON object per line with sorted keys and
  non-ASCII characters kept as they are, each line ended by LF.
* CSV: UTF-8, a header row naming the columns, the ``csv`` module's minimal
  quoting and LF row ends.  On read, blank rows are skipped; the header is
  compared trimmed and lower-cased, extra trailing columns are allowed; a
  missing required header names the file, and a row shorter than the header
  names the file and the line.
* Text (the DOT and GEXF exports, the demo config): UTF-8, written as given.
* On read, a UTF-8 byte-order mark at the start of a file is dropped.

Every writer writes a temporary sibling file and moves it into place with
``os.replace``, so an interrupted or failed write leaves the old file as it
was (or no file) and never a truncated one.

``load_corpus`` decodes its JSONL line by line itself, because it skips or
reports each bad line on its own.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

__all__ = ["write_json", "read_json", "jsonl_line", "write_jsonl", "write_csv", "read_csv", "write_text"]


@contextmanager
def _replacing(path: str | Path, newline: str) -> Iterator[IO[str]]:
    """Open a temporary sibling of ``path`` for writing and move it onto
    ``path`` once the block succeeds; on any error, delete it instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path, "\n") as fh:
        fh.write(text)


def write_json(path: str | Path, payload: Any) -> None:
    with _replacing(path, "\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ``json.dumps`` with these options builds a new encoder on every call.
_JSONL_ENCODE = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def jsonl_line(obj: Any) -> str:
    """One JSONL line, newline included."""
    return _JSONL_ENCODE(obj) + "\n"


def write_jsonl(path: str | Path, objects: Iterable[Any]) -> None:
    with _replacing(path, "\n") as fh:
        for obj in objects:
            fh.write(jsonl_line(obj))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with _replacing(path, "") as fh:
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
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
