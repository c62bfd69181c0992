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
  or a bad value names the file and the line.
* Text (the DOT and GEXF exports, the demo config): UTF-8, written as given.
* On read, a UTF-8 byte-order mark at the start of a file is dropped.

Every writer writes a temporary sibling file and moves it into place with
``os.replace``, so an interrupted or failed write leaves the old file as it
was (or no file) and never a truncated one.

``load_corpus`` decodes its JSONL line by line itself, because it skips or
reports each bad line on its own.  The large files (the cached networks
and hashtag graph, and ``corpus.jsonl``) are rendered by their writers from
pre-encoded items, through ``json_block`` for the JSON layout and
``json_edges`` for their ``[a, b, w]`` edges, in the one order
``graph_order`` gives a graph, with the same bytes ``write_json`` and
``write_jsonl`` would write; each name is encoded once per file.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

__all__ = [
    "write_json",
    "read_json",
    "json_block",
    "json_edges",
    "graph_order",
    "jsonl_line",
    "write_jsonl",
    "write_csv",
    "read_csv",
    "parse_field",
    "write_text",
]


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


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or each string of an iterable in turn without joining them."""
    with _replacing(path, "\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def write_json(path: str | Path, payload: Any) -> None:
    with _replacing(path, "\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def json_block(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """The ``write_json`` layout of an array (``"[]"``) or object (``"{}"``)
    nested ``depth`` levels deep, from its already encoded members: values,
    or ``"key": value`` items of an object in sorted key order."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}{outer}{brackets[1]}" if body else brackets


# The text around the three members of one [a, b, w] one level inside an object.
_EDGE_OPEN, _EDGE_SEP, _, _EDGE_CLOSE = json_block(("%s",) * 3, 2).split("%s")


GraphOrder = tuple[list[str], list[tuple[int, int, int]]]


def graph_order(nodes: Iterable[str], edges: Iterable[tuple[tuple[str, str], int]]) -> GraphOrder:
    """The node names sorted, and each ``((a, b), weight)`` edge, given once, as ``(i, j, weight)``
    between places in that list, by ``(i, j)``.

    The int ``i * n + j`` sorts faster than the name pairs when the edges come
    in build order, as they do in the pipeline: with a name-pair sort the
    seed-101 ``crowd`` ``networks`` stage took about 130 ms instead of 100 ms.
    Edges read back from a written, already sorted file sort equally fast
    either way, so a timing on re-read networks hides the difference."""
    names = sorted(nodes)
    n = len(names)
    index = dict(zip(names, range(n)))
    by_key = {(i := index[a]) * n + (j := index[b]): (i, j, w) for (a, b), w in edges}
    return names, list(map(by_key.__getitem__, sorted(by_key)))


def json_edges(quoted: Sequence[str], edges: Iterable[tuple[int, int, int]]) -> str:
    """The ``json_block`` of ``[a, b, w]`` arrays, one per ``(i, j, w)`` edge
    of a ``GraphOrder``, as the value of a top-level member; ``quoted`` holds
    each name encoded, in the order's places."""
    sep, close = _EDGE_SEP, _EDGE_CLOSE
    opening = [_EDGE_OPEN + q + sep for q in quoted]  # up to b
    return json_block([f"{opening[i]}{quoted[j]}{sep}{w:d}{close}" for i, j, w in edges], 1)


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
    path: str | Path, header: Sequence[str], convert: Callable[[list[str]], Any], *, header_optional: bool = False
) -> Iterator[Any]:
    """Yield ``convert(row)`` for each non-blank data row; a ``ValueError`` it raises names the file and line.

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
            try:
                if len(row) < len(header):
                    raise ValueError(f"expected {columns!r}")
                value = convert(row)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            yield value


def parse_field(parse: Callable[[str], Any], text: str, name: str) -> Any:
    """``parse(text)``, with a ``ValueError`` from it said as ``bad <name> '<text>'``."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"bad {name} {text!r}") from None
