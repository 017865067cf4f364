"""Plain-text formats for hypergraphs, colorings, and power layouts.

Hypergraph files: optional '#' comment lines, a `uniform <m>` header, a
`vertices <n>` line, then one edge per line as m space-separated 1-based
indices. Coloring files: `modulus <m>` then one integer per vertex in
index order. Writers emit canonical form; reading a canonical file and
writing it back reproduces it byte for byte.
"""

from __future__ import annotations

import os
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import FileFormatError, HypergraphError, ParameterError
from .hypergraph import Hypergraph, _build
from .power import PowerLayout
from .symmetry import Coloring


def _significant_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, line


def _header_value(line: str, number: int, keyword: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FileFormatError(f"expected '{keyword} <value>', got {line!r}", number)
    try:
        value = int(parts[1])
    except ValueError:
        raise FileFormatError(f"{keyword} value {parts[1]!r} is not an integer", number)
    return value


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse hypergraph text; all failures carry a 1-based line number.

    The text is split into lines once and the two headers are read.
    The edge lines, without blank and comment lines, are converted to
    integer tuples in C-level passes, up to the first line with a token
    that is not an integer, and the converted rows are built by the
    builder of `build_hypergraph`. Its error is reported at the line of
    the edge it names (the error's `index`), or at the line of the bad
    header value: `uniform` for a uniformity below 2, else `vertices`.
    Only then is a line that is not all integers reported, so the first
    faulty line wins.
    """
    lines = text.splitlines()
    significant = _significant_lines(lines)
    try:
        number, line = next(significant)
    except StopIteration:
        raise FileFormatError("empty file, expected 'uniform <m>' header", 1)
    uniformity = _header_value(line, number, "uniform")
    uniform_number = number
    try:
        number, line = next(significant)
    except StopIteration:
        raise FileFormatError("missing 'vertices <n>' line", number)
    vertex_count = _header_value(line, number, "vertices")
    body = lines[number:]
    # the first characters of the stripped lines, "" for a blank line,
    # show whether any line is blank or a comment
    if {"", "#"} & set(map(itemgetter(slice(1)), map(str.lstrip, body))):
        body = [line for _, line in _significant_lines(body)]
    rows: list[tuple[int, ...]] = []
    try:
        rows.extend(map(tuple, map(map, repeat(int), map(str.split, body))))
    except ValueError:
        pass  # `rows` holds the lines before the first that is not all integers
    try:
        graph = _build(uniformity, vertex_count, rows)
    except ParameterError as err:
        line_number = uniform_number if uniformity < 2 else number
        raise FileFormatError(str(err), line_number) from err
    except HypergraphError as err:
        # `significant` resumes after the headers, at the first edge line
        number, _ = next(islice(significant, err.index, None))
        raise FileFormatError(str(err), number) from err
    if len(rows) < len(body):
        number, line = next(islice(significant, len(rows), None))
        raise FileFormatError(f"edge line is not all integers: {line!r}", number)
    return graph


def format_hypergraph(graph: Hypergraph) -> str:
    lines = [f"uniform {graph.uniformity}", f"vertices {graph.vertex_count}"]
    template = " ".join(["%d"] * graph.uniformity)
    lines.extend(map(template.__mod__, graph.edges))
    return "\n".join(lines) + "\n"


def _read_text(path: str | os.PathLike) -> str:
    """The file decoded as UTF-8, without a leading byte-order mark; a bad
    byte is a format error at its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        # counted as `_significant_lines` counts: the line the byte starts
        before = data[: err.start].decode("utf-8")
        number = len((before + "x").splitlines())
        message = f"invalid UTF-8 byte {data[err.start]:#04x}"
        raise FileFormatError(message, number) from err


def read_hypergraph(path: str | os.PathLike) -> Hypergraph:
    return parse_hypergraph(_read_text(path))


def write_hypergraph(graph: Hypergraph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_hypergraph(graph))


def parse_coloring(text: str) -> Coloring:
    lines = _significant_lines(text.splitlines())
    try:
        number, line = next(lines)
    except StopIteration:
        raise FileFormatError("empty file, expected 'modulus <m>' header", 1)
    modulus = _header_value(line, number, "modulus")
    if modulus < 2:
        raise FileFormatError(f"modulus must be >= 2, got {modulus}", number)
    values = []
    for number, line in lines:
        try:
            value = int(line)
        except ValueError:
            raise FileFormatError(f"expected one integer, got {line!r}", number)
        if not 0 <= value < modulus:
            raise FileFormatError(
                f"value {value} outside [0, {modulus - 1}]", number
            )
        values.append(value)
    if not values:
        raise FileFormatError("coloring lists no vertex values", number)
    return Coloring(modulus, values)


def format_coloring(coloring: Coloring) -> str:
    lines = [f"modulus {coloring.modulus}"]
    lines.extend(str(v) for v in coloring.values)
    return "\n".join(lines) + "\n"


def read_coloring(path: str | os.PathLike) -> Coloring:
    return parse_coloring(_read_text(path))


def write_coloring(coloring: Coloring, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_coloring(coloring))


def format_layout(layout: PowerLayout) -> str:
    lines = [
        f"base_uniformity {layout.base_uniformity}",
        f"blowup {layout.blowup}",
        f"uniformity {layout.uniformity}",
    ]
    for v, block in enumerate(layout.vertex_blocks, start=1):
        lines.append(f"vertex {v}: " + " ".join(str(u) for u in block))
    for j, block in enumerate(layout.edge_blocks, start=1):
        if block:
            lines.append(f"edge {j}: " + " ".join(str(u) for u in block))
    return "\n".join(lines) + "\n"


def write_layout(layout: PowerLayout, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_layout(layout))
