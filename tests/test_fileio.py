import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypersym.hypergraph
from hypersym import (
    Coloring,
    FileFormatError,
    Hypergraph,
    HypergraphError,
    InternalConsistencyError,
    NikiforovParams,
    ParameterError,
    build_hypergraph,
    cycle,
    generalized_power,
    nikiforov,
    single_edge,
)
from hypersym.fileio import (
    format_coloring,
    format_hypergraph,
    format_layout,
    parse_coloring,
    parse_hypergraph,
    read_coloring,
    read_hypergraph,
    write_hypergraph,
)
from hypersym.hypergraph import _build_per_edge

from helpers import parse_hypergraph_loop, random_connected_hypergraph
import random


def test_round_trip_is_identity_on_canonical_files():
    rng = random.Random(60)
    for _ in range(25):
        g = random_connected_hypergraph(rng, rng.choice([2, 3, 4]), n_max=8)
        text = format_hypergraph(g)
        assert parse_hypergraph(text) == g
        assert format_hypergraph(parse_hypergraph(text)) == text


def test_read_write_files(tmp_path):
    g = cycle(5)
    target = tmp_path / "c5.hg"
    write_hypergraph(g, target)
    assert read_hypergraph(target) == g


def test_comments_and_blank_lines_accepted():
    text = "# a comment\n\nuniform 2\n# another\nvertices 3\n1 2\n\n2 3\n"
    g = parse_hypergraph(text)
    assert g.edges == ((1, 2), (2, 3))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 2\nvertices 3\n1 2\n2 3 1\n")
    assert info.value.line == 4
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 2\nvertices 3\n1 x\n")
    assert info.value.line == 3
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("vertices 3\nuniform 2\n")
    assert info.value.line == 1
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 2\nvertices 3\n1 2\n2 1\n")
    assert info.value.line == 4
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 2\nvertices 3\n1 4\n")
    assert info.value.line == 3
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform x\n")
    assert info.value.line == 1
    assert str(info.value) == "line 1: uniform value 'x' is not an integer"
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 2\n")
    assert info.value.line == 1
    assert str(info.value) == "line 1: missing 'vertices <n>' line"
    with pytest.raises(FileFormatError):
        parse_hypergraph("")


def test_header_validation():
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 1\nvertices 3\n")
    assert str(info.value) == "line 1: uniformity must be >= 2, got 1"
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("# comment\nuniform 1\nvertices 3\n1\n")
    assert info.value.line == 2
    with pytest.raises(FileFormatError) as info:
        parse_hypergraph("uniform 3\nvertices 2\n")
    assert str(info.value) == "line 2: vertex_count must be >= uniformity, got 2 < 3"


def test_coloring_round_trip():
    text = "modulus 4\n1\n0\n3\n2\n"
    col = parse_coloring(text)
    assert col.modulus == 4
    assert col.values == (1, 0, 3, 2)
    assert format_coloring(col) == text


def test_coloring_errors():
    with pytest.raises(FileFormatError) as info:
        parse_coloring("modulus 4\n1\n4\n")
    assert info.value.line == 3
    with pytest.raises(FileFormatError):
        parse_coloring("modulus 4\n")
    with pytest.raises(FileFormatError):
        parse_coloring("")
    with pytest.raises(FileFormatError) as info:
        parse_coloring("modulus 4\n1\nx\n")
    assert info.value.line == 3
    with pytest.raises(FileFormatError) as info:
        parse_coloring("modulus 1\n0\n")
    assert info.value.line == 1
    assert str(info.value) == "line 1: modulus must be >= 2, got 1"


def test_layout_format_lists_blocks():
    _, layout = generalized_power(single_edge(2), 5, 2)
    text = format_layout(layout)
    assert "vertex 1: 1 2" in text
    assert "vertex 2: 3 4" in text
    assert "edge 1: 5" in text
    _, layout = generalized_power(single_edge(2), 4, 2)
    assert "edge" not in format_layout(layout)


@st.composite
def edge_lists_with_faults(draw):
    """Distinct edges, some with an injected fault, under headers that are
    sometimes invalid."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(m, 9))
    subsets = st.permutations(range(1, n + 1)).map(lambda p: list(p[:m]))
    edges = draw(st.lists(subsets, max_size=8, unique_by=frozenset))
    for i, edge in enumerate(edges):
        fault = draw(st.sampled_from([None] * 6 + ["size", "repeat", "range", "dup"]))
        if fault == "size":
            edges[i] = edge[:-1] if draw(st.booleans()) else edge + [n + 1]
        elif fault == "repeat":
            edge[-1] = edge[0]
        elif fault == "range":
            edge[draw(st.integers(0, m - 1))] = draw(st.sampled_from([0, -1, n + 1]))
        elif fault == "dup" and i:
            edges[i] = draw(st.permutations(edges[draw(st.integers(0, i - 1))]))
    header_fault = draw(st.sampled_from([None] * 8 + ["uniform", "vertices"]))
    if header_fault == "uniform":
        m = draw(st.integers(-1, 1))
    elif header_fault == "vertices":
        n = m - draw(st.integers(1, 2))
    return m, n, edges


def _first_bad_edge(m, n, edges):
    """Index of the first edge `build_hypergraph` rejects; -1 for the headers."""
    for end in range(len(edges) + 1):
        try:
            build_hypergraph(m, n, edges[:end])
        except (HypergraphError, ParameterError):
            return end - 1
    return None


@settings(deadline=None)
@given(edge_lists_with_faults(), st.lists(st.booleans(), min_size=8, max_size=8))
def test_parser_reports_the_builders_verdict_at_the_right_line(case, padding):
    m, n, edges = case
    lines = ["# generated", f"uniform {m}", f"vertices {n}"]
    edge_line = []
    for edge, pad in zip(edges, padding):
        if pad:
            lines.append("")
        lines.append(" ".join(str(v) for v in edge))
        edge_line.append(len(lines))
    text = "\n".join(lines) + "\n"
    bad = _first_bad_edge(m, n, edges)
    if bad is None:
        graph = build_hypergraph(m, n, edges)
        assert parse_hypergraph(text) == graph
        canonical = format_hypergraph(graph)
        assert format_hypergraph(parse_hypergraph(canonical)) == canonical
    else:
        with pytest.raises(FileFormatError) as info:
            parse_hypergraph(text)
        # a bad uniformity is reported at the `uniform` line, a bad vertex
        # count at the `vertices` line
        assert info.value.line == (edge_line[bad] if bad >= 0 else 2 if m < 2 else 3)


@settings(deadline=None)
@given(edge_lists_with_faults())
def test_builder_error_names_the_first_bad_edge(case):
    m, n, edges = case
    bad = _first_bad_edge(m, n, edges)
    if bad is None:
        build_hypergraph(m, n, edges)
        return
    with pytest.raises((HypergraphError, ParameterError)) as info:
        build_hypergraph(m, n, edges)
    # a header error has no edge index; `_first_bad_edge` reports it as -1
    assert getattr(info.value, "index", -1) == bad


def _outcome(parse, text):
    """The graph a parser returns, or the class, text, line and cause of its error."""
    try:
        return parse(text)
    except FileFormatError as err:
        return type(err), str(err), err.line, type(err.__cause__)


@st.composite
def messy_hypergraph_texts(draw):
    """`edge_lists_with_faults` written out of canonical form: edges and
    their vertices shuffled, mixed separators, CRLF, trailing blanks,
    blank and comment lines, and sometimes a line with a non-integer
    token."""
    m, n, edges = draw(edge_lists_with_faults())
    edges = [draw(st.permutations(edge)) for edge in draw(st.permutations(edges))]
    separators = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [
        draw(separators).join(map(str, edge)) + draw(st.sampled_from(["", " ", "\t"]))
        for edge in edges
    ]
    if draw(st.booleans()):
        junk = draw(st.sampled_from(["x", "1.5", "0x3", "--1", "2#"]))
        lines.insert(draw(st.integers(0, len(lines))), f"1 {junk}")
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "   ", "# note", "  # indented", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    head = ["# generated"] if draw(st.booleans()) else []
    head += [f"uniform {m}", f"vertices {n}"]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(head + lines) + newline * draw(st.integers(0, 2))


@settings(deadline=None, max_examples=300)
@given(messy_hypergraph_texts())
# a replay on the sorted edge list would name line 4, the first copy
@example("uniform 4\nvertices 6\n1 2 3 4\n1 2 3 5\n1 2 3 4\n")
def test_parser_matches_the_streaming_reader(text):
    assert _outcome(parse_hypergraph, text) == _outcome(parse_hypergraph_loop, text)


def test_huge_headers_without_edges_parse_at_once():
    # nothing loops or allocates in proportion to a header value
    graph = parse_hypergraph("uniform 1000000000\nvertices 1000000000\n")
    assert graph == Hypergraph(10**9, 10**9, ())


def test_a_byte_order_mark_is_dropped(tmp_path):
    target = tmp_path / "c5.hg"
    target.write_bytes(b"\xef\xbb\xbf" + format_hypergraph(cycle(5)).encode())
    assert read_hypergraph(target) == cycle(5)
    target = tmp_path / "c5.col"
    target.write_bytes(b"\xef\xbb\xbfmodulus 2\r\n1\r\n0\r\n")
    assert read_coloring(target) == Coloring(2, (1, 0))


def _build_outcome(build, m, n, edges):
    try:
        return build(m, n, edges)
    except (HypergraphError, ParameterError) as err:
        return type(err), str(err)


@settings(deadline=None)
@given(edge_lists_with_faults(), st.randoms(use_true_random=False))
def test_builder_matches_its_per_edge_rules(case, rng):
    m, n, edges = case
    rng.shuffle(edges)
    assert _build_outcome(build_hypergraph, m, n, edges) == _build_outcome(
        _build_per_edge, m, n, edges
    )


def test_an_edge_list_rejection_the_per_edge_rules_accept_raises(monkeypatch):
    # the reader reaches the builder's one raise: no edge list is increasing
    monkeypatch.setattr(hypersym.hypergraph, "_increasing", lambda items: False)
    with pytest.raises(
        InternalConsistencyError,
        match=r"^whole-list edge checks rejected edges the per-edge rules accept$",
    ):
        parse_hypergraph("uniform 2\nvertices 3\n1 2\n2 3\n")


def test_the_first_repeat_in_file_order_wins():
    # {3, 4} repeats on line 6, before {1, 2} does, though {1, 2} sorts first
    text = "uniform 2\nvertices 4\n1 2\n3 4\n2 3\n4 3\n2 1\n"
    with pytest.raises(FileFormatError, match=r"^line 6: edge \{3, 4\} appears more than once$"):
        parse_hypergraph(text)


def _traced_peak(text):
    """Peak traced allocation of parsing `text`, whether or not it parses."""
    tracemalloc.start()
    try:
        parse_hypergraph(text)
    except FileFormatError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_a_repeated_last_edge_costs_the_reader_no_extra_memory():
    # the replay of a list that only repeats edges remembers the repeated
    # edges alone, not every edge it has read
    text = format_hypergraph(nikiforov(NikiforovParams(1, 12, 12, 8)))
    faulty = text + text.splitlines()[-1] + "\n"
    with pytest.raises(FileFormatError, match=r"^line 8979: edge \{.*\} appears more than once$"):
        parse_hypergraph(faulty)
    assert _traced_peak(faulty) <= 1.1 * _traced_peak(text)
