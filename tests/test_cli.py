import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersym
from hypersym import cycle, nikiforov, NikiforovParams, path
from hypersym.errors import (
    BudgetExceededError,
    ConvergenceError,
    DimensionMismatchError,
    DisconnectedError,
    FileFormatError,
    HypergraphError,
    HypersymError,
    InternalConsistencyError,
    ModulusMismatchError,
    ParameterError,
)
from hypersym.cli import main
from hypersym.fileio import read_hypergraph, write_hypergraph


@pytest.fixture
def c4_file(tmp_path):
    target = tmp_path / "c4.hg"
    write_hypergraph(cycle(4), target)
    return str(target)


@pytest.fixture
def nikiforov_file(tmp_path):
    target = tmp_path / "nik.hg"
    write_hypergraph(nikiforov(NikiforovParams(1, 6, 6, 4)), target)
    return str(target)


def test_analyze_square_cycle(c4_file, capsys):
    assert main(["analyze", c4_file]) == 0
    out = capsys.readouterr().out
    assert "cyclic_index = 2" in out
    assert "l = 1: solvable" in out
    assert "l = 2: solvable" in out


def test_analyze_triangle(tmp_path, capsys):
    target = tmp_path / "c3.hg"
    write_hypergraph(cycle(3), target)
    assert main(["analyze", str(target)]) == 0
    out = capsys.readouterr().out
    assert "cyclic_index = 1" in out
    assert "l = 2: unsolvable" in out


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.hg"
    bad.write_text("uniform 2\nvertices 3\n1 2\n2 3 1\n")
    assert main(["analyze", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.hg")]) == 2


def test_analyze_disconnected(tmp_path, capsys):
    target = tmp_path / "split.hg"
    target.write_text("uniform 2\nvertices 4\n1 2\n3 4\n")
    assert main(["analyze", str(target)]) == 3


def test_power_writes_power_and_layout(tmp_path, capsys):
    source = tmp_path / "c3.hg"
    write_hypergraph(cycle(3), source)
    out = tmp_path / "c3p.hg"
    assert main(["power", str(source), "--s", "2", "-o", str(out)]) == 0
    power = read_hypergraph(out)
    assert power.uniformity == 4
    assert power.vertex_count == 6
    assert power.edge_count == 3
    assert (tmp_path / "c3p.hg.layout").exists()


def test_power_with_padding_notes_shortcut(tmp_path, capsys):
    source = tmp_path / "c3.hg"
    write_hypergraph(cycle(3), source)
    out = tmp_path / "c3p5.hg"
    code = main(["power", str(source), "--s", "2", "--m", "5", "-o", str(out)])
    assert code == 0
    assert "cyclic_index = 5 (m > st)" in capsys.readouterr().out


def test_power_rejects_bad_blowup(c4_file, tmp_path):
    assert main(["power", c4_file, "--s", "0", "-o", str(tmp_path / "x.hg")]) == 4


def test_conjecture_equality_case(c4_file, capsys):
    assert main(["conjecture", c4_file, "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "power_cyclic_index = 4" in out
    assert "equality = true" in out
    assert "characterization_solvable = true" in out


def test_conjecture_violation_uses_finding_exit_code(nikiforov_file, capsys):
    assert main(["conjecture", nikiforov_file, "--s", "2"]) == 10
    out = capsys.readouterr().out
    assert "power_cyclic_index = 2" in out
    assert "product = 4" in out
    assert "equality = false" in out
    assert "characterization_solvable = false" in out


def test_conjecture_rejects_small_blowup(c4_file):
    assert main(["conjecture", c4_file, "--s", "1"]) == 4


def test_nikiforov_generator(tmp_path, capsys):
    out = tmp_path / "nik.hg"
    code = main(["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", str(out)])
    assert code == 0
    graph = read_hypergraph(out)
    assert graph.edge_count == 420
    coloring_path = tmp_path / "nik.hg.coloring"
    assert coloring_path.exists()
    assert coloring_path.read_text().startswith("modulus 4\n")


def test_nikiforov_generator_rejects_small_class(tmp_path):
    out = tmp_path / "nik.hg"
    assert main(["nikiforov", "--k", "1", "--sizes", "6,6,3", "-o", str(out)]) == 4


def test_nikiforov_generator_rejects_two_sizes(tmp_path, capsys):
    out = tmp_path / "nik.hg"
    assert main(["nikiforov", "--k", "1", "--sizes", "6,6", "-o", str(out)]) == 4
    assert capsys.readouterr().err == "error: --sizes wants 'a,b,c', got '6,6'\n"
    assert list(tmp_path.iterdir()) == []


def test_nikiforov_generator_budget(tmp_path, capsys):
    out = tmp_path / "nik.hg"
    code = main(
        ["nikiforov", "--k", "1", "--sizes", "6,6,4", "--budget", "10", "-o", str(out)]
    )
    assert code == 5
    assert capsys.readouterr().err == "error: family has 420 edges, over the budget of 10\n"


def test_nikiforov_negative_budget_is_a_bad_parameter(tmp_path, capsys):
    # refused before anything is counted or written; a zero budget is a real one
    out = tmp_path / "x.hg"
    argv = ["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", str(out)]
    assert main([*argv, "--budget", "-5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -5\n"
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, "--budget", "0"]) == 5
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "k, sizes",
    [(2000, "12000,12000,8000"), (100000, "600000,600000,400000")],
    ids=["k2000", "k100000"],
)
def test_nikiforov_far_over_the_budget_writes_nothing(tmp_path, capsys, k, sizes):
    # the exact counts have thousands of digits; the refusal never forms them
    out = tmp_path / "big.hg"
    assert main(["nikiforov", "--k", str(k), "--sizes", sizes, "-o", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: family has more than 1000000000000000000 edges, "
        "over the budget of 1000000\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_gen_cycle(tmp_path):
    out = tmp_path / "c4.hg"
    assert main(["gen", "cycle", "4", "-o", str(out)]) == 0
    assert read_hypergraph(out) == cycle(4)


def test_gen_size_error(tmp_path):
    assert main(["gen", "cycle", "2", "-o", str(tmp_path / "x.hg")]) == 4
    assert main(["gen", "complete", "1", "-o", str(tmp_path / "x.hg")]) == 4
    assert main(["gen", "single_edge", "1", "-o", str(tmp_path / "x.hg")]) == 4


def test_gen_into_a_directory_is_a_file_error(tmp_path, capsys):
    # exit 2 covers a file that cannot be written, as one stderr line
    assert main(["gen", "cycle", "4", "-o", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_gen_over_the_edge_budget_writes_nothing(tmp_path, capsys):
    # K_2000 has 1,999,000 edges: refused before any edge is built
    assert main(["gen", "complete", "2000", "-o", str(tmp_path / "big.hg")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complete 2000 is over the budget of 1000000 edges\n"
    assert list(tmp_path.iterdir()) == []


def test_rho_complete_graph(tmp_path, capsys):
    from hypersym import complete

    target = tmp_path / "k4.hg"
    write_hypergraph(complete(4), target)
    assert main(["rho", str(target)]) == 0
    assert "rho = 3.000000" in capsys.readouterr().out


def test_rho_nonconvergence(tmp_path, capsys):
    target = tmp_path / "p3.hg"
    write_hypergraph(path(3), target)
    assert main(["rho", str(target), "--max-iter", "25"]) == 6
    assert "bracket" in capsys.readouterr().err


def test_rho_at_high_uniformity_fails_at_once_on_one_line(tmp_path):
    # x^399 underflows: exit 6 at the first bracket, with no numpy warning
    target = tmp_path / "e.hg"
    assert main(["gen", "single_edge", "400", "-o", str(target)]) == 0
    src = str(Path(hypersym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "hypersym.cli", "rho", str(target)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 6
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: bracket [nan, nan] is not finite at iteration 1: x^399 leaves the float range"
    ]


def test_rho_rejects_zero_iterations(c4_file, capsys):
    assert main(["rho", c4_file, "--max-iter", "0"]) == 4
    assert capsys.readouterr().err == "error: max_iterations must be >= 1, got 0\n"


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_rho_rejects_non_finite_tolerance(c4_file, tol, capsys):
    assert main(["rho", c4_file, "--tol", tol]) == 4
    assert capsys.readouterr().err.startswith("error: tolerance")


@pytest.mark.parametrize("argv", [
    ["conjecture", "C4", "--s", "abc"],
    ["conjecture", "C4"],
    ["gen", "cycle", "x"],
    ["rho", "C4", "--tol", "x"],
    ["frobnicate"],
    [],
], ids=["non-integer", "missing-option", "non-integer-size", "non-float", "unknown-command",
        "no-command"])
def test_usage_error_is_a_bad_parameter_on_one_line(c4_file, argv, capsys):
    assert main([c4_file if arg == "C4" else arg for arg in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["conjecture", "-h"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hypersym")


def test_verify_coloring_valid(c4_file, tmp_path, capsys):
    col = tmp_path / "c4.col"
    col.write_text("modulus 2\n1\n0\n1\n0\n")
    assert main(["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]) == 0
    assert capsys.readouterr().out.startswith("valid")


def test_verify_coloring_invalid(c4_file, tmp_path, capsys):
    col = tmp_path / "c4.col"
    col.write_text("modulus 2\n1\n1\n1\n1\n")
    assert main(["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]) == 0
    assert capsys.readouterr().out.startswith("invalid")


def test_verify_coloring_edgeless(tmp_path, capsys):
    graph = tmp_path / "empty.hg"
    graph.write_text("uniform 2\nvertices 2\n")
    col = tmp_path / "empty.col"
    col.write_text("modulus 2\n0\n1\n")
    assert main(["verify-coloring", str(graph), "--coloring", str(col), "--ell", "2"]) == 0
    assert capsys.readouterr().out == "valid, max_deviation = 0.000e+00\n"


def _run_counting_imports(argv):
    """Run the CLI in a fresh interpreter that fails if the command loads
    numpy, `dataclasses` or `inspect`. The check is on what the command
    adds, so a module that the interpreter loaded before it (a site hook,
    say) cannot fail it."""
    src = str(Path(hypersym.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hypersym.cli\n"
        "code = hypersym.cli.main(sys.argv[1:])\n"
        "loaded = {'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
        "assert not loaded, f'loaded {sorted(loaded)}'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("command", [
    ["analyze", "{c4}"],
    ["conjecture", "{c4}", "--s", "2"],
    ["power", "{c4}", "--s", "2", "-o", "{out}"],
    ["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", "{out}"],
])
def test_exact_commands_do_not_load_numpy(c4_file, tmp_path, command):
    """Nor `dataclasses` or `inspect`, which cost every short job start-up
    time."""
    argv = [arg.format(c4=c4_file, out=tmp_path / "out.hg") for arg in command]
    result = _run_counting_imports(argv)
    assert result.returncode == 0, result.stderr
    expected = {"analyze": "cyclic_index = 2", "conjecture": "equality = true"}
    assert expected.get(command[0], "wrote ") in result.stdout


@pytest.mark.parametrize("values,verdict", [
    ("1\n0\n1\n0\n", "valid"),
    ("1\n1\n1\n1\n", "invalid"),
], ids=["valid", "invalid"])
def test_verify_coloring_does_not_load_numpy(c4_file, tmp_path, values, verdict):
    # the similarity certificate is plain Python; only `rho` needs numpy
    col = tmp_path / "c4.col"
    col.write_text("modulus 2\n" + values)
    result = _run_counting_imports(
        ["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"{verdict}, max_deviation = ")


@pytest.mark.parametrize("kind", ["hypergraph", "coloring"])
def test_invalid_utf8_is_a_parse_error_at_its_line(c4_file, tmp_path, kind, capsys):
    bad = tmp_path / "bad"
    if kind == "hypergraph":
        bad.write_bytes(b"uniform 2\nvertices 2\n1 \xff2\n")
        argv = ["analyze", str(bad)]
    else:
        # a CRLF line ending counts as one line break, as in the parser
        bad.write_bytes(b"modulus 2\r\n1\r\n\xff\n1\n0\n")
        argv = ["verify-coloring", c4_file, "--coloring", str(bad), "--ell", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: line 3: invalid UTF-8 byte 0xff\n"


def test_verify_coloring_bad_file(c4_file, tmp_path, capsys):
    col = tmp_path / "c4.col"
    col.write_text("modulus 2\n1\n7\n1\n1\n")
    assert main(["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]) == 2


def test_verify_coloring_wrong_modulus(c4_file, tmp_path, capsys):
    col = tmp_path / "c4.col"
    col.write_text("modulus 3\n1\n0\n1\n0\n")
    assert main(["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "modulus 3" in err


def test_verify_coloring_wrong_length(c4_file, tmp_path, capsys):
    col = tmp_path / "c4.col"
    col.write_text("modulus 2\n1\n0\n1\n")
    assert main(["verify-coloring", c4_file, "--coloring", str(col), "--ell", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 values for 4 vertices" in err


@pytest.mark.parametrize(
    "command", [["analyze"], ["conjecture", "--s", "2"], ["rho"]]
)
def test_huge_vertex_header_is_disconnected_without_per_vertex_state(
    tmp_path, command, capsys
):
    # one edge cannot connect 10^12 vertices; answering must not cost
    # memory or time in proportion to the header
    target = tmp_path / "huge.hg"
    target.write_text("uniform 2\nvertices 1000000000000\n1 2\n")
    assert main([command[0], str(target), *command[1:]]) == 3
    assert capsys.readouterr().err.startswith("error: ")


# The exit codes README documents, by the nearest class an error derives from.
DOCUMENTED_EXIT_CODES = {
    FileFormatError: 2,
    OSError: 2,
    DisconnectedError: 3,
    HypergraphError: 4,
    ParameterError: 4,
    ModulusMismatchError: 4,
    DimensionMismatchError: 4,
    BudgetExceededError: 5,
    ConvergenceError: 6,
    InternalConsistencyError: 7,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "kind", [*_subclasses(HypersymError), OSError], ids=lambda kind: kind.__name__
)
def test_internal_error_has_its_own_exit_code(kind, c4_file, monkeypatch, capsys):
    # every error class reaches its documented code as one stderr line
    code = next(DOCUMENTED_EXIT_CODES[c] for c in kind.__mro__ if c in DOCUMENTED_EXIT_CODES)
    if kind is ConvergenceError:
        err = kind("it failed", (1.5, 2.0), 10)
    else:
        err = kind("it failed")

    def broken(graph):
        raise err

    monkeypatch.setattr("hypersym.cli.cyclic_index", broken)
    assert main(["analyze", c4_file]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: it failed\n"


def test_power_rejects_a_vertex_in_no_edge(tmp_path, capsys):
    # the power has one block per base vertex: a huge header must be
    # refused before any block is built, and nothing may be written
    target = tmp_path / "huge.hg"
    target.write_text("uniform 2\nvertices 1000000000000\n1 2\n")
    out = tmp_path / "p.hg"
    assert main(["power", str(target), "--s", "2", "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power requires every vertex to lie in an edge\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.hg"]


def test_power_self_check_failure_exits_7_and_writes_nothing(
    c4_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("hypersym.power.verify_coloring", lambda *args: False)
    out = tmp_path / "x.hg"
    assert main(["power", c4_file, "--s", "2", "-o", str(out)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: blow-up lost its order-s witness\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.hg"]


def test_power_companion_write_failure_exits_2_and_writes_nothing(c4_file, tmp_path, capsys):
    # the layout path is a directory: the power file written first is removed
    layout = tmp_path / "p.hg.layout"
    layout.mkdir()
    assert main(["power", c4_file, "--s", "2", "-o", str(tmp_path / "p.hg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(layout)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.hg", "p.hg.layout"]


def test_nikiforov_companion_write_failure_exits_2_and_writes_nothing(tmp_path, capsys):
    coloring = tmp_path / "n.hg.coloring"
    coloring.mkdir()
    out = tmp_path / "n.hg"
    assert main(["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {str(coloring)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.hg.coloring"]


def test_nikiforov_self_check_failure_exits_7_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    count = hypersym.families._edge_count
    monkeypatch.setattr(
        hypersym.families, "_edge_count", lambda params, cap: count(params, cap) + 1
    )
    out = tmp_path / "nik.hg"
    assert main(["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", str(out)]) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family has 420 edges, formula gives 421\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "options", [["--s", "99999999999"], ["--s", "2", "--m", "99999999999"]], ids=["s", "m"]
)
def test_power_over_the_entry_budget_writes_nothing(c4_file, tmp_path, options, capsys):
    # refused from the entry count k*m, before any block is built
    out = tmp_path / "x.hg"
    assert main(["power", c4_file, *options, "-o", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: power has ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.hg"]


# stdout and exit code of each command on the (6,6,4) family and its s=2
# power; the witness colorings pin the span basis's pivot choices
GOLDEN_FAMILY_OUTPUT = [
    ("family", ["analyze"], 0, (
        "uniform 4\n"
        "vertices 16\n"
        "edges 420\n"
        "l = 1: solvable, coloring = 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
        "l = 2: solvable, coloring = 0 0 0 0 0 0 2 2 2 2 2 2 3 3 3 3\n"
        "l = 4: unsolvable\n"
        "cyclic_index = 2\n"
    )),
    ("family", ["conjecture", "--s", "2"], 10, (
        "base_cyclic_index = 2\n"
        "power_cyclic_index = 2\n"
        "product = 4\n"
        "equality = false\n"
        "characterization_solvable = false\n"
        "guaranteed_symmetry = 2\n"
        "c(power) = 2 != 4 = s*c(base): conjecture fails here\n"
    )),
    ("family", ["conjecture", "--s", "3"], 0, (
        "base_cyclic_index = 2\n"
        "power_cyclic_index = 6\n"
        "product = 6\n"
        "equality = true\n"
        "characterization_solvable = true\n"
        "guaranteed_symmetry = 6\n"
        "c(power) = 6 = s*c(base)\n"
    )),
    ("power", ["analyze"], 0, (
        "uniform 8\n"
        "vertices 32\n"
        "edges 420\n"
        "l = 1: solvable, coloring = 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
        "l = 2: solvable, coloring = 0 0 0 0 0 0 0 0 0 0 0 0 0 4 0 4 0 4 0 4 0 4 0 4 0 6 2 4 2 4 2 4\n"
        "l = 4: unsolvable\n"
        "l = 8: unsolvable\n"
        "cyclic_index = 2\n"
    )),
    ("power", ["conjecture", "--s", "2"], 0, (
        "base_cyclic_index = 2\n"
        "power_cyclic_index = 4\n"
        "product = 4\n"
        "equality = true\n"
        "characterization_solvable = true\n"
        "guaranteed_symmetry = 2\n"
        "c(power) = 4 = s*c(base)\n"
    )),
    ("power", ["conjecture", "--s", "3"], 0, (
        "base_cyclic_index = 2\n"
        "power_cyclic_index = 6\n"
        "product = 6\n"
        "equality = true\n"
        "characterization_solvable = true\n"
        "guaranteed_symmetry = 6\n"
        "c(power) = 6 = s*c(base)\n"
    )),
    ("family", ["rho", "--tol", "1e-8"], 0, (
        "rho = 105.574385242343\n"
        "residual = 2.220e-09\n"
        "iterations = 14\n"
    )),
    ("power", ["rho", "--tol", "1e-8"], 0, (
        "rho = 105.574385241719\n"
        "residual = 4.265e-09\n"
        "iterations = 19\n"
    )),
]


@pytest.mark.parametrize(
    "graph,command,code,stdout",
    GOLDEN_FAMILY_OUTPUT,
    ids=[f"{graph}-{'-'.join(command)}" for graph, command, _, _ in GOLDEN_FAMILY_OUTPUT],
)
def test_family_output_is_pinned(tmp_path, capsys, graph, command, code, stdout):
    family = tmp_path / "nik.hg"
    assert main(["nikiforov", "--k", "1", "--sizes", "6,6,4", "-o", str(family)]) == 0
    target = family
    if graph == "power":
        target = tmp_path / "nik2.hg"
        assert main(["power", str(family), "--s", "2", "-o", str(target)]) == 0
    capsys.readouterr()
    assert main([command[0], str(target), *command[1:]]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, "")


def test_memory_error_exits_5_on_one_line(c4_file, monkeypatch, capsys):
    def exhausted(graph):
        raise MemoryError

    monkeypatch.setattr("hypersym.cli.cyclic_index", exhausted)
    assert main(["analyze", c4_file]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_huge_headers_without_edges_are_disconnected(tmp_path, capsys):
    target = tmp_path / "huge.hg"
    target.write_text("uniform 1000000000\nvertices 1000000000\n")
    assert main(["analyze", str(target)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_a_file_with_a_byte_order_mark_reads_as_without(nikiforov_file, tmp_path, capsys):
    marked = tmp_path / "marked.hg"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(nikiforov_file).read_bytes())
    assert main(["analyze", nikiforov_file]) == 0
    plain = capsys.readouterr()
    assert main(["analyze", str(marked)]) == 0
    assert capsys.readouterr() == plain
