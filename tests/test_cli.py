from __future__ import annotations

import time

from corona_packing import cli
from corona_packing.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_and_pcn(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "path-corona", "4", "1")
    assert code == 0 and out.startswith("g 8 7 undirected")
    graph = tmp_path / "g.txt"
    graph.write_text(out)
    code, out, _ = run(capsys, "pcn", str(graph))
    assert code == 0 and out.splitlines()[0] == "pcn=4"


def test_gen_oriented_directed_cycle(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5", "--oriented", "--dirs", "01000")
    assert code == 0 and "oriented" in out
    graph = tmp_path / "c5.txt"
    graph.write_text(out)
    code, out, _ = run(capsys, "pcn", str(graph))
    assert code == 0 and out.splitlines()[0] == "pcn=4"


def test_gen_bad_dirs(capsys):
    code, _, err = run(capsys, "gen", "cycle", "5", "--oriented", "--dirs", "01")
    assert code == 2 and "error" in err


def test_color_check_roundtrip(tmp_path, capsys):
    code, graph_text, _ = run(capsys, "gen", "cycle-corona", "23", "3")
    graph = tmp_path / "g.txt"
    graph.write_text(graph_text)
    code, coloring_text, _ = run(capsys, "color", "cycle-corona", "23", "3")
    assert code == 0
    coloring = tmp_path / "c.txt"
    coloring.write_text(coloring_text)
    code, out, _ = run(capsys, "check", str(graph), str(coloring))
    assert code == 0 and "valid" in out


def test_check_invalid_reports_pair(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 undirected\ne 0 1\n")
    coloring = tmp_path / "c.txt"
    coloring.write_text("v 0 3\nv 1 3\n")
    code, out, _ = run(capsys, "check", str(graph), str(coloring))
    assert code == 1 and "distance 1" in out


def test_check_partial_coloring_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("g 2 1 undirected\ne 0 1\n")
    coloring = tmp_path / "c.txt"
    coloring.write_text("v 0 1\n")
    code, _, err = run(capsys, "check", str(graph), str(coloring))
    assert code == 2 and "error" in err


def test_color_oriented_families(capsys):
    code, out, _ = run(
        capsys, "color", "path-corona", "4", "2", "--oriented",
        "--dirs", "0" * 11,
    )
    assert code == 0 and out.count("\n") == 12
    code, out, _ = run(
        capsys, "color", "cycle", "8", "--oriented", "--dirs", "01000000"
    )
    assert code == 0


def test_color_tree(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "path", "7", "--oriented", "--dirs", "010101")
    tree = tmp_path / "t.txt"
    tree.write_text(out)
    code, out, _ = run(capsys, "color", "tree", "--oriented", "--input", str(tree))
    assert code == 0
    colors = [int(line.split()[2]) for line in out.strip().splitlines()]
    assert max(colors) <= 3


def test_pattern_modes(capsys):
    code, out, _ = run(capsys, "pattern", "validate", "[23425324678]", "-p", "4")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "pattern", "validate", "[2]", "-p", "1")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(
        capsys, "pattern", "compatible", "[23425367]", "2342532467", "-p", "4"
    )
    assert code == 0 and out.strip() == "true"
    code, _, err = run(capsys, "pattern", "validate", "1(2", "-p", "1")
    assert code == 2


def test_export_dot(tmp_path, capsys):
    code, graph_text, _ = run(capsys, "gen", "path-corona", "3", "1")
    graph = tmp_path / "g.txt"
    graph.write_text(graph_text)
    code, out, _ = run(capsys, "export-dot", str(graph))
    assert code == 0 and out.count("[label=") == 6


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "plain", "--max-n", "8")
    assert code == 0
    assert "suite plain" in out and "0 failed" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_pcn_budget_indeterminate(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "path-corona", "8", "2")
    graph = tmp_path / "g.txt"
    graph.write_text(out)
    code, out, _ = run(capsys, "pcn", str(graph), "--node-limit", "2")
    assert code == 3 and "INDETERMINATE" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "pcn", str(bad))
    assert code == 2


def test_pcn_budget_values(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "cycle-corona", "11", "3")
    graph = tmp_path / "g.txt"
    graph.write_text(out)
    start = time.perf_counter()
    code, out, _ = run(capsys, "pcn", str(graph), "--time-limit", "0")
    assert code == 3 and "INDETERMINATE" in out
    assert time.perf_counter() - start < 1  # no search ran: pcn=7 takes seconds
    for flag in ("--time-limit", "--node-limit"):
        code, out, err = run(capsys, "pcn", str(graph), flag, "-1")
        assert code == 2 and out == "" and "must be >= 0" in err


def test_oversized_graph_rejected_before_distances(tmp_path, capsys, monkeypatch):
    def no_matrix(graph):
        raise AssertionError("distance matrix built for an oversized graph")

    monkeypatch.setattr(cli, "distances", no_matrix)
    monkeypatch.setattr(cli, "weak_directed_distances", no_matrix)
    big = tmp_path / "big.txt"
    big.write_text("g 100000000 0 undirected\n")
    coloring = tmp_path / "c.txt"
    coloring.write_text("v 0 1\n")
    for argv in (("pcn", big), ("check", big, coloring), ("export-dot", big)):
        start = time.perf_counter()
        code, out, err = run(capsys, *map(str, argv))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "100000000 vertices" in err
