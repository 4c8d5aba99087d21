import dataclasses
import json

import pytest

from lhcds import RunStats
from lhcds.cli import main
from helpers import clique_edges


def _write_edges(path, edges):
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.txt"
    _write_edges(p, clique_edges(range(5)))
    return p


def test_k5_json(k5_file, capsys):
    assert main(["--input", str(k5_file), "--h", "4", "--k", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"rank": 1, "vertices": [0, 1, 2, 3, 4], "count": 5,
                     "density": "5/5", "density_decimal": 1.0}]


def test_empty_result(tmp_path, capsys):
    p = tmp_path / "path.txt"
    _write_edges(p, [(0, 1), (1, 2), (2, 3)])
    assert main(["--input", str(p), "--h", "3", "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_two_k4_basic_verify(tmp_path, capsys):
    p = tmp_path / "two.txt"
    edges = clique_edges(range(4)) + clique_edges(range(5, 9)) + [(3, 4), (4, 5)]
    _write_edges(p, edges)
    assert main(["--input", str(p), "--h", "3", "--k", "2",
                 "--verify", "basic"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["density"] for r in rows] == ["4/4", "4/4"]
    assert rows[0]["vertices"] == [0, 1, 2, 3]


def test_tsv_matches_json(k5_file, capsys):
    main(["--input", str(k5_file), "--h", "4", "--k", "1"])
    rows = json.loads(capsys.readouterr().out)
    main(["--input", str(k5_file), "--h", "4", "--k", "1", "--output", "tsv"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "rank\tvertices\tcount\tdensity\tdensity_decimal"
    fields = lines[1].split("\t")
    assert fields == ["1", "0,1,2,3,4", "5", "5/5", "1.0"]
    assert len(lines) == 1 + len(rows)


def test_byte_identical_repetition(k5_file, capsys):
    main(["--input", str(k5_file), "--h", "3", "--k", "2"])
    first = capsys.readouterr().out
    main(["--input", str(k5_file), "--h", "3", "--k", "2"])
    assert capsys.readouterr().out == first


def test_external_ids_preserved(tmp_path, capsys):
    p = tmp_path / "ext.txt"
    _write_edges(p, [(10, 20), (20, 30), (30, 10)])
    main(["--input", str(p), "--h", "3", "--k", "1"])
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["vertices"] == [10, 20, 30]


def test_oracle_flag(tmp_path, capsys):
    p = tmp_path / "tri.txt"
    _write_edges(p, [(0, 1), (1, 2), (2, 0)])
    assert main(["--input", str(p), "--h", "3", "--oracle"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"rank": 1, "vertices": [0, 1, 2], "count": 1,
                     "density": "1/3", "density_decimal": pytest.approx(1 / 3)}]


def test_oracle_size_cap(tmp_path, capsys):
    p = tmp_path / "big.txt"
    _write_edges(p, [(i, i + 1) for i in range(20)])
    assert main(["--input", str(p), "--oracle"]) == 2


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
@pytest.mark.parametrize("flag, message", [("--k", "k must be >= 1"),
                                           ("--iterations",
                                            "iterations must be >= 1")])
def test_zero_k_or_iterations_rejected(k5_file, capsys, oracle, flag,
                                       message):
    # the oracle path takes the same config checks as the pipeline
    assert main(["--input", str(k5_file), flag, "0", *oracle]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_pattern_mode(tmp_path, capsys):
    p = tmp_path / "k4.txt"
    _write_edges(p, clique_edges(range(4)))
    assert main(["--input", str(p), "--pattern", "4loop", "--k", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["density"] == "3/4"


def test_iterations_flag(k5_file, capsys):
    assert main(["--input", str(k5_file), "--h", "3", "--k", "1",
                 "--iterations", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["density"] == "10/5"


def test_missing_file(capsys):
    assert main(["--input", "/nonexistent/file.txt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnope\n")
    assert main(["--input", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_parse_error_exit_on_non_ascii_or_underscored_id(tmp_path, capsys):
    # both would otherwise parse as the id 10 and merge with it
    for bad in ("1_0", "\u0661\u0660"):
        p = tmp_path / "bad.txt"
        p.write_text(f"10 2\n2 3\n3 {bad}\n", encoding="utf-8")
        assert main(["--input", str(p)]) == 2
        assert "line 3: invalid token" in capsys.readouterr().err


def test_stats_on_stderr(k5_file, capsys):
    main(["--input", str(k5_file), "--h", "3", "--k", "1", "--stats"])
    captured = capsys.readouterr()
    payload = json.loads(captured.err.strip().split("\n")[-1])
    assert payload["clique_count"] == 10
    assert payload["rounds"] >= 1
    # a clique query takes its bounds from cores: no weight round runs
    assert payload["fw_updates"] == payload["max_iterations_used"] == 0
    # every K5 vertex lies in 6 triangles: no densest check needs a network
    assert payload["densest_certified"] == payload["densest_checks"] == 1
    # the K5 is the whole graph: its bounds accept it without a network
    assert payload["verify_early_accept"] == payload["verify_calls"] == 1
    assert payload["verify_early_reject"] == payload["verify_flow"] == 0
    assert payload["flow_calls"] == 0
    assert "wall_seconds" in payload
    # every counter the run keeps, with no hand-kept list of keys
    fields = {f.name for f in dataclasses.fields(RunStats)}
    assert fields <= payload.keys()
    assert payload.keys() - fields == {"n", "m", "flow_calls", "wall_seconds"}
    assert payload["verify_disagreements"] == 0


def test_pattern_stats_count_weight_rounds(k5_file, capsys):
    # a pattern query runs the proposal: 20 weight rounds over all 30
    # diamonds of the K5 (3 per edge)
    main(["--input", str(k5_file), "--pattern", "diamond", "--k", "1",
          "--stats"])
    payload = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
    assert payload["clique_count"] == 30
    assert payload["max_iterations_used"] == 20
    assert payload["fw_updates"] == 20 * 30 * payload["rounds"]
