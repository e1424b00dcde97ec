"""End-to-end coverage of the command-line surface via main(argv)."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hpindex
from hpindex import (
    BudgetExceededError,
    CappedError,
    EdgeStarvationError,
    PreconditionError,
    TooLargeError,
    canonical_key,
    complete_graph,
    cycle_graph,
    from_edge_list,
    from_graph6,
    hp_tree,
    path_graph,
    random_tree,
    spider,
    star_graph,
    to_edge_list,
)
from hpindex.cli import main
from hpindex.version import __version__


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(to_edge_list(g))
    return str(path)


# ------------------------------------------------------------------ plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def console_script():
    """The `hpindex` console script declared in pyproject.toml, as the
    command pip's generated wrapper would run, and the environment to run
    it in; needs no install."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "hpindex" in scripts
    module, attr = scripts["hpindex"].split(":")
    wrapper = [
        sys.executable,
        "-c",
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'hpindex'; sys.exit({attr}())",
    ]
    src = str(Path(hpindex.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    return wrapper, env


def test_console_script_is_installed():
    # The script an install would create is checked from its declaration in
    # pyproject.toml, run the way pip's generated wrapper runs it, so the
    # check needs no install; an installed `hpindex` is run as well.
    wrapper, env = console_script()
    commands = [wrapper]
    if shutil.which("hpindex"):
        commands.append(["hpindex"])
    for command in commands:
        proc = subprocess.run(
            command + ["--version"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == __version__

    # main's return value must become the exit code: a cycle is not a tree.
    proc = subprocess.run(
        wrapper + ["hp", "tree", "-"],
        input="a b\nb c\nc a\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_closed_form_reaches_a_20000_vertex_tree():
    # gen tree piped into hp tree, both through the console script
    wrapper, env = console_script()
    gen = subprocess.Popen(wrapper + ["gen", "tree", "-n", "20000",
                                      "--seed", "1"],
                           stdout=subprocess.PIPE, env=env)
    proc = subprocess.run(wrapper + ["hp", "tree", "--json", "-"],
                          stdin=gen.stdout, capture_output=True, text=True,
                          env=env)
    gen.stdout.close()
    assert gen.wait(timeout=60) == 0
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    t = random_tree(20000, 1)
    assert out["value"] == hp_tree(t).value
    walk = [t.index(v) for v in out["endpath"]]
    assert [t.degree(v) for v in (walk[0], walk[-1])] == [1, 1]
    assert all(b in t.adj[a] for a, b in zip(walk, walk[1:]))


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_option_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--bogus", write_graph(tmp_path, path_graph(3))])
    assert exc.value.code == 2


def test_json_and_dot_are_exclusive(tmp_path):
    f = write_graph(tmp_path, path_graph(3))
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--json", "--dot", f])
    assert exc.value.code == 2


# --------------------------------------------------------------------- parse


def test_parse_reserializes(tmp_path, capsys):
    assert main(["parse", write_graph(tmp_path, path_graph(4))]) == 0
    assert capsys.readouterr().out == "p0 p1\np1 p2\np2 p3\n"


def test_parse_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("b a\n"))
    assert main(["parse", "-"]) == 0
    assert capsys.readouterr().out == "a b\n"


def test_parse_graph6_input(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("Ch\n")
    assert main(["parse", "--format", "graph6", str(f)]) == 0
    out = capsys.readouterr().out
    assert canonical_key(from_edge_list(out)) == canonical_key(path_graph(4))


def test_parse_json_shape(tmp_path, capsys):
    assert main(["parse", "--json", write_graph(tmp_path, star_graph(3))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex_count"] == 4
    assert payload["edge_count"] == 3
    assert ["c", "x0"] in payload["edges"]


def test_parse_dot(tmp_path, capsys):
    assert main(["parse", "--dot", write_graph(tmp_path, path_graph(2))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert '"p0" -- "p1"' in out


def test_parse_self_loop_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("a a\n")
    assert main(["parse", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_2(capsys):
    assert main(["parse", "/no/such/file.txt"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------- transformations


def test_line_of_path(tmp_path, capsys):
    assert main(["line", write_graph(tmp_path, path_graph(4))]) == 0
    out = capsys.readouterr().out
    assert canonical_key(from_edge_list(out)) == canonical_key(path_graph(3))


def test_iterate_claw_twice_gives_triangle(tmp_path, capsys):
    assert main(["iterate", "-n", "2", write_graph(tmp_path, star_graph(3))]) == 0
    out = capsys.readouterr().out
    assert canonical_key(from_edge_list(out)) == canonical_key(cycle_graph(3))


def test_iterate_zero_is_identity(tmp_path, capsys):
    f = write_graph(tmp_path, spider(2, 2, 2))
    assert main(["iterate", "-n", "0", f]) == 0
    assert capsys.readouterr().out == to_edge_list(spider(2, 2, 2))


def test_iterate_negative_exits_2(tmp_path, capsys):
    assert main(["iterate", "-n", "-1", write_graph(tmp_path, path_graph(3))]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_iterate_budget_exits_1(tmp_path, capsys):
    f = write_graph(tmp_path, spider(2, 2, 2))
    assert main(["iterate", "-n", "4", "--max-v", "12", f]) == 1
    assert capsys.readouterr().err.startswith("capped:")


def test_iterate_starves_exits_2(tmp_path, capsys):
    assert main(["iterate", "-n", "3", write_graph(tmp_path, path_graph(3))]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_branches_text(tmp_path, capsys):
    assert main(["branches", write_graph(tmp_path, spider(2, 2, 2))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        assert "edges=2" in line
        assert "bridge k=2" in line
        assert "pendant" in line


def test_branches_json(tmp_path, capsys):
    assert main(["branches", "--json", write_graph(tmp_path, path_graph(4))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{
        "vertices": ["p0", "p1", "p2", "p3"],
        "edge_count": 3,
        "is_bridge_branch": True,
        "is_pendant_branch": True,
        "absorption_time": 3,
    }]


# --------------------------------------------------------------- index values

TRIANGLE_WITH_TAILS = "t1 t2\nt2 t3\nt3 t1\nt1 a\na b\n"


# stdout and exit code of every index query, text and --json; the JSON
# payloads are pinned by the sha256 of their bytes
@pytest.mark.parametrize("argv, graph, code, out", [
    (["hp", "tree"], spider(2, 2, 2), 0, "2\n"),
    (["hp", "tree", "--json"], spider(2, 2, 2), 0,
     "1d4907a5bf0268ae1ba023083f063d9c4a9e812fef2fe0381d6ebea32831392e"),
    (["hp", "oracle"], spider(1, 1, 2), 0, "1\n"),
    (["hp", "oracle", "--json"], spider(1, 1, 2), 0,
     "0ac4e68262df410c5dd157f0bbdda4b6a4d7863927d2a79b74a9bb39c373cb53"),
    (["hp", "conjecture"], TRIANGLE_WITH_TAILS, 0, "0\n"),
    (["hp", "conjecture", "--json"], TRIANGLE_WITH_TAILS, 0,
     "e73f6d18933b78cb7b8bf40c6d1efb0abc0814116b99ad29e01d713061b16905"),
    (["hp", "oracle"], path_graph(50), 1, "capped\n"),
    (["hp", "oracle", "--json"], path_graph(50), 1,
     "b8cfd5bfc6ab1bea18b0249af3f2f5888551ed8db6f9d3181515c15b6f717153"),
    (["h", "oracle"], spider(1, 1, 2), 0, "2\n"),
    (["h", "oracle", "--json"], spider(1, 1, 2), 0,
     "3fd942a66a41fd91905a58b31df3d21d4548864f8323047833d88d845bfa7d72"),
])
def test_index_query_outputs_are_pinned(tmp_path, capsys, argv, graph, code, out):
    path = tmp_path / "g.txt"
    path.write_text(graph if isinstance(graph, str) else to_edge_list(graph))
    assert main(argv + [str(path)]) == code
    got = capsys.readouterr()
    assert got.err == ""
    if "--json" in argv:
        assert hashlib.sha256(got.out.encode()).hexdigest() == out
    else:
        assert got.out == out


def test_hp_tree_values(tmp_path, capsys):
    assert main(["hp", "tree", write_graph(tmp_path, path_graph(7))]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["hp", "tree", write_graph(tmp_path, spider(2, 2, 2))]) == 0
    assert capsys.readouterr().out == "2\n"


def test_hp_tree_json_fields(tmp_path, capsys):
    assert main(["hp", "tree", "--json", write_graph(tmp_path, star_graph(3))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 1
    assert not payload["conjectural"]
    assert {"endpath", "off_path_branch", "per_pair"} <= set(payload)


def test_hp_tree_rejects_cycles(tmp_path, capsys):
    assert main(["hp", "tree", write_graph(tmp_path, cycle_graph(4))]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_hp_oracle_value(tmp_path, capsys):
    assert main(["hp", "oracle", write_graph(tmp_path, star_graph(3))]) == 0
    assert capsys.readouterr().out == "1\n"


def test_hp_oracle_caps_on_long_path(tmp_path, capsys):
    assert main(["hp", "oracle", write_graph(tmp_path, path_graph(50))]) == 1
    assert capsys.readouterr().out == "capped\n"


def test_hp_conjecture_triangle_tail(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("t1 t2\nt2 t3\nt3 t1\nt1 a\na b\n")
    assert main(["hp", "conjecture", str(f)]) == 0
    assert capsys.readouterr().out == "0\n"


def test_hp_conjecture_precondition_exits_2(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("a1 b1\na1 b2\na1 b3\na2 b1\na2 b2\na2 b3\n")
    assert main(["hp", "conjecture", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_h_oracle_values(tmp_path, capsys):
    assert main(["h", "oracle", write_graph(tmp_path, cycle_graph(5))]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["h", "oracle", write_graph(tmp_path, star_graph(3))]) == 0
    assert capsys.readouterr().out == "1\n"


def test_h_oracle_rejects_paths(tmp_path, capsys):
    assert main(["h", "oracle", write_graph(tmp_path, path_graph(4))]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_h_oracle_json(tmp_path, capsys):
    assert main(["h", "oracle", "--json", write_graph(tmp_path, complete_graph(4))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0
    assert payload["stages"][0]["verdict"] == "hamiltonian"


# ----------------------------------------------------------------- domtrail


def test_domtrail_yes(tmp_path, capsys):
    assert main(["domtrail", write_graph(tmp_path, star_graph(3))]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes: ")
    assert "c" in out.split()


def test_domtrail_no(tmp_path, capsys):
    assert main(["domtrail", write_graph(tmp_path, spider(2, 2, 2))]) == 0
    assert capsys.readouterr().out == "no\n"


def test_domtrail_closed(tmp_path, capsys):
    assert main(["domtrail", "--closed", write_graph(tmp_path, cycle_graph(5))]) == 0
    assert capsys.readouterr().out.startswith("yes: ")
    assert main(["domtrail", "--closed", write_graph(tmp_path, path_graph(4))]) == 0
    assert capsys.readouterr().out == "no\n"


def test_domtrail_json(tmp_path, capsys):
    assert main(["domtrail", "--json", write_graph(tmp_path, path_graph(4))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exists"] is True
    assert payload["closed"] is False
    assert len(payload["witness"]) >= 2


# ---------------------------------------------------------------- campaigns


def test_verify_trees_text(tmp_path, capsys):
    assert main(["verify", "trees", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "campaign verify-trees" in out
    assert "instances 5" in out
    assert "mismatch 0" in out
    assert "wall clock" in out


def test_verify_xiongzong_json(capsys):
    assert main(["verify", "xiongzong", "--max-n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["campaign"] == "verify-xiongzong"
    assert payload["instances"] == 5
    assert payload["counts"]["mismatch"] == 0
    assert payload["witnesses"] == []


def test_verify_hnw_json(capsys):
    assert main(["verify", "hnw", "--max-n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == 1
    assert payload["counts"]["mismatch"] == 0


def test_verify_bad_max_n_exits_2(capsys):
    assert main(["verify", "trees", "--max-n", "99"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_explore_json(capsys):
    assert main(["explore", "conclusion", "--max-v", "5", "--cycles", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["campaign"] == "explore-conclusion"
    assert payload["parameters"]["cycle_sizes"] == [3]
    assert payload["seed"] == 0
    assert payload["counts"]["mismatch"] >= 1
    assert payload["witnesses"]


def test_explore_text_lists_witnesses(capsys):
    assert main(["explore", "conclusion", "--max-v", "5", "--cycles", "3"]) == 0
    out = capsys.readouterr().out
    assert "witnesses:" in out
    assert "formula=0 oracle=1" in out


def test_explore_has_no_seed_option():
    # the explorer always walks the enumerated base trees, so a seed would
    # change nothing but the report's seed field
    with pytest.raises(SystemExit) as exc:
        main(["explore", "conclusion", "--max-v", "5", "--cycles", "3",
              "--seed", "1"])
    assert exc.value.code == 2


def test_explore_bad_cycles_exits_2(capsys):
    assert main(["explore", "conclusion", "--max-v", "5", "--cycles", "3,x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --------------------------------------------------------------- generators


def test_gen_tree_deterministic(capsys):
    assert main(["gen", "tree", "-n", "9", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "tree", "-n", "9", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first
    g = from_edge_list(first)
    assert g.n == 9 and g.m == 8


def test_gen_tree_tiny_exits_2(capsys):
    assert main(["gen", "tree", "-n", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_enum_trees_graph6_lines(capsys):
    assert main(["enum", "trees", "-n", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    keys = {canonical_key(from_graph6(line)) for line in lines}
    assert len(keys) == 3
    for line in lines:
        assert from_graph6(line).n == 5


def test_enum_trees_json(capsys):
    assert main(["enum", "trees", "-n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex_count"] == 3
    assert payload["edge_count"] == 2


def test_enum_trees_dot(capsys):
    assert main(["enum", "trees", "-n", "3", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph T0 {")


def test_enum_trees_bad_n_exits_2(capsys):
    assert main(["enum", "trees", "-n", "0"]) == 2
    capsys.readouterr()
    assert main(["enum", "trees", "-n", "15"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_capped_error_family():
    # main() maps each family to one exit code: CappedError 1, PreconditionError 2
    assert issubclass(TooLargeError, CappedError)
    assert issubclass(BudgetExceededError, CappedError)
    assert issubclass(EdgeStarvationError, PreconditionError)
