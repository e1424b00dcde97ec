"""End-to-end coverage of the command-line surface via main(argv)."""

import argparse
import hashlib
import io
import json
import os
import re
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
from hpindex.campaigns import CampaignReport, _TrailRecord
from hpindex.cli import _emit_report, main
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


# stdout, stderr and exit code of every graph, campaign and usage path, as
# one sha256 each; the campaign wall clock is masked. Inputs come on stdin,
# so no file path reaches the output.
PIN_INPUTS = {
    "tailed-triangle": "t1 t2\nt2 t3\nt3 t1\nt1 a\n",
    "claw": "c x0\nc x1\nc x2\n",
    "k1": "v a\n",
    "self-loop": "a b\nb b\n",
}


def mask_wall_clock(text):
    text = re.sub(r"wall clock \d+\.\d+s", "wall clock *s", text)
    return re.sub(r'"wall_clock_s": [^,\n]+', '"wall_clock_s": *', text)


@pytest.mark.parametrize("argv, graph, digest", [
    ("parse -", "tailed-triangle",
     "bef1cff1d547984a41ae4c3e25f6414538bfd7a36982370534a964f811a625d1"),
    ("parse - --json", "tailed-triangle",
     "b44a53deb3b6afc0f233768588518e62656b6c8ba3a5bc5cec7465c1b4ac8c6e"),
    ("parse - --dot", "tailed-triangle",
     "8b23fed4b55699a4f4572622802d4a556b3e8a39bae243b5d7a6062764361777"),
    ("parse -", "claw",
     "e69efb4e947a853f05c4867cf6262219019824fefb55b0e6dd6a18e225f3c6e8"),
    ("parse - --json", "claw",
     "59399ebd7039b20ddb947e7c087de10606da90f814599c6b9be431a51f3fa2b8"),
    ("parse - --dot", "claw",
     "62fff4c0df3de8bd8f20cd8114b7462909c41330dc29e92e0d10020214bc94f8"),
    ("parse -", "k1",
     "1ba164844fcbaa3adba4fc00e8c8870b878a429eb09c2b7d34ce9384f3db7ca7"),
    ("parse - --json", "k1",
     "e935a1a67e470d7c286636c3fa71e15fc4323dbf76c48c655ef263da7905f1f5"),
    ("parse - --dot", "k1",
     "11483c4d8acf5b5f8b9a77acad4cec14b1ec10e2e528820ad4795cbe3217a8b8"),
    ("line -", "tailed-triangle",
     "74f1e3be10e0effb86fcbd1ed4bc885221e806c5fd5a8047a377e899f70de2c4"),
    ("line - --json", "tailed-triangle",
     "64af8698da66770b06db674eea400759f9404d9f2d95955a6c3e4b6b33dbb087"),
    ("line - --dot", "tailed-triangle",
     "2acf6ea8039ecb78915de3ea46fd77d8df5d6301350ffef34f5f4397307803a3"),
    ("line -", "claw",
     "8067a5f2e89a3ea2a170e06e5b2646dc8f98ccaf48427b60e919f0c35e4ed4a2"),
    ("line - --json", "claw",
     "bb13aad6c84f864a9d9eee4f821bde71a7d4c722f2b39923c9fa9acafe54a0c2"),
    ("line - --dot", "claw",
     "b9e2d0e2ce7a13a8a8313c9a31b8ad3136baf0311408f149fcf81e5f113b36d9"),
    ("line -", "k1",
     "42bf63d1606faaf2460a296494afef4b1e3c28755f1f8b3eacb727a242b9b65c"),
    ("line - --json", "k1",
     "42bf63d1606faaf2460a296494afef4b1e3c28755f1f8b3eacb727a242b9b65c"),
    ("line - --dot", "k1",
     "42bf63d1606faaf2460a296494afef4b1e3c28755f1f8b3eacb727a242b9b65c"),
    ("iterate -n 0 -", "tailed-triangle",
     "bef1cff1d547984a41ae4c3e25f6414538bfd7a36982370534a964f811a625d1"),
    ("iterate -n 0 - --json", "tailed-triangle",
     "b44a53deb3b6afc0f233768588518e62656b6c8ba3a5bc5cec7465c1b4ac8c6e"),
    ("iterate -n 0 - --dot", "tailed-triangle",
     "8b23fed4b55699a4f4572622802d4a556b3e8a39bae243b5d7a6062764361777"),
    ("iterate -n 0 -", "claw",
     "e69efb4e947a853f05c4867cf6262219019824fefb55b0e6dd6a18e225f3c6e8"),
    ("iterate -n 0 - --json", "claw",
     "59399ebd7039b20ddb947e7c087de10606da90f814599c6b9be431a51f3fa2b8"),
    ("iterate -n 0 - --dot", "claw",
     "62fff4c0df3de8bd8f20cd8114b7462909c41330dc29e92e0d10020214bc94f8"),
    ("iterate -n 0 -", "k1",
     "1ba164844fcbaa3adba4fc00e8c8870b878a429eb09c2b7d34ce9384f3db7ca7"),
    ("iterate -n 0 - --json", "k1",
     "e935a1a67e470d7c286636c3fa71e15fc4323dbf76c48c655ef263da7905f1f5"),
    ("iterate -n 0 - --dot", "k1",
     "11483c4d8acf5b5f8b9a77acad4cec14b1ec10e2e528820ad4795cbe3217a8b8"),
    ("iterate -n 2 -", "tailed-triangle",
     "55b794678b308042ad1c40ca5fa340f2c98bd2cff037a59db610a4219d9018e9"),
    ("iterate -n 2 - --json", "tailed-triangle",
     "db9913c3598b5fb8ebcd6993d4b481db31bf660b20744c4ec0cb1465a0d6f7a3"),
    ("iterate -n 2 - --dot", "tailed-triangle",
     "106da9749c32dd9e3b41529508bff3e6706072737c46e1eaa886bbaf76b7b6f2"),
    ("iterate -n 2 -", "claw",
     "d621e9b6446ffb9dfdb8d92ae76d0c5bdc61698df446fca0fa3e42a6f6890aa7"),
    ("iterate -n 2 - --json", "claw",
     "eeb6e6788858aea7885886657a5cf2b1054fd72056de91dcc20c090592477d4e"),
    ("iterate -n 2 - --dot", "claw",
     "f6046e321d0d3078af57f8ba3163e251c4f09f01a6503cb57da6c25dd2a8ceee"),
    ("iterate -n 2 -", "k1",
     "a682d1273fb59229de08568d87b0f71859ae3b1f3e9fd1186f884358d1d6213c"),
    ("iterate -n 2 - --json", "k1",
     "a682d1273fb59229de08568d87b0f71859ae3b1f3e9fd1186f884358d1d6213c"),
    ("iterate -n 2 - --dot", "k1",
     "a682d1273fb59229de08568d87b0f71859ae3b1f3e9fd1186f884358d1d6213c"),
    ("gen tree -n 9 --seed 4", None,
     "562b8a5ac616f50bd88de3b852da0ed91701d69b1c5ddb47387f61bc989ee558"),
    ("gen tree -n 9 --seed 4 --json", None,
     "ea7da3c02a4b73f288965bebca6a6e969b519f10445bca1c0281efcce85cf76e"),
    ("gen tree -n 9 --seed 4 --dot", None,
     "13dc55cc68e951d9d0a2fd6c7adad7f7359866c7e2ca8357923884e4604171cf"),
    ("enum trees -n 6", None,
     "639d203251220f9a1fe76597a4207fab5552a212b99165c2c3f40f33d173719d"),
    ("enum trees -n 6 --json", None,
     "bac0729a20b0462305855c7a517bd3bb23195102be10ce492338ccfb015732a7"),
    ("enum trees -n 6 --dot", None,
     "a2b56897724599f16d01988be0ea81f86dafbaa590200c75fd8e58ff2b4568f7"),
    ("parse -", "self-loop",
     "156a1f6c4d46bb03cbdc8b406847dda955d83db6e0db99244a6676550eb1a58b"),
    ("iterate -n -1 -", "claw",
     "3040b385455f896eb97f1d409ba89183c6c38a285fc086f972700b2854a8647f"),
    ("iterate -n 3 --max-v 5 -", "tailed-triangle",
     "535147739919232c4223ba91e7d4c42a78c086b3b04d9c871badb3997ce17c7a"),
    ("gen tree -n 1", None,
     "ea2c0b03f3155a54853420758649815bde76ad08f71fabd83a9c17aeeb7bcd2e"),
    ("enum trees -n 15", None,
     "369a0295cf64c7ae90fd3ea4ad36d93c8c89005a514f585aea87877141ba84f1"),
    ("enum trees -n 1", None,
     "2e5be7fb733b0e1d74634aaa37ad283795a33db4f37f8de6696d90f9d7928312"),
    ("verify trees --max-n 7", None,
     "112450ad08475473d321abba3556277fc9a8e840707bf3a897468fb22287d4ee"),
    ("verify xiongzong --max-n 4", None,
     "58ac03a3d509e539c1cf3162bc607cee396b5d69f67516c55b13e231148d8def"),
    ("verify hnw --max-n 4 --json", None,
     "07bec2cd5fbd6c647be274238abc5a7d7e9e1ec03bc8566a26fb1ffcb4d03dfd"),
    ("verify trees --max-n 99", None,
     "82a9ae66415a938c1fcaef393f666137b2751dcf1c2f569a51922f6dc81355bb"),
    ("explore conclusion --max-v 7 --cycles 3,4", None,
     "c06d84554c123b611ae4a2b1040bee1b0e24cc59accbe3bbb800568244eb0c1c"),
    ("explore conclusion --max-v 7 --cycles 3,4 --json", None,
     "9a328d3967bc1e4de9ed9a52e3fdba84d328353c3e4975283b82c20ea3e71a1b"),
    ("explore conclusion --max-v 7 --cycles x", None,
     "f6add4dcb1d44164907fe30d3c8f49a18b7fcaaf8bb555243c6d2980d8af52d9"),
    ("--help", None,
     "06afd04a4283ea118088c7abf994060818c59ca27697dda3eeec1d73a5b7cd93"),
    ("parse --help", None,
     "7f2b034463647703a70b9e3b24cd4e7864d1bac9a80bef05f543ecce51238547"),
    ("line --help", None,
     "570c3f65df3f1341d06fdd4fe03d19b1694668446567ee90ea32623701110f36"),
    ("iterate --help", None,
     "7d8d6de8b9b075ed79a3cc051fbb27aa8c0a06c69f37e5458a75427af22265c2"),
    ("branches --help", None,
     "701fd351923c6608bf03f1f99cd4b36a8e3b4da8c61102a1435b04f3f1fb5971"),
    ("hp --help", None,
     "1c54e53579769ddd6343a9c13f4752b571303f662abe7ff9f86368b07c155a3b"),
    ("hp tree --help", None,
     "08cbf8656f2ece04842d629d6ac8143567532b9a83cbba3fb8cfbafec895074b"),
    ("hp oracle --help", None,
     "8991d06aa8ebbffc8924b0e3928b2e5d3381a4350e13825bba53af0373df48da"),
    ("hp conjecture --help", None,
     "833c6bec209799cad58c5e50ee19d02fb906dbe27f4e3d78fce64ffaa17be3c0"),
    ("h --help", None,
     "3d241c5484883f26380f4b2874508243644ff41a8972128379204d2c93e505b2"),
    ("h oracle --help", None,
     "0bd291718a62a1ff8e41067d44b929c837c17575e9a29fce87a53e88dfdeae3c"),
    ("domtrail --help", None,
     "3e2da95020fae909767389c21b3d43a8d6c9ba7016535d4a56bcaf4cb7e0d3ed"),
    ("verify --help", None,
     "82815da481a659d9bd05107a9fb7754f7583a8a2aee03733cb13b15e6882033c"),
    ("verify trees --help", None,
     "d0030f7ac39c474a50d764fbb0d64473bc07facb5c808d04a3126f1ba6945afd"),
    ("verify xiongzong --help", None,
     "37851cbdaf435c69b7f5d6f4fbb14777f06ca74522a032bb6b8303208a75d738"),
    ("verify hnw --help", None,
     "9ca16811f7bd67975d48a3dc60e0680ca30891174347d22fcc58eb57b9ec0a3a"),
    ("explore --help", None,
     "05f9494a38dd2b153574b1c7d60699b9552236a35ab348982a89e566d99536af"),
    ("explore conclusion --help", None,
     "836910727e27aceecd1cf229304408c81d0c9b203272663b5519b06598ecfbfb"),
    ("gen --help", None,
     "71fa2c29ca179872c6fe023b8bcdf0314b1b2649f3128a3366eee3eb82f622a8"),
    ("gen tree --help", None,
     "6b07bd6190fb42cbe1a6e169311e1b5b1bba2919de67de87c828fae6e04d0bb9"),
    ("enum --help", None,
     "9c9f5ae361f6b81716273abd8845148cd8878335bbb7a21bdd99fbe629bf9110"),
    ("enum trees --help", None,
     "49ee73d6b47d177022cee26fa9734aaedaed506208ad622ecc8ee460b0334d6e"),
])
def test_cli_outputs_are_pinned(monkeypatch, capsys, argv, graph, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    monkeypatch.setattr(sys, "stdin", io.StringIO(PIN_INPUTS.get(graph, "")))
    try:
        code = main(argv.split())
    except SystemExit as exc:  # --help
        code = exc.code
    got = capsys.readouterr()
    blob = f"{code}\0{mask_wall_clock(got.out)}\0{mask_wall_clock(got.err)}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("kind", ["dominating_trail", "dominating_closed_trail"])
def test_text_report_prints_a_trail_witness(capsys, kind):
    witness = _TrailRecord(path_graph(3), "n3.0", kind, False, True).to_json_dict()
    report = CampaignReport("verify-xiongzong", {"max_n": 3}, None, 1,
                            {"agree": 0, "mismatch": 1, "capped": 0},
                            (witness,), 0.0)
    _emit_report(report, argparse.Namespace(json=False))
    out = capsys.readouterr().out
    assert f"witnesses:\n  n3.0: {kind}=False line_graph_ok=True\n" in out


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
