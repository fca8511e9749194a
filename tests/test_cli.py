import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import embedding_to_dict, induced_subgraph, root_split_text

import mfembed
import mfembed.embedder as embedder
from mfembed import cli, graphs, harness
from mfembed.cli import main
from mfembed.embedder import derive_params, embed_top
from mfembed.errors import DisconnectedGraph
from mfembed.generators import generate
from mfembed.graphio import load_graph, save_graph
from mfembed.graphs import WeightedGraph, connected_components
from mfembed.rng import derive_seed


README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def readme_cli_flags():
    """(subcommand, flag) pairs that README's CLI section names: the long
    flags of every `mfembed` line of its sh block, with continuation lines
    joined, and those of its "`embed` accepts" sentence."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    pairs = []
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["mfembed"]:
            pairs += [(words[1], flag) for flag in re.findall(r"--[\w-]+", line)]
    sentence = re.search(r"`embed` accepts (.*?)\.", section, re.DOTALL).group(1)
    pairs += [("embed", flag) for flag in re.findall(r"--[\w-]+", sentence)]
    return pairs


def test_readme_cli_flags_are_options_of_their_subcommand():
    # a flag removed from the parser must not linger in the docs
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    pairs = readme_cli_flags()
    assert ("embed", "--xi-cap") in pairs and ("experiment", "--baseline") in pairs
    unknown = [
        (command, flag)
        for command, flag in pairs
        if flag not in subcommands.choices[command]._option_string_actions
    ]
    assert unknown == []


def test_gen_and_embed_and_eval(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    emb = tmp_path / "emb.json"
    report = tmp_path / "report.json"
    csvfile = tmp_path / "report.csv"

    assert run("gen", "grid", "--rows", 3, "--cols", 3, "--seed", 1, "-o", graph) == 0
    assert load_graph(graph).n == 9

    assert run("embed", "-i", graph, "--epsilon", 0.5, "--seed", 7, "-o", emb) == 0
    blob = json.loads(emb.read_text())
    assert blob["n"] == 9 and blob["fallback_used"] is False

    assert run("eval", "-i", graph, "-e", emb, "--pairs", "all", "-o", report, "--csv", csvfile) == 0
    rep = json.loads(report.read_text())
    assert rep["distortion"]["violations"] == 0
    assert len(csvfile.read_text().splitlines()) == 1 + 36


def test_embed_deterministic_bytes(tmp_path):
    graph = tmp_path / "g.txt"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("gen", "grid", "--rows", 4, "--cols", 4, "-o", graph)
    assert run("embed", "-i", graph, "--seed", 3, "-o", a) == 0
    assert run("embed", "-i", graph, "--seed", 3, "-o", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_frt_subcommand(tmp_path):
    graph = tmp_path / "g.txt"
    emb = tmp_path / "frt.json"
    run("gen", "cycle", "--n", 8, "-o", graph)
    assert run("frt", "-i", graph, "--seed", 2, "-o", emb) == 0
    blob = json.loads(emb.read_text())
    assert blob["mode"] == "frt" and blob["params"] is None


def test_experiment_subcommand(tmp_path):
    graph = tmp_path / "g.txt"
    report = tmp_path / "rep.json"
    run("gen", "star", "--n", 6, "-o", graph)
    code = run(
        "experiment", "-i", graph, "--runs", 3, "--pairs", 5, "--seed", 11,
        "--baseline", "frt", "-o", report,
    )
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["config"]["runs"] == 3
    assert rep["baseline"] is not None


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 2 1\ne 0 1 0\n")
    out = tmp_path / "emb.json"
    assert run("embed", "-i", bad, "-o", out) == 2
    assert run("embed", "-i", tmp_path / "missing.txt", "-o", out) == 2
    # the empty graph has no component, and embed refuses it
    empty = tmp_path / "empty.txt"
    empty.write_text("p 0 0\n")
    assert run("embed", "-i", empty, "-o", out) == 2
    assert not out.exists()


@pytest.mark.parametrize("length", ["nan", "inf", "-1"])
def test_length_that_is_not_positive_and_finite_names_its_line(tmp_path, capsys, length):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"# one edge\np 2 1\ne 0 1 {length}\n")
    capsys.readouterr()
    assert run("embed", "-i", bad, "-o", tmp_path / "emb.json") == 2
    err = capsys.readouterr().err
    assert "line 3:" in err and "must be positive and finite" in err


@pytest.mark.parametrize("command,message", [(("frt",), "error: ")], ids=["frt"])
def test_header_with_millions_of_vertices_and_no_edges_is_refused(
    tmp_path, capsys, command, message
):
    # twelve bytes that name five million vertices: connectivity is refused
    # from the edge count, before any per-vertex list is built
    wide = tmp_path / "wide.txt"
    wide.write_text("p 5000000 0\n")
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run(command[0], "-i", wide, *command[1:], "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    graph = tmp_path / "cycle.txt"
    run("gen", "cycle", "--n", 64, "-o", graph)
    src = str(Path(mfembed.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["embed", "-i", str(graph), "--seed", "1", "-o", str(tmp_path / "emb.json")]
    with subprocess.Popen(
        [sys.executable, "-m", "mfembed.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()  # the reader is gone before the one line
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_gen_bad_size_exit_code(tmp_path):
    assert run("gen", "cycle", "--n", 2, "-o", tmp_path / "x.txt") == 2


def test_disconnected_embed_emits_components(tmp_path):
    graph = tmp_path / "two.txt"
    g = WeightedGraph(4, ((0, 1, 1.5), (2, 3, 2.0)))
    save_graph(g, graph)
    emb = tmp_path / "emb.json"
    assert run("embed", "-i", graph, "-o", emb) == 0
    blocks = json.loads(emb.read_text())
    assert isinstance(blocks, list) and len(blocks) == 2
    assert blocks[0]["vertices"] == [0, 1]
    expected = []
    for k, comp in enumerate(connected_components(g)):
        sub, verts = induced_subgraph(g, comp)
        block = embedding_to_dict(embed_top(sub, 0.5, seed=derive_seed(0, "component", k)))
        block["vertices"] = verts
        expected.append(block)
    assert emb.read_text() == json.dumps(expected, indent=1) + "\n"


def test_embed_walks_a_connected_input_once_and_a_disconnected_one_twice(
    tmp_path, capsys, monkeypatch
):
    # Unmasked `connected_components` calls on the loaded graph, through
    # the library's binding and the command's: `embed_top`'s gate alone on
    # a connected input; on a disconnected one with enough edges to be
    # walked, the refused gate and then the command's split.
    loaded, walks = [], []
    real_load, real_components = cli._load, graphs.connected_components

    def load(*args):
        loaded.append(real_load(*args))
        return loaded[-1]

    def counted(graph, allowed=None):
        if graph is loaded[-1] and allowed is None:
            walks.append(graph)
        return real_components(graph, allowed)

    monkeypatch.setattr(cli, "_load", load)
    monkeypatch.setattr(graphs, "connected_components", counted)
    monkeypatch.setattr(cli, "connected_components", counted)
    grid, triangles = tmp_path / "grid.txt", tmp_path / "triangles.txt"
    save_graph(generate("grid", rows=6, cols=6), grid)
    edges = [(u + k, v + k, 1.0) for k in (0, 3) for u, v in ((0, 1), (1, 2), (0, 2))]
    save_graph(WeightedGraph(6, edges), triangles)
    for graph, count in ((grid, 1), (triangles, 2)):
        walks.clear()
        assert run("embed", "-i", graph, "-o", tmp_path / "emb.json") == 0
        assert len(walks) == count
    # a refusal of a graph of one component is not split into components
    real_embed = cli.embed_top

    def refused(graph, *args, **kwargs):
        if graph is loaded[-1]:
            raise DisconnectedGraph("refused")
        return real_embed(graph, *args, **kwargs)

    monkeypatch.setattr(cli, "embed_top", refused)
    (tmp_path / "emb.json").unlink()
    capsys.readouterr()
    assert run("embed", "-i", grid, "-o", tmp_path / "emb.json") == 2
    assert capsys.readouterr().err == "error: refused\n"
    assert not (tmp_path / "emb.json").exists()


def test_eval_rejects_component_array_as_input_error(tmp_path, capsys):
    graph = tmp_path / "two.txt"
    save_graph(WeightedGraph(4, ((0, 1, 1.5), (2, 3, 2.0))), graph)
    emb = tmp_path / "emb.json"
    assert run("embed", "-i", graph, "-o", emb) == 0
    capsys.readouterr()
    assert run("eval", "-i", graph, "-e", emb, "-o", tmp_path / "rep.json") == 2
    assert "input error:" in capsys.readouterr().err


def test_eval_rejects_embedding_missing_fields(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run("gen", "path", "--n", 2, "-o", graph)
    emb = tmp_path / "emb.json"
    emb.write_text('{"n": 2}')
    capsys.readouterr()
    assert run("eval", "-i", graph, "-e", emb, "-o", tmp_path / "rep.json") == 2
    assert "input error:" in capsys.readouterr().err


def test_eval_rejects_disconnected_graph(tmp_path, capsys):
    path4 = tmp_path / "path4.txt"
    run("gen", "path", "--n", 4, "-o", path4)
    emb = tmp_path / "emb.json"
    assert run("embed", "-i", path4, "-o", emb) == 0
    split = tmp_path / "split.txt"
    save_graph(WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))), split)
    report = tmp_path / "rep.json"
    capsys.readouterr()
    assert run("eval", "-i", split, "-e", emb, "-o", report) == 2
    assert "input error:" in capsys.readouterr().err
    assert not report.exists()


def _eval_with_forest(tmp_path, capsys, change):
    """Exit code and standard error of `eval` on a 4x4 grid embedding whose
    forest_parent array was edited by `change`; no report may be written."""
    return _eval_with_edited_embedding(tmp_path, capsys, lambda blob: change(blob["forest_parent"]))


def _eval_with_edited_embedding(tmp_path, capsys, change):
    """As `_eval_with_forest`, with `change` editing the whole embedding object."""
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 4, "--cols", 4, "-o", graph)
    emb = tmp_path / "emb.json"
    assert run("embed", "-i", graph, "--seed", 1, "-o", emb) == 0
    blob = json.loads(emb.read_text())
    change(blob)
    emb.write_text(json.dumps(blob))
    report = tmp_path / "rep.json"
    capsys.readouterr()
    code = run("eval", "-i", graph, "-e", emb, "--pairs", "all", "-o", report)
    assert not report.exists()
    return code, capsys.readouterr().err


def test_eval_rejects_forest_parent_outside_host(tmp_path, capsys):
    def out_of_range(parent):
        parent[3] = len(parent)

    code, err = _eval_with_forest(tmp_path, capsys, out_of_range)
    assert code == 2 and "input error:" in err and "forest_parent" in err


def _float_host_n(blob):
    blob["host"]["n"] = float(blob["host"]["n"])


def _float_endpoint(blob):
    blob["host"]["edges"][0][0] = float(blob["host"]["edges"][0][0])


def _bool_in_eta(blob):
    blob["eta"][1] = True


def _float_in_forest(blob):
    parent = blob["forest_parent"]
    parent[0] = float(parent[0])


def _bool_length(blob):
    blob["host"]["edges"][0][2] = True


@pytest.mark.parametrize(
    "change", [_float_host_n, _float_endpoint, _bool_in_eta, _float_in_forest, _bool_length]
)
def test_eval_rejects_ids_that_are_not_integers(tmp_path, capsys, change):
    code, err = _eval_with_edited_embedding(tmp_path, capsys, change)
    assert code == 2 and "input error:" in err


def _negative_length(blob):
    blob["host"]["edges"][0][2] = -1.0


def _nan_length(blob):
    blob["host"]["edges"][0][2] = float("nan")


def _self_loop(blob):
    edge = blob["host"]["edges"][0]
    edge[1] = edge[0]


def _duplicate_pair(blob):
    u, v, w = blob["host"]["edges"][0]
    blob["host"]["edges"].append([v, u, w])


def _endpoint_past_host(blob):
    blob["host"]["edges"][0][1] = blob["host"]["n"]


@pytest.mark.parametrize(
    "change", [_negative_length, _nan_length, _self_loop, _duplicate_pair, _endpoint_past_host]
)
def test_eval_rejects_host_edges_that_do_not_form_a_graph(tmp_path, capsys, change):
    code, err = _eval_with_edited_embedding(tmp_path, capsys, change)
    assert code == 2 and "input error:" in err


def test_eval_rejects_cyclic_forest(tmp_path, capsys):
    def self_parent(parent):
        parent[0] = 0

    code, err = _eval_with_forest(tmp_path, capsys, self_parent)
    assert code == 2 and "cycle" in err


def test_eval_rejects_host_edge_between_unrelated_forest_vertices(tmp_path, capsys):
    def all_roots(parent):
        parent[:] = [None] * len(parent)

    code, err = _eval_with_forest(tmp_path, capsys, all_roots)
    assert code == 1 and "invariant violation:" in err and "unrelated" in err


def test_eval_checks_the_forest_before_any_graph_search(tmp_path, capsys, monkeypatch):
    # A cyclic forest_parent and a host edge between unrelated forest
    # vertices are refused by the forest check alone: the graph is never
    # searched for a pair. An unedited embedding does search it.
    searches = []
    real = harness.search_to

    def counted(*args):
        searches.append(args[1])
        return real(*args)

    monkeypatch.setattr(harness, "search_to", counted)

    def self_parent(parent):
        parent[0] = 0

    def all_roots(parent):
        parent[:] = [None] * len(parent)

    assert _eval_with_forest(tmp_path, capsys, self_parent)[0] == 2
    assert _eval_with_forest(tmp_path, capsys, all_roots)[0] == 1
    assert searches == []
    graph, emb = tmp_path / "g.txt", tmp_path / "emb.json"
    run("embed", "-i", graph, "--seed", 1, "-o", emb)
    assert run("eval", "-i", graph, "-e", emb, "--pairs", "all", "-o", tmp_path / "ok.json") == 0
    assert searches == list(range(15))


def _split_lines(out, prefix):
    """The values of every `prefix=` field in a root split's text."""
    return [part[len(prefix) :] for part in out.split() if part.startswith(prefix)]


def test_debug_subcommands(tmp_path, monkeypatch):
    # The debug commands are retired; the root split that `mfembed split`
    # printed is read from the library (`prepare` plus one `split`) as
    # `oracles.root_split_text`, here on a graph that `gen` wrote. The
    # command's refusal is `test_removed_debug_commands_and_options_are_refused`.
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 3, "--cols", 3, "-o", graph)
    g = load_graph(graph)
    out = root_split_text(g, seed=1)
    assert "level 0" in out and "packing size=" in out
    assert out.splitlines()[-1].startswith("sampled cut=")
    margins = [int(m) for m in _split_lines(out, "balance_margin=")]
    assert margins and min(margins) >= 0

    # `oversize` marks a cut with more than tau members; a cut of exactly
    # tau members is not oversize
    sizes = [int(m) for m in _split_lines(out, "members=")]
    derived = embedder.prepare(g, 0.5).params.tau
    assert _split_lines(out, "oversize=") == [str(size > derived) for size in sizes]
    for tau in sorted({t for size in sizes for t in (size - 1, size)}):
        def with_tau(*args, tau=tau, **kwargs):
            return dataclasses.replace(derive_params(*args, **kwargs), tau=tau)

        monkeypatch.setattr(embedder, "derive_params", with_tau)
        flags = _split_lines(root_split_text(g, seed=1), "oversize=")
        assert flags == [str(size > tau) for size in sizes]


def test_eval_refuses_a_host_that_leaves_a_pair_in_two_trees(tmp_path, capsys):
    # two host roots and no host edge: the host distance of (0, 1) is
    # infinite, which no report may hold (strict JSON has no Infinity)
    graph = tmp_path / "g.txt"
    graph.write_text("p 2 1\ne 0 1 1.0\n")
    emb = tmp_path / "emb.json"
    emb.write_text(
        json.dumps(
            {
                "n": 2,
                "seed": 0,
                "mode": "practical",
                "params": None,
                "fallback_used": False,
                "host": {"n": 2, "edges": []},
                "eta": [0, 1],
                "forest_parent": [None, None],
                "depth": 1,
            }
        )
    )
    report, table = tmp_path / "rep.json", tmp_path / "rep.csv"
    capsys.readouterr()
    assert run("eval", "-i", graph, "-e", emb, "-o", report, "--csv", table) == 1
    captured = capsys.readouterr()
    assert "invariant violation: the host does not connect pair (0,1)" in captured.err
    assert captured.out == ""
    assert not report.exists() and not table.exists()


def test_eval_detects_contracting_embedding(tmp_path):
    # hand-written "embedding" whose host distance undercuts the graph
    graph = tmp_path / "g.txt"
    save_graph(WeightedGraph(2, ((0, 1, 2.0),)), graph)
    emb = tmp_path / "emb.json"
    emb.write_text(
        json.dumps(
            {
                "n": 2,
                "seed": 0,
                "mode": "practical",
                "params": None,
                "fallback_used": False,
                "host": {"n": 2, "edges": [[0, 1, 1.0]]},
                "eta": [0, 1],
                "forest_parent": [None, 0],
                "depth": 2,
            }
        )
    )
    report = tmp_path / "rep.json"
    assert run("eval", "-i", graph, "-e", emb, "--pairs", "all", "-o", report) == 1
    rep = json.loads(report.read_text())
    assert rep["distortion"]["violations"] == 1


def test_desk_scale_guard(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("p 20001 0\n")
    assert run("embed", "-i", big, "-o", tmp_path / "e.json") == 2


def test_embed_size_guard_names_the_limit(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(f"p {cli.MAX_EMBED_N + 1} 0\n")
    for command in ("embed", "experiment"):
        capsys.readouterr()
        assert run(command, "-i", big, "-o", tmp_path / "e.json") == 2
        assert f"limit {cli.MAX_EMBED_N}" in capsys.readouterr().err


def test_embed_size_guard_refuses_the_header_before_any_edge_line(tmp_path, capsys):
    # a malformed line 2 is never read: the header alone is refused
    big = tmp_path / "big.txt"
    big.write_text(f"p {cli.MAX_EMBED_N + 1} 1\ne 0 x 1\n")
    for command in ("embed", "experiment"):
        capsys.readouterr()
        assert run(command, "-i", big, "-o", tmp_path / "e.json") == 2
        err = capsys.readouterr().err
        assert f"too large to embed (n={cli.MAX_EMBED_N + 1}, limit {cli.MAX_EMBED_N})" in err
        assert "line 2" not in err
        assert not (tmp_path / "e.json").exists()
    # the other commands read the edges and find the bad line
    capsys.readouterr()
    assert run("frt", "-i", big, "-o", tmp_path / "t.json") == 2
    assert "line 2: malformed edge fields" in capsys.readouterr().err


def test_edge_guard_refuses_the_header_in_every_command_that_loads(tmp_path, capsys):
    # a header with one edge more than the budget covers is refused before
    # its malformed line 2; exactly the limit goes on to read that line
    limit = cli.MEMORY_BUDGET // cli.LOAD_EDGE_BYTES
    tree = tmp_path / "tree.json"
    save_graph(WeightedGraph(2, ((0, 1, 1.0),)), tmp_path / "two.txt")
    assert run("frt", "-i", tmp_path / "two.txt", "-o", tree) == 0
    commands = [
        ("embed", "-o", tmp_path / "e.json"),
        ("frt", "-o", tmp_path / "e.json"),
        ("eval", "-e", tree, "-o", tmp_path / "e.json"),
        ("experiment", "-o", tmp_path / "e.json"),
    ]
    for m, message in ((limit + 1, f"(m={limit + 1}, limit {limit})"), (limit, "line 2")):
        big = tmp_path / "big.txt"
        big.write_text(f"p 3000 {m}\ne 0 x 1\n")
        for command, *rest in commands:
            capsys.readouterr()
            assert run(command, "-i", big, *rest) == 2
            err = capsys.readouterr().err
            assert message in err, (command, err)
            assert not (tmp_path / "e.json").exists()
    capsys.readouterr()
    big.write_text(f"p 3000 {limit + 1}\n")
    assert run("frt", "-i", big, "-o", tmp_path / "e.json") == 2
    assert "too large to load" in capsys.readouterr().err


def test_running_out_of_memory_is_exit_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "frt", exhausted)
    assert run("frt", "-i", tmp_path / "g.txt", "-o", tmp_path / "t.json") == 2
    assert capsys.readouterr().err == "error: out of memory\n"


OUTPUT_COMMANDS = [
    pytest.param(("gen", "path", "--n", 5), ("-o",), id="gen"),
    pytest.param(("embed",), ("-o",), id="embed"),
    pytest.param(("frt",), ("-o",), id="frt"),
    pytest.param(("eval", "--pairs", "all"), ("-o", "--csv"), id="eval"),
    pytest.param(("experiment", "--runs", 1, "--pairs", 5), ("-o", "--csv"), id="experiment"),
]


def _command_argv(tmp_path, command):
    """The command's argv up to its outputs, on a 4 x 4 grid and its FRT tree."""
    if command[0] == "gen":
        return list(command)
    graph, tree = tmp_path / "grid.txt", tmp_path / "tree.json"
    if not graph.exists():
        save_graph(generate("grid", rows=4, cols=4, weights="uniform:1:4", seed=1), graph)
        assert run("frt", "-i", graph, "-o", tree) == 0
    argv = [command[0], "-i", graph, *command[1:]]
    return argv + ["-e", tree] if command[0] == "eval" else argv


@pytest.mark.parametrize("command,flags", OUTPUT_COMMANDS)
def test_output_in_a_missing_directory_is_refused_before_any_input(
    tmp_path, capsys, monkeypatch, command, flags
):
    argv = _command_argv(tmp_path, command)

    def unread(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "_load", unread)
    monkeypatch.setattr(cli, "generate", unread)
    for missing in flags:
        outs = {flag: tmp_path / f"out{flag}" for flag in flags}
        outs[missing] = tmp_path / "no" / "such" / "out"
        capsys.readouterr()
        assert run(*argv, *[x for flag, path in outs.items() for x in (flag, path)]) == 2
        assert f"no directory for output {outs[missing]}" in capsys.readouterr().err
        assert not any(path.exists() for path in outs.values())


@pytest.mark.parametrize(
    "command",
    [("eval", "--pairs", "all"), ("experiment", "--runs", 1, "--pairs", 5)],
    ids=["eval", "experiment"],
)
def test_one_file_named_by_both_outputs_is_refused_before_any_input(
    tmp_path, capsys, monkeypatch, command
):
    # the CSV table would replace the JSON report
    argv = _command_argv(tmp_path, command)

    def unread(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "_load", unread)
    monkeypatch.chdir(tmp_path)
    for csv in ("same.out", "./same.out", str(tmp_path / "same.out")):
        capsys.readouterr()
        assert run(*argv, "-o", "same.out", "--csv", csv) == 2
        captured = capsys.readouterr()
        assert f"outputs same.out and {csv} name one file" in captured.err
        assert captured.out == "" and not (tmp_path / "same.out").exists()


@pytest.mark.parametrize("command,flags", OUTPUT_COMMANDS)
def test_a_failed_write_leaves_none_of_the_commands_outputs(
    tmp_path, capsys, monkeypatch, command, flags
):
    argv = _command_argv(tmp_path, command)
    # the last output is a directory, which cannot be opened as a file: the
    # outputs written before it are removed, and the directory stays
    outs = [tmp_path / f"out{flag}" for flag in flags]
    outs[-1].mkdir()
    assert run(*argv, *[x for flag, path in zip(flags, outs) for x in (flag, path)]) == 2
    assert not any(path.exists() for path in outs[:-1]) and outs[-1].is_dir()
    outs[-1].rmdir()
    # a write that fails half way removes its own file too, and a file the
    # command never opened keeps its bytes
    writer = {"gen": "save_graph", "embed": "save_embedding", "frt": "save_embedding"}
    if command[0] in writer:
        def half(obj, path):
            Path(path).write_text("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli, writer[command[0]], half)
    else:
        real = harness.emit

        def half(report, fmt, path):
            if fmt == "csv":
                Path(path).write_text("u,")
                raise OSError("disk full")
            real(report, fmt, path)

        monkeypatch.setattr(harness, "emit", half)
    capsys.readouterr()
    assert run(*argv, *[x for flag, path in zip(flags, outs) for x in (flag, path)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert not any(path.exists() for path in outs)
    if len(outs) > 1:
        def full(report, fmt, path):
            raise OSError("disk full")

        outs[1].write_text("kept")
        monkeypatch.setattr(harness, "emit", full)
        assert run(*argv, *[x for flag, path in zip(flags, outs) for x in (flag, path)]) == 2
        assert not outs[0].exists() and outs[1].read_text() == "kept"


def test_pair_guard_refuses_before_any_distance_work(tmp_path, monkeypatch, capsys):
    def no_pairs(*args, **kwargs):
        raise AssertionError("pairs were built")

    monkeypatch.setattr(harness, "sample_pairs", no_pairs)
    monkeypatch.setattr(harness, "run_experiment", no_pairs)
    # runs are folded in one at a time, so the limit does not depend on them
    limit = cli.MEMORY_BUDGET // cli.PAIR_BYTES
    n = 2
    while n * (n - 1) // 2 <= limit:
        n += 1
    graph, tree = tmp_path / "path.txt", tmp_path / "tree.json"
    save_graph(generate("path", size=n), graph)
    assert run("frt", "-i", graph, "-o", tree) == 0
    for argv in (
        ("eval", "-i", graph, "-e", tree, "--pairs", "all"),
        ("eval", "-i", graph, "-e", tree, "--pairs", n * n),
        ("experiment", "-i", graph, "--runs", 1, "--pairs", "all"),
        ("experiment", "-i", graph, "--runs", 1, "--pairs", limit + 1),
        ("experiment", "-i", graph, "--runs", 64, "--pairs", limit + 1),
    ):
        capsys.readouterr()
        assert run(*argv, "-o", tmp_path / "r.json") == 2
        assert "exceed the limit" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    # exactly the limit passes the guard and goes on to build the pairs
    for argv in (("eval", "-i", graph, "-e", tree), ("experiment", "-i", graph, "--runs", 64)):
        with pytest.raises(AssertionError, match="pairs were built"):
            run(*argv, "--pairs", limit, "-o", tmp_path / "r.json")


def test_gen_size_guard_refuses_before_building(tmp_path, monkeypatch, capsys):
    built = []

    def stub(kind, **sizes):
        built.append(kind)
        return WeightedGraph(2, ((0, 1, 1.0),))

    monkeypatch.setattr(cli, "generate", stub)
    limit = cli.MEMORY_BUDGET // cli.LOAD_EDGE_BYTES
    out = tmp_path / "big.txt"
    for argv in (
        ("path", "--n", 100_000_000),
        ("path", "--n", limit + 2),
        ("cycle", "--n", limit + 1),
        ("star", "--n", limit + 1),
        ("grid", "--rows", 100_000, "--cols", 100_000),
    ):
        capsys.readouterr()
        assert run("gen", *argv, "-o", out) == 2
        assert f"limit of {limit}" in capsys.readouterr().err
        assert not out.exists() and not built
    # a path of limit + 1 vertices has exactly `limit` edges and is admitted
    assert run("gen", "path", "--n", limit + 1, "-o", out) == 0
    assert built == ["path"] and out.exists()


def test_gen_writes_only_what_the_loaders_take(tmp_path, monkeypatch, capsys):
    # gen's edge limit is the loaders' limit: a path at the limit is written
    # and loads, and one more edge is refused before any file is written
    monkeypatch.setattr(cli, "MEMORY_BUDGET", 30 * cli.LOAD_EDGE_BYTES)
    out, tree = tmp_path / "path.txt", tmp_path / "tree.json"
    assert run("gen", "path", "--n", 31, "--weights", "uniform:1:4", "-o", out) == 0
    assert run("frt", "-i", out, "-o", tree) == 0
    assert tree.exists()
    out.unlink()
    capsys.readouterr()
    assert run("gen", "path", "--n", 32, "-o", out) == 2
    assert "limit of 30" in capsys.readouterr().err
    assert not out.exists()


def test_gen_bad_weight_bounds(tmp_path):
    for bounds in ("uniform:2:1", "uniform:nan:1", "uniform:1:inf"):
        assert run("gen", "path", "--n", 4, "--weights", bounds, "-o", tmp_path / "x.txt") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "--xi-cap", 0),
        ("embed", "--xi-cap", -1),
        ("embed", "--epsilon", 0),
        ("embed", "--epsilon", 1),
        ("embed", "--epsilon", "nan"),
        ("experiment", "--epsilon", 1, "--runs", 1, "--pairs", 5),
        # removed settings: C and the tau cap are fixed
        ("embed", "--tau-cap", 8),
        ("embed", "--c-fallback", 1),
        ("experiment", "--tau-cap", 8, "--runs", 1, "--pairs", 5),
        ("embed", "--epsilon", 1e-300),
        ("experiment", "--xi-cap", -1, "--runs", 1, "--pairs", 5),
        ("experiment", "--xi-cap", 0, "--runs", 1, "--pairs", 5),
        # theory mode keeps the raw xi and takes no cap
        ("embed", "--mode", "theory", "--xi-cap", 4),
        ("experiment", "--mode", "theory", "--xi-cap", 4, "--runs", 1, "--pairs", 5),
    ],
)
def test_out_of_range_split_parameters_are_input_errors(tmp_path, capsys, argv):
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 4, "--cols", 4, "-o", graph)
    command, *rest = argv
    capsys.readouterr()
    try:
        code = run(command, "-i", graph, *rest, "-o", tmp_path / "out.json")
    except SystemExit as exc:  # the parser refuses an unknown option
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("text", ["p 1 0\n", "p 3 0\n"], ids=["one-vertex", "isolated"])
@pytest.mark.parametrize(
    "settings",
    [("--epsilon", 7), ("--mode", "theory", "--xi-cap", 4)],
    ids=["epsilon-7", "theory-with-cap"],
)
def test_embed_refuses_bad_settings_on_graphs_of_single_vertices(tmp_path, capsys, text, settings):
    # a one-vertex graph or component needs no parameters, yet its settings
    # are checked as `experiment` checks them
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    out = tmp_path / "out.json"
    for command in ("embed", "experiment"):
        capsys.readouterr()
        assert run(command, "-i", graph, *settings, "-o", out) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "frt"])
def test_a_written_embedding_measures_its_depth_once(tmp_path, capsys, monkeypatch, command):
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 4, "--cols", 4, "-o", graph)
    capsys.readouterr()
    want = tmp_path / "want.json"
    assert run(command, "-i", graph, "--seed", 1, "-o", want) == 0
    printed = capsys.readouterr().out
    calls = []
    real = mfembed.hosts.treedepth_of

    def counted(forest):
        calls.append(len(forest))
        return real(forest)

    monkeypatch.setattr(mfembed.hosts, "treedepth_of", counted)
    out = tmp_path / "out.json"
    assert run(command, "-i", graph, "--seed", 1, "-o", out) == 0
    assert len(calls) == 1
    assert out.read_bytes() == want.read_bytes()
    assert capsys.readouterr().out == printed.replace(str(want), str(out))
    assert f"depth={json.loads(out.read_text())['depth']}" in printed


@pytest.mark.parametrize(
    "argv",
    [
        ("chain",),
        ("cuts",),
        ("split",),
        ("split", "--delta", 0.1),
        ("split", "--xi", 8),
        ("split", "--tau", 32),
        ("partition", "--r", 1.5),
        ("partition", "--r", 1.5, "--order-file", "order.txt"),
    ],
    ids=["chain", "cuts", "split", "split-delta", "split-xi", "split-tau", "partition", "partition-order-file"],
)
def test_removed_debug_commands_and_options_are_refused(tmp_path, capsys, argv):
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 3, "--cols", 3, "-o", graph)
    capsys.readouterr()
    with pytest.raises(SystemExit) as refused:
        run(argv[0], "-i", graph, *argv[1:])
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, edges",
    [
        ("embed", "e 0 1 1e308"),
        ("frt", "e 0 1 1e308"),
        ("embed", "e 0 1 1e-320"),
        ("embed", "e 0 1 1e-300\ne 1 2 1e10"),
        ("embed", "e 0 1 1e308\ne 1 2 1e308"),
        ("frt", "e 0 1 1e308\ne 1 2 1e308"),
        # every sum is finite, but FRT's 2 * diam / dmin is above 2**1023
        ("frt", "e 0 1 1\ne 1 2 5e307"),
        # the level is 1023, but two leaves parting at the top would be
        # 2 * (2**1023 - 1) * 3 apart
        ("frt", "e 0 1 3\ne 1 2 1.2e308"),
    ],
)
def test_lengths_that_overflow_a_float_are_input_errors(tmp_path, capsys, command, edges):
    graph = tmp_path / "g.txt"
    lines = edges.splitlines()
    graph.write_text(f"p {len(lines) + 1} {len(lines)}\n{edges}\n")
    capsys.readouterr()
    assert run(command, "-i", graph, "-o", tmp_path / "out.json") == 2
    assert "overflows a float" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_level_overflow_names_the_eccentricity_and_the_level(tmp_path, capsys):
    # FRT measures the input, the embedder the closed graph rescaled by 2;
    # all name the input's eccentricity and never an overflowed bound. `embed`
    # and `experiment` are refused by `embedder.prepare`.
    graph = tmp_path / "widediam.txt"
    graph.write_text("p 3 2\ne 0 1 1\ne 1 2 5e307\n")
    out = tmp_path / "out.json"
    experiment = ("experiment", "--runs", 1, "-o", out)
    for argv in (
        ("frt", "-o", out),
        ("embed", "-o", out),
        experiment,
        (*experiment, "--baseline", "frt"),
    ):
        capsys.readouterr()
        assert run(argv[0], "-i", graph, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "eccentricity 5e+307 needs level 1024, and 2**1024 overflows a float" in err
        assert "inf" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv", [("embed",), ("experiment", "--runs", 1)], ids=["embed", "experiment"]
)
def test_underflowing_delta_advises_raising_epsilon(tmp_path, capsys, argv):
    graph = tmp_path / "g.txt"
    run("gen", "grid", "--rows", 4, "--cols", 4, "-o", graph)
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert run(*argv, "-i", graph, "--epsilon", 1e-320, "-o", out) == 2
    err = capsys.readouterr().err
    assert "underflows; raise epsilon" in err
    assert "c_fallback" not in err
    assert not out.exists()
