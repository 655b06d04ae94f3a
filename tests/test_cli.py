"""Command-line surface: exit codes, JSON shapes, determinism."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesep import Graph, cli, graphs, partition, separator, treedecomp
from edgesep.cli import main
from edgesep.formats import emit_decomposition, emit_graph
from edgesep.generators import (complete, cycle, grid, outerplanar, path, random_tree,
                                star, toroidal_grid)
from edgesep.treedecomp import TreeDecomposition, validate_blowup, width


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_stderr(argv):
    """Exit code and stderr of one run."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def one_vertex_file(tmp_path):
    p = tmp_path / "k1.gr"
    p.write_text(emit_graph(Graph(1)))
    return str(p)


@pytest.fixture
def grid_file(tmp_path):
    p = tmp_path / "g.gr"
    p.write_text(emit_graph(grid(3, 3)))
    return str(p)


class TestGen:
    def test_grid_text(self):
        code, out = run_cli(["gen", "grid", "2", "2"])
        assert code == 0
        assert out.startswith("p tw 4 4\n")

    def test_bad_family_params(self):
        code, _ = run_cli(["gen", "grid", "3"])
        assert code == 2

    def test_missing_input_file_is_usage_error(self):
        code, _ = run_cli(["partition", "/nonexistent/g.gr", "--t", "4"])
        assert code == 2

    def test_help_lists_the_subcommands(self):
        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            main(["--help"])
        assert "{gen,partition,tdlg,separate,iso,verify,oracle}" in buf.getvalue()


class TestStartup:
    """Every command pays the import of ``edgesep.cli`` before it reads input."""

    def test_the_cli_imports_neither_dataclasses_nor_inspect(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import edgesep.cli; "
                 "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.split() == []

    def test_the_package_imports_only_the_pinned_stdlib_modules(self):
        # a module-level import adds to every command's start-up; the set is
        # read from the sources, so it does not depend on the Python version
        pkg = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "edgesep")
        found = set()
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name)) as f:
                    found |= _import_time_modules(ast.parse(f.read()))
        assert found == {"__future__", "argparse", "collections", "fractions", "hashlib",
                         "itertools", "json", "math", "random", "sys", "time", "typing"}


def _import_time_modules(tree) -> set:
    """Top-level names of the absolute imports a module runs when imported.

    Everything outside a function body runs at import, class bodies too.
    """
    out = set()
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return out


class TestPartition:
    def test_grid_partition_json(self, grid_file):
        code, out = run_cli(["partition", grid_file, "--t", "5"])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "partition"
        assert data["validators"]["partition"] is True
        assert data["validators"]["embedding"] is True
        assert data["bounds"]["h_width"] <= data["bounds"]["h_width_bound"]

    def test_certificate_exits_3(self, tmp_path):
        p = tmp_path / "k8.gr"
        p.write_text(emit_graph(complete(8)))
        code, out = run_cli(["partition", str(p), "--t", "5"])
        assert code == 3
        data = json.loads(out)
        assert data["kind"] == "certificate"
        assert len(data["branch_sets"]) == 5
        assert data["validators"]["model"] is True

    def test_timings_flag_adds_volatile_block(self, grid_file):
        _, out0 = run_cli(["partition", grid_file, "--t", "5"])
        _, out1 = run_cli(["partition", grid_file, "--t", "5", "--timings"])
        assert "timings" not in json.loads(out0)
        assert "timings" in json.loads(out1)


class TestTdlg:
    def test_width_within_bound(self, grid_file, tmp_path):
        td = tmp_path / "g.td"
        code, out = run_cli(["tdlg", grid_file, "--t", "5", "--td-out", str(td)])
        assert code == 0
        data = json.loads(out)
        assert data["within_bound"] is True
        assert data["validators"]["decomposition"] is True
        assert td.read_text().startswith("s td ")

    def test_round_trip_through_verify(self, grid_file, tmp_path):
        td = tmp_path / "g.td"
        run_cli(["tdlg", grid_file, "--t", "5", "--td-out", str(td)])
        code, out = run_cli(["verify", "td", str(td), "--against", grid_file, "--line"])
        assert code == 0 and json.loads(out)["ok"] is True


class TestSeparate:
    def test_uniform(self, grid_file):
        code, out = run_cli(["separate", grid_file, "--t", "5", "--uniform"])
        assert code == 0
        data = json.loads(out)
        assert data["balance_ok"] is True
        assert len(data["edges"]) <= data["bound_used"]

    def test_weights_file(self, grid_file, tmp_path):
        w = tmp_path / "w.w"
        w.write_text("\n".join(f"{i} 1/9" for i in range(1, 10)) + "\n")
        code, out = run_cli(["separate", grid_file, "--t", "5",
                             "--weights", str(w)])
        assert code == 0 and json.loads(out)["balance_ok"] is True

    def test_conflicting_weight_flags(self, grid_file, tmp_path):
        w = tmp_path / "w.w"
        w.write_text("1 1\n")
        code, _ = run_cli(["separate", grid_file, "--t", "5", "--uniform",
                           "--weights", str(w)])
        assert code == 2

    def test_one_vertex_graph_is_a_usage_error(self, one_vertex_file):
        code, err = run_cli_stderr(["separate", one_vertex_file, "--t", "5", "--uniform"])
        assert code == 2
        assert "uniform weights need at least 2 vertices" in err

    def test_malformed_weights_fail_before_any_partition(self, grid_file, tmp_path,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "partition_line_graph", lambda *a: calls.append(a))
        w = tmp_path / "w.w"
        w.write_text("1 x/y\n")
        code, err = run_cli_stderr(["separate", grid_file, "--t", "5",
                                    "--weights", str(w)])
        assert code == 2 and "malformed weight" in err
        assert calls == []

    @pytest.mark.parametrize("family", [["path", "2000"], ["complete", "7"]],
                             ids=["path-2000", "complete-7"])
    def test_weights_not_summing_to_one_fail_before_any_partition(self, family, tmp_path,
                                                                  monkeypatch):
        # K_7 holds a K_5 minor: bad weights are still a usage error, not a certificate
        g = tmp_path / "g.gr"
        g.write_text(run_cli(["gen", *family])[1])
        w = tmp_path / "w.w"
        w.write_text("1 1/3\n")
        calls = []
        monkeypatch.setattr(cli, "partition_line_graph", lambda *a: calls.append(a))
        assert run_cli_stderr(["separate", str(g), "--t", "5", "--weights", str(w)]) == \
            (2, "error: weights must sum to exactly 1\n")
        assert calls == []

    def test_weights_are_checked_once(self, grid_file, tmp_path, monkeypatch):
        # the check before the partition hands its common denominator on
        w = tmp_path / "w.w"
        w.write_text("".join(f"{i} 1/9\n" for i in range(1, 10)))
        calls = []

        def counted(*args, _check=separator.check_weights):
            calls.append(args)
            return _check(*args)

        monkeypatch.setattr(separator, "check_weights", counted)
        monkeypatch.setattr(cli, "check_weights", counted)
        code, _ = run_cli(["separate", grid_file, "--t", "5", "--weights", str(w)])
        assert code == 0 and len(calls) == 1

    def test_valid_weights_on_a_kt_minor_graph_still_exit_3(self, tmp_path):
        g = tmp_path / "k7.gr"
        g.write_text(emit_graph(complete(7)))
        w = tmp_path / "w.w"
        w.write_text("".join(f"{i} 1/7\n" for i in range(1, 8)))
        assert run_cli(["separate", str(g), "--t", "5", "--weights", str(w)])[0] == 3


class TestIso:
    def test_grid_witness(self, grid_file):
        code, out = run_cli(["iso", grid_file, "--t", "5"])
        assert code == 0
        data = json.loads(out)
        lo, hi = data["window"]
        assert lo <= data["size"] <= hi

    def test_one_vertex_graph_is_a_usage_error(self, one_vertex_file):
        code, err = run_cli_stderr(["iso", one_vertex_file, "--t", "5"])
        assert code == 2
        assert "isoperimetric witness needs at least 2 vertices" in err


class TestVerify:
    def test_partition_artifact_round_trip(self, grid_file, tmp_path):
        art = tmp_path / "p.json"
        run_cli(["partition", grid_file, "--t", "5", "--out", str(art)])
        code, out = run_cli(["verify", "partition", str(art),
                             "--against", grid_file])
        assert code == 0 and json.loads(out)["ok"] is True

    def test_corrupted_decomposition_names_axiom(self, grid_file, tmp_path):
        td = tmp_path / "g.td"
        run_cli(["tdlg", grid_file, "--t", "5", "--td-out", str(td)])
        lines = td.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("b ") and len(line.split()) > 3:
                lines[i] = " ".join(line.split()[:-1])
                break
        bad = tmp_path / "bad.td"
        bad.write_text("\n".join(lines) + "\n")
        code, out = run_cli(["verify", "td", str(bad), "--against", grid_file,
                             "--line"])
        assert code == 1
        assert json.loads(out)["violation"] is not None

    def test_separator_artifact(self, grid_file, tmp_path):
        art = tmp_path / "s.json"
        run_cli(["separate", grid_file, "--t", "5", "--uniform",
                 "--out", str(art)])
        code, out = run_cli(["verify", "separator", str(art),
                             "--against", grid_file])
        assert code == 0 and json.loads(out)["ok"] is True

    def test_wrong_artifact_kind_degrades_gracefully(self, grid_file, tmp_path):
        art = tmp_path / "p.json"
        run_cli(["partition", grid_file, "--t", "5", "--out", str(art)])
        code, out = run_cli(["verify", "model", str(art), "--against", grid_file])
        assert code == 1
        assert "wrong artifact kind" in json.loads(out)["violation"]

    def test_zero_denominator_weight_is_a_violation(self, grid_file, tmp_path):
        art = tmp_path / "s.json"
        run_cli(["separate", grid_file, "--t", "5", "--uniform", "--out", str(art)])
        data = json.loads(art.read_text())
        data["components"][0]["weight"] = "1/0"
        art.write_text(json.dumps(data))
        code, out = run_cli(["verify", "separator", str(art), "--against", grid_file])
        assert code == 1
        assert "ZeroDivisionError" in json.loads(out)["violation"]

    def test_partition_without_params_is_a_violation(self, grid_file, tmp_path):
        art = tmp_path / "p.json"
        run_cli(["partition", grid_file, "--t", "5", "--out", str(art)])
        data = json.loads(art.read_text())
        del data["params"]
        art.write_text(json.dumps(data))
        code, out = run_cli(["verify", "partition", str(art), "--against", grid_file])
        assert code == 1
        assert "'params'" in json.loads(out)["violation"]

    @pytest.mark.parametrize("weight", ["0/1", "-5/1"])
    def test_recorded_weights_must_sum_to_one_and_not_be_negative(self, weight, tmp_path):
        # F is empty, so G - F is all of P_6 and its weight is 1
        g = tmp_path / "p6.gr"
        g.write_text(emit_graph(path(6)))
        art = tmp_path / "s.json"
        art.write_text(json.dumps({"edges": [], "params": {"t": 5}, "components": [
            {"vertices": list(range(6)), "weight": weight}]}))
        code, out = run_cli(["verify", "separator", str(art), "--against", str(g)])
        assert code == 1 and json.loads(out)["violation"].startswith("weights:")

    def _tampered(self, tmp_path, kind, graph_file, mutate):
        """Exit code and violation of ``verify`` on a mutated fresh artifact."""
        art = tmp_path / "a.json"
        cmd = "separate" if kind == "separator" else "partition"
        run_cli([cmd, graph_file, "--t", "5", "--out", str(art)]
                + (["--uniform"] if cmd == "separate" else []))
        data = json.loads(art.read_text())
        mutate(data)
        art.write_text(json.dumps(data))
        code, out = run_cli(["verify", kind, str(art), "--against", graph_file])
        return code, json.loads(out)["violation"]

    MALFORMED = {
        "t-out-of-range": ("partition", lambda d: d["params"].update(t=2)),
        "negative-c-sep": ("partition", lambda d: d["params"].update(c_sep=-1)),
        # above t - 2 a single part holding every edge would pass the size test
        "oversized-c-sep": ("partition", lambda d: d["params"].update(c_sep=10**6)),
        "params-list": ("partition", lambda d: d.update(params=[5])),
        "part-element": ("partition", lambda d: d["parts"][0].append("x")),
        "h-edge-arity": ("partition", lambda d: d["h_edges"].append([0])),
        "embedding-entry": ("partition", lambda d: d["embedding"].__setitem__(0, 5)),
        "bags-null": ("partition", lambda d: d["decomposition"].update(bags=None)),
        "weight-number": ("separator",
                          lambda d: d["components"][0].update(weight=1)),
        "edges-string": ("separator", lambda d: d.update(edges="0")),
        "bound-float": ("separator", lambda d: d.update(bound_used=1.5)),
        "separator-without-params": ("separator", lambda d: d.pop("params")),
        # a repeat would let the listed weights sum past 1 unnoticed
        "repeated-component": ("separator",
                               lambda d: d["components"].append(d["components"][0])),
        "separator-oversized-c-sep": ("separator", lambda d: d["params"].update(c_sep=10**6)),
        "model-t-string": ("model", lambda d: d.update(t="5")),
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_field_is_a_violation(self, name, grid_file, tmp_path):
        kind, mutate = self.MALFORMED[name]
        if kind == "model":     # K_8 makes ``partition`` emit a K_5 certificate
            grid_file = str(tmp_path / "k8.gr")
            (tmp_path / "k8.gr").write_text(emit_graph(complete(8)))
        code, why = self._tampered(tmp_path, kind, grid_file, mutate)
        assert code == 1 and why.startswith(f"artifact: malformed {kind} artifact")

    @pytest.mark.parametrize("bound", [10**9, 624, None],
                             ids=["forged-bound", "true-bound", "no-bound"])
    def test_a_separator_over_the_recomputed_bound_is_a_size_violation(self, bound,
                                                                     tmp_path):
        g = tmp_path / "p2000.gr"
        g.write_text(emit_graph(path(2000)))
        code, out = run_cli(["separate", str(g), "--t", "5", "--uniform"])
        assert code == 0 and json.loads(out)["bound_used"] == 624
        # every edge as F: 2,000 singletons of weight 1/2000 balance trivially
        forged = {"params": {"t": 5, "c_sep": 3}, "edges": list(range(1999)),
                  "components": [{"vertices": [v], "weight": "1/2000"} for v in range(2000)]}
        if bound is not None:
            forged["bound_used"] = bound
        art = tmp_path / "s.json"
        art.write_text(json.dumps(forged))
        code, out = run_cli(["verify", "separator", str(art), "--against", str(g)])
        assert code == 1 and json.loads(out)["violation"].startswith("size:")

    @pytest.mark.parametrize("text", ["[" * 100000, "1" + "0" * 5000, "{", ""],
                             ids=["nested-too-deep", "integer-too-long", "unterminated",
                                  "empty"])
    def test_unreadable_json_is_a_usage_error(self, text, grid_file, tmp_path):
        art = tmp_path / "a.json"
        art.write_text(text)
        for kind in ("model", "partition", "separator"):
            code, err = run_cli_stderr(["verify", kind, str(art), "--against", grid_file])
            assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("source", ["graph", "against", "artifact", "weights"])
    def test_text_that_is_not_utf8_is_a_usage_error(self, source, grid_file, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(b"p tw 2 1\n1 2\xff\n")
        art = tmp_path / "s.json"
        run_cli(["separate", grid_file, "--t", "5", "--uniform", "--out", str(art)])
        argv = {"graph": ["partition", str(bad), "--t", "5"],
                "against": ["verify", "separator", str(art), "--against", str(bad)],
                "artifact": ["verify", "separator", str(bad), "--against", grid_file],
                "weights": ["separate", grid_file, "--t", "5", "--weights", str(bad)]}
        code, err = run_cli_stderr(argv[source])
        assert (code, err) == (2, f"error: {bad}: not UTF-8 text at byte 12\n")
        assert "Traceback" not in err

    def test_model_artifact(self, tmp_path):
        g = tmp_path / "k8.gr"
        g.write_text(emit_graph(complete(8)))
        art = tmp_path / "cert.json"
        run_cli(["partition", str(g), "--t", "5", "--out", str(art)])
        code, out = run_cli(["verify", "model", str(art), "--against", str(g)])
        assert code == 0 and json.loads(out)["ok"] is True


SMALL = st.integers(-2, 8)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.integers(), st.floats(),
              st.text(max_size=5),
              st.sampled_from(["1/2", "1/6", "0/1", "-1/2", "1/0", "a/b", "1/2/3"])),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12)
NEAR = st.one_of(JSON, SMALL, st.lists(SMALL, max_size=4),
                 st.lists(st.lists(SMALL, max_size=4), max_size=4),
                 st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=5))
# every field some ``verify`` decoder reads, each holding near-valid values
ARTIFACTS = st.one_of(JSON, st.fixed_dictionaries({}, optional={
    "t": NEAR, "branch_sets": NEAR, "parts": NEAR, "h_edges": NEAR,
    "root_clique": NEAR, "embedding": NEAR, "edges": NEAR, "bound_used": NEAR,
    "params": NEAR | st.fixed_dictionaries({}, optional={
        "t": st.integers(3, 6) | NEAR, "c_sep": st.integers(1, 3) | NEAR}),
    "decomposition": NEAR | st.fixed_dictionaries({}, optional={
        "bags": NEAR, "tree_edges": NEAR, "designated": NEAR, "root_clique": NEAR}),
    "components": NEAR | st.lists(st.fixed_dictionaries({}, optional={
        "vertices": st.lists(SMALL, max_size=4), "weight": NEAR}), max_size=4),
}))


def mutated(data, artifact):
    """A copy of ``artifact`` with up to three fields replaced or deleted.

    Each edit walks down from the top through dicts and lists and stops at a
    random depth, so it may hit ``params.t``, one bag or one weight.  Half of
    the edits keep the type of what they replace.
    """
    artifact = json.loads(json.dumps(artifact))
    for _ in range(data.draw(st.integers(1, 3))):
        node = artifact
        while node:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                            else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                continue
            action = data.draw(st.sampled_from(["same type", "same type", "delete", "any"]))
            if action == "delete":
                del node[key]
            elif action == "any" or not isinstance(node[key], (int, list)):
                node[key] = data.draw(NEAR)
            else:           # an int stays an int, a list a list: past the decoders
                node[key] = data.draw(SMALL if isinstance(node[key], int)
                                      else st.lists(SMALL, max_size=4))
            break
    return artifact


class TestHostileArtifacts:
    @pytest.fixture(scope="class")
    def small_grid(self, tmp_path_factory):
        """grid(2, 3) and a valid artifact of each kind for it."""
        p = tmp_path_factory.mktemp("hostile") / "g.gr"
        p.write_text(emit_graph(grid(2, 3)))
        valid = {"model": {"branch_sets": [[0, 1], [2, 5], [3, 4]], "t": 3}}
        for kind, argv in (("partition", ["partition"]),
                           ("separator", ["separate", "--uniform"])):
            code, out = run_cli([argv[0], str(p), "--t", "5"] + argv[1:])
            valid[kind] = json.loads(out)
        for kind, artifact in valid.items():
            a = p.with_name(f"{kind}.json")
            a.write_text(json.dumps(artifact))
            assert run_cli(["verify", kind, str(a), "--against", str(p)])[0] == 0
        return p, valid

    # half of the draws edit a valid artifact, so most of them reach the
    # validators rather than stopping at a missing or mistyped field
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.sampled_from(["model", "partition", "separator"]), st.booleans(), st.data())
    def test_verify_exits_with_a_documented_code(self, small_grid, kind, edit, data):
        graph, valid = small_grid
        artifact = mutated(data, valid[kind]) if edit else data.draw(ARTIFACTS)
        art = graph.with_name("a.json")
        art.write_text(json.dumps(artifact))
        code, _ = run_cli_stderr(["verify", kind, str(art), "--against", str(graph)])
        assert code in (0, 1, 2)

    def test_a_header_announcing_a_million_vertices_is_a_usage_error(self, monkeypatch):
        # 15 characters of input may announce at most 15 * 16 = 240 vertices
        monkeypatch.setattr(sys, "stdin", io.StringIO("p tw 1000000 0\n"))
        code, err = run_cli_stderr(["partition", "--t", "5"])
        assert code == 2
        assert "header announces 1000000 vertices" in err


class TestOutOfMemory:
    def test_a_command_out_of_memory_exits_1_without_a_traceback(self, grid_file,
                                                                  monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "partition_line_graph", exhausted)
        assert run_cli_stderr(["partition", grid_file, "--t", "5"]) == \
            (1, "incident: out of memory\n")


class TestEmbeddingOnDemand:
    """Only ``partition`` reports the embedding, so no other command derives it."""

    @pytest.mark.parametrize("argv", [["separate", "--uniform"], ["iso"], ["tdlg"]],
                             ids=lambda argv: argv[0])
    def test_the_other_commands_never_read_it(self, argv, grid_file, monkeypatch):
        def refuse(self):
            raise AssertionError("the embedding was derived")

        monkeypatch.setattr(partition.PartitionResult, "embedding", property(refuse))
        assert run_cli([argv[0], grid_file, "--t", "5", *argv[1:]])[0] == 0


class TestEveryCommandExitsWithADocumentedCode:
    """Valid graph text, any t and any weight text: each command exits 0..3."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("commands")
        return d / "g.gr", d / "w.w"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_command_never_raises(self, files, data):
        graph, weights = files
        n = data.draw(st.integers(0, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                          else st.just([]))
        graph.write_text(emit_graph(Graph(n, edges)))
        weights.write_text(data.draw(st.one_of(
            st.just("".join(f"{v} 1/{n}\n" for v in range(1, n + 1))),
            st.lists(st.tuples(st.integers(0, n + 1), st.integers(-2, 6),
                               st.integers(0, 8)), max_size=n + 1).map(
                lambda rows: "".join(f"{v} {a}/{b}\n" for v, a, b in rows)),
            st.text(max_size=20))))
        t = ["--t", str(data.draw(st.integers(-1, 8)))]
        argv = data.draw(st.sampled_from([
            ["partition", str(graph)] + t, ["tdlg", str(graph)] + t,
            ["separate", str(graph), "--weights", str(weights)] + t,
            ["iso", str(graph)] + t, ["oracle", "tw", str(graph)],
            ["oracle", "sep", str(graph), "--weights", str(weights)],
            ["oracle", "iso", str(graph)], ["oracle", "minor", str(graph)] + t]))
        assert run_cli_stderr(argv)[0] in (0, 1, 2, 3)


class TestOracleCommand:
    def test_tw(self, grid_file):
        code, out = run_cli(["oracle", "tw", grid_file])
        assert code == 0 and json.loads(out)["treewidth"] == 3

    def test_minor(self, tmp_path):
        p = tmp_path / "c6.gr"
        from edgesep.generators import cycle
        p.write_text(emit_graph(cycle(6)))
        code, out = run_cli(["oracle", "minor", str(p), "--t", "3"])
        assert code == 0 and json.loads(out)["has_minor"] is True

    def test_limit_exceeded_is_usage_error(self, tmp_path):
        p = tmp_path / "big.gr"
        p.write_text(emit_graph(grid(5, 5)))
        code, _ = run_cli(["oracle", "tw", str(p)])
        assert code == 2

    def test_sep_oracle(self, tmp_path):
        p = tmp_path / "star.gr"
        p.write_text(emit_graph(star(10)))
        code, out = run_cli(["oracle", "sep", str(p)])
        assert code == 0 and json.loads(out)["size"] == 5

    @pytest.mark.parametrize("argv, message", [
        (["minor", "--t", "-3"], "error: t must be positive"),
        (["minor", "--t", "0"], "error: t must be positive"),
        (["minor"], "error: oracle minor requires --t"),
    ], ids=["negative-t", "zero-t", "no-t"])
    def test_bad_t_is_a_usage_error(self, grid_file, argv, message):
        code, err = run_cli_stderr(["oracle", argv[0], grid_file, *argv[1:]])
        assert code == 2 and message in err

    def test_sep_with_a_vertex_heavier_than_half_is_a_usage_error(self, grid_file,
                                                                  tmp_path):
        w = tmp_path / "w.w"
        w.write_text("1 1\n")
        code, err = run_cli_stderr(["oracle", "sep", grid_file, "--weights", str(w)])
        assert code == 2 and "weighs more than 1/2" in err

    @pytest.mark.parametrize("text, message", [
        ("1 1/2\n2 -1/2\n3 1/2\n4 1/2\n", "error: a vertex has negative weight"),
        ("1 1/4\n", "error: weights must sum to exactly 1"),
    ], ids=["negative", "short-sum"])
    def test_sep_rejects_the_weights_separate_rejects(self, tmp_path, text, message):
        p = tmp_path / "p4.gr"
        p.write_text(emit_graph(path(4)))
        w = tmp_path / "w.w"
        w.write_text(text)
        assert run_cli_stderr(["separate", str(p), "--t", "5", "--weights", str(w)])[0] == 2
        code, err = run_cli_stderr(["oracle", "sep", str(p), "--weights", str(w)])
        assert code == 2 and message in err

    def test_iso_on_one_vertex_is_a_usage_error(self, one_vertex_file):
        code, err = run_cli_stderr(["oracle", "iso", one_vertex_file])
        assert code == 2
        assert "error: isoperimetric number needs at least 2 vertices" in err


class TestDeterminism:
    def test_partition_output_is_byte_identical(self, grid_file):
        outs = {run_cli(["partition", grid_file, "--t", "4"])[1] for _ in range(3)}
        assert len(outs) == 1

    # sha256 of stdout, recorded before the recursion ran on an explicit
    # stack; part numbering, bags and |F| must not drift.  The tdlg digests
    # were recorded before the artifact commands shared one driver.
    # The partition and tdlg digests were re-recorded when their
    # decompositions of H became reduced (grid-12's already was).
    PINNED = {
        "path-300": (lambda: path(300),
                     "e0f582b26f4208e5de48711ca78df0c85b4bb1ae3ad85369b0f4d42b81f05213",
                     "b4fc6297f2f160ca44c3f28ec30fbead435b207c322b1478179184a5c800f57b",
                     "9e23e41800a2e8ceb69a5ec5644b8fc0f90988e58eb2038e710ea053c3bbcf2f"),
        "grid-12": (lambda: grid(12, 12),
                    "1fe31b5cf722a09b4e87783b626c0ad17dae0b75d4077175ef88f9e2213d99fa",
                    "dcf2ee243c36d891128e9bdc24b0ceda8c0df542a36eaf331d90c66deee6fdee",
                    "e37b8818a2b711256daf8e4c2abea14c913c3f3354210cfb92784c8d89f314b9"),
        # the only instance here whose recursion splits C at a separator
        "grid-20": (lambda: grid(20, 20),
                    "4d1c11e84760444283ef06ce21094d5eff1fa72109cf8306ffd2048716a560f0",
                    "f9e1f408d7141abf2aa57fd308de5ec154588540e8e94946d57c5d0161349d95",
                    "1540a71bd5ac17cb84df4cc2b04ee424d1f784a43b798c525e6606b4712e2753"),
        "tree-500": (lambda: random_tree(500, 500),
                     "8f6d990db3bd8510a9d1972d589d3791a5b0d21eb801c743d5500850bafc9218",
                     "d31e154ef775670c07a347b236b8505f5bba21a1a7dd14895b1c3ad12d054f3c",
                     "7e0f6a7d2edff6e1132e7aeb6a9106a47a14d3940e9f59520ebdc72fc31662a8"),
        "outerplanar-300": (lambda: outerplanar(300, 300),
                            "ff0f02f4a7e785909cfb5bcf0b48efb7eb5c69df91bb8f8cc8112477e7e524ce",
                            "21ff69be3a500cd39871cd267d12c3d0de821f9fa68bff4eb580e733587eb114",
                            "9967d8b5ed836730d59c4e84d2dceba49e8750e86882cf2a70eb0a3d3339c933"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_outputs_match_pinned_digests(self, name, tmp_path):
        make, partition_sha, separate_sha, tdlg_sha = self.PINNED[name]
        p = tmp_path / f"{name}.gr"
        p.write_text(emit_graph(make()))
        for argv, want in ((["partition", str(p), "--t", "5"], partition_sha),
                           (["separate", str(p), "--t", "5", "--uniform"], separate_sha),
                           (["tdlg", str(p), "--t", "5"], tdlg_sha)):
            code, out = run_cli(argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, argv[0]

    # sha256 of stdout at t = 5, recorded before the tree-or-separator search
    # was made local; these runs end many searches at a separator.  The
    # partition digests were re-recorded when H's decomposition became reduced
    PINNED_LARGE = {
        "grid-32": (lambda: grid(32, 32), {
            "partition": "a73ad7034a911a4fd920dd52a8fea83cb2285a805c719a407b5d0b323f3f7e7f",
            "separate": "4fac453af57e208c276307695dd3ae493b87dc7160d6e0267493a17cbbe8ef80",
            "iso": "17bad7664e2e235fbc3b3f8acba94f1b62af78f6fb94944e65859b55fb576b88"}),
        "grid-8x60": (lambda: grid(8, 60), {
            "partition": "cac034cce51c7bd33d32cff1aeb1e252a8f253794c7219a56c914adc55e182b5",
            "separate": "f4fcca4ee6ae5cd0303ded92d15918e83ab76005961885d3c125d8a86ece3a5a",
            "iso": "03e9d92956f9f6ce5b025ac269f2871268a6ca8b6cf74d5243edb87ac7ff0426"}),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_LARGE))
    def test_large_outputs_match_pinned_digests(self, name, tmp_path):
        make, digests = self.PINNED_LARGE[name]
        p = tmp_path / f"{name}.gr"
        p.write_text(emit_graph(make()))
        for command, want in digests.items():
            extra = ["--uniform"] if command == "separate" else []
            code, out = run_cli([command, str(p), "--t", "5", *extra])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want, command

    # sha256 of the certificate report at t = 5, recorded before the artifact
    # commands shared one driver; every command emits the same report
    PINNED_CERTIFICATES = {
        "complete-8": (lambda: complete(8),
                       "b29ada21f143c77806edc7c668a5906644a0ca28d7beb2b6e5de3f843b7aa7c5"),
        "toroidal-8x8": (lambda: toroidal_grid(8, 8),
                         "85ea053b960e9212f6a8d7a216a3e9b359d1b3f9e5bc3e066e0693965fd8b931"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
    def test_certificate_reports_match_pinned_digests(self, name, tmp_path):
        make, want = self.PINNED_CERTIFICATES[name]
        p = tmp_path / f"{name}.gr"
        p.write_text(emit_graph(make()))
        for command in ("partition", "tdlg", "separate", "iso"):
            extra = ["--uniform"] if command == "separate" else []
            code, out = run_cli([command, str(p), "--t", "5", *extra])
            assert code == 3
            assert hashlib.sha256(out.encode()).hexdigest() == want, command

    def test_gen_is_byte_identical(self):
        a = run_cli(["gen", "random-tree", "25", "--seed", "11"])[1]
        b = run_cli(["gen", "random-tree", "25", "--seed", "11"])[1]
        assert a == b


class TestSharedValidatorWork:
    """``partition`` and ``verify partition`` check the embedding on the
    partition check's own edge-to-part list."""

    @staticmethod
    def _counted(monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_partition_derives_the_embedding_once(self, grid_file, monkeypatch):
        calls = []
        original = partition.PartitionResult.embedding

        def counting(self):
            calls.append(1)
            return original.fget(self)

        monkeypatch.setattr(partition.PartitionResult, "embedding", property(counting))
        assert run_cli(["partition", grid_file, "--t", "5"])[0] == 0
        assert len(calls) == 1

    def test_verify_partition_reads_h_and_scans_pairs_once(self, tmp_path, monkeypatch):
        g = tmp_path / "p.gr"
        g.write_text(emit_graph(path(200)))
        art = tmp_path / "p.json"
        art.write_text(run_cli(["partition", str(g), "--t", "5"])[1])
        calls = (self._counted(monkeypatch, partition, "_h_keys"),
                 self._counted(monkeypatch, partition, "_unjoined_pair"))
        assert run_cli(["verify", "partition", str(art), "--against", str(g)])[0] == 0
        assert [len(c) for c in calls] == [1, 1]


class TestTdlgWithoutBlowup:
    """A valid tdlg result is checked and written from H's decomposition and
    the parts, never through the blown-up decomposition."""

    @pytest.mark.parametrize("name", sorted(TestDeterminism.PINNED))
    def test_a_valid_result_builds_and_validates_no_blowup(self, name, tmp_path,
                                                          monkeypatch):
        def refuse(*args):
            raise AssertionError("the blow-up was built or validated")

        for module in (cli, treedecomp):
            for fn in ("product_blowup", "validate_decomposition"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
        make, _, _, tdlg_sha = TestDeterminism.PINNED[name]
        p = tmp_path / f"{name}.gr"
        p.write_text(emit_graph(make()))
        code, out = run_cli(["tdlg", str(p), "--t", "5"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == tdlg_sha


class TestReducedDecompositions:
    """``partition`` and ``tdlg`` emit H's decomposition reduced: no tree edge
    joins a bag to a superset of it, so it has at most one node per part."""

    @staticmethod
    def check(g, t: int, where) -> None:
        """Run partition and tdlg on ``g`` and check the emitted decompositions."""
        gr, art, td = (str(where / name) for name in ("g.gr", "p.json", "l.td"))
        with open(gr, "w") as fh:
            fh.write(emit_graph(g))
        code, out = run_cli(["partition", gr, "--t", str(t)])
        if code == 3:
            return
        assert code == 0
        with open(art, "w") as fh:
            fh.write(out)
        report = json.loads(out)
        parts = tuple(map(tuple, report["parts"]))
        dj = report["decomposition"]
        d = TreeDecomposition(tuple(map(tuple, dj["bags"])), tuple(map(tuple, dj["tree_edges"])),
                              dj["designated"], dj["root_clique"])
        for a, b in d.tree_edges:
            x, y = set(d.bags[a]), set(d.bags[b])
            assert not (x <= y or y <= x), (a, b)
        assert d.n_nodes <= max(1, len(parts))
        assert width(d) == width(partition.partition_line_graph(g, t).partition.decomp)
        if report["root_clique"]:
            assert set(report["root_clique"]) <= set(d.bags[d.designated])
        assert report["validators"] == {"partition": True, "embedding": True, "violation": None}
        assert json.loads(run_cli(["verify", "partition", art, "--against", gr])[1])["ok"]

        code, out = run_cli(["tdlg", gr, "--t", str(t), "--td-out", td])
        assert code == 0
        tdlg = json.loads(out)
        assert validate_blowup(g, d, parts) == (True, None, tdlg["width"])
        assert tdlg["td"] == emit_decomposition(d, g.m, parts)
        assert json.loads(run_cli(["verify", "td", td, "--line", "--against", gr])[1])["ok"]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(["tree", "outerplanar", "grid", "cycle", "star", "path"]),
           st.integers(3, 40), st.integers(0, 99), st.integers(4, 6))
    def test_random_graphs(self, tmp_path_factory, family, n, seed, t):
        g = {"tree": lambda: random_tree(n, seed), "outerplanar": lambda: outerplanar(n, seed),
             "grid": lambda: grid(2 + seed % 5, 2 + n // 5), "cycle": lambda: cycle(n),
             "star": lambda: star(n), "path": lambda: path(n)}[family]()
        self.check(g, t, tmp_path_factory.mktemp("reduced"))

    @pytest.mark.parametrize("name", sorted(TestDeterminism.PINNED)
                             + sorted(TestDeterminism.PINNED_LARGE))
    def test_pinned_instances(self, name, tmp_path):
        make = {**TestDeterminism.PINNED, **TestDeterminism.PINNED_LARGE}[name][0]
        self.check(make(), 5, tmp_path)

    def test_a_star_is_one_node(self, tmp_path):
        p = tmp_path / "star.gr"
        p.write_text(emit_graph(star(2000)))
        code, out = run_cli(["partition", str(p), "--t", "5"])
        assert code == 0
        assert json.loads(out)["decomposition"] == {
            "bags": [[0]], "tree_edges": [], "designated": 0, "root_clique": [0]}

    def test_separate_searches_the_unreduced_decomposition(self, tmp_path):
        """The glue connectors are the small bags that make good separators:
        a sink search on the reduced decomposition finds |F| = 33 here."""
        p = tmp_path / "g.gr"
        p.write_text(emit_graph(grid(6, 30)))
        code, out = run_cli(["separate", str(p), "--t", "5", "--uniform"])
        assert code == 0 and json.loads(out)["achieved_size"] == 23


# JSON values as reports hold them, and the corners json.dumps treats apart
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 80),
    st.integers(min_value=2 ** 63, max_value=2 ** 80).map(lambda x: -x),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x7féΩ😀 /'), max_size=8),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers(), max_size=6),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(alphabet='ab"\\\né_', max_size=4), inner, max_size=4)),
    max_leaves=20)


class TestJsonEmitter:
    """Reports are written by ``cli._json``, byte for byte ``json.dumps``'s layout."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(JSON_VALUES)
    def test_the_emitter_writes_the_bytes_json_dumps_writes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [[], {}, [[]], {"a": [[], [{}]]}, [True, 1, False],
                                       {1: "int key"}, {"k": {None: 0}}, (1, (2, 3)),
                                       [float("nan"), float("inf"), -float("inf"), -0.0],
                                       # rows of ints, and rows that hold something else
                                       [[1, 2], (3,)], [[1], []], [[1, True]], [[1], [2.0]],
                                       [(1, 2), "ab"], {"a": [[-1, 10 ** 20], (0, 0)]}])
    def test_corner_values(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


class TestNoLineGraph:
    """No command builds L(G); its size grows with the square of the degree."""

    @pytest.mark.parametrize("make", [lambda: grid(8, 8), lambda: random_tree(60, 3)],
                             ids=["grid-8", "tree-60"])
    def test_commands_never_call_line_graph(self, make, tmp_path, monkeypatch):
        def refuse(g):
            raise AssertionError("line_graph was called")

        original = graphs.line_graph
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "edgesep" and \
                    getattr(module, "line_graph", None) is original:
                monkeypatch.setattr(module, "line_graph", refuse)
        p = tmp_path / "g.gr"
        p.write_text(emit_graph(make()))
        for command in ("partition", "separate", "iso"):
            extra = ["--uniform"] if command == "separate" else []
            assert run_cli([command, str(p), "--t", "5", *extra])[0] == 0, command
        code, out = run_cli(["tdlg", str(p), "--t", "5"])
        assert code == 0
        td = tmp_path / "lg.td"
        td.write_text(json.loads(out)["td"])
        assert run_cli(["verify", "td", str(td), "--line", "--against", str(p)])[0] == 0

    # measured on a 20,000-leaf star: 1.5-1.9 s and 88 MB peak RSS for both
    # runs together; building L(G) = K_19999 alone would take tens of GB
    STAR_SECONDS = 60
    STAR_RSS_MB = 256
    STAR_SCRIPT = """
import io, resource, sys
from contextlib import redirect_stdout
from edgesep.cli import main
from edgesep.formats import emit_graph
from edgesep.generators import star
from edgesep.partition import partition_line_graph
g = star(20000)
assert len(partition_line_graph(g, 5).partition.parts) == 1
sys.stdin = io.StringIO(emit_graph(g))
with redirect_stdout(io.StringIO()):
    code = main(["separate", "--t", "5", "--uniform"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

    def test_a_large_star_runs_in_bounded_time_and_memory(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", self.STAR_SCRIPT], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=self.STAR_SECONDS).stdout.split()
        code, maxrss_kb = int(out[0]), int(out[1])
        assert code == 0
        assert maxrss_kb // 1024 <= self.STAR_RSS_MB
