"""Command-line surface.

Subcommands: gen, partition, tdlg, separate, iso, verify, oracle.
All outputs are canonical JSON on stdout (``gen`` emits graph text) so that
identical inputs and seeds produce byte-identical output; wall-clock timings
are only included when --timings is passed.

Exit codes: 0 success, 1 validation failure or incident, 2 usage error,
3 a K_t-model certificate was returned (input was not K_t-minor-free).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import generators, oracles
from .errors import FormatError, IncidentError, OracleLimitError, ParameterError
from .formats import (emit_decomposition, emit_graph, format_fraction,
                      graph_digest, parse_decomposition, parse_graph,
                      parse_weights)
from .graphs import Graph, LineView, components, validate_model
from .partition import (KtCertificate, Params, RootedPartition,
                        partition_line_graph, validate_certificate,
                        validate_embedding, validate_partition)
from .separator import _sink_separator, check_weights, isoperimetric_witness, uniform_weights
from .treedecomp import TreeDecomposition, product_blowup, validate_decomposition, width

SCHEMA = "edgesep-report/1"
BOUND_FORMULA = "(t-1)*floor(sqrt((t-3)*m*Delta) + Delta)"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, FormatError, OracleLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IncidentError as exc:
        print(f"incident: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("incident: out of memory", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="edgesep")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance as PACE-style text")
    g.add_argument("family", choices=generators.FAMILIES)
    g.add_argument("params", nargs="+", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    for name, report, extra in (
        ("partition", _partition_report, (("--td-out", {}),)),
        ("tdlg", _tdlg_report, (("--td-out", {}),)),
        ("separate", _separate_report, (
            ("--weights", {"help": "weights file '<vertex> <num>/<den>'"}),
            ("--uniform", {"action": "store_true"}))),
        ("iso", _iso_report, ()),
    ):
        c = sub.add_parser(name)
        c.add_argument("graph", nargs="?", help="graph file; stdin when omitted")
        c.add_argument("--t", type=int, required=True)
        c.add_argument("--out")
        c.add_argument("--timings", action="store_true")
        for flag, kwargs in extra:
            c.add_argument(flag, **kwargs)
        c.set_defaults(func=_cmd_artifact, report=report)

    v = sub.add_parser("verify")
    v.add_argument("kind", choices=("partition", "td", "separator", "model"))
    v.add_argument("artifact", nargs="?", help="artifact file; stdin when omitted")
    v.add_argument("--against", required=True, help="graph file the artifact refers to")
    v.add_argument("--line", action="store_true",
                   help="for td: decomposition is over the line graph")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("oracle")
    o.add_argument("which", choices=("tw", "sep", "iso", "minor"))
    o.add_argument("graph", nargs="?")
    o.add_argument("--t", type=int)
    o.add_argument("--weights")
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)
    return p


# ------------------------------------------------------------------ helpers

def _read_text(path_or_none) -> str:
    """The file's text, or stdin's; text that is not UTF-8 is a FormatError."""
    try:
        if path_or_none:
            with open(path_or_none, encoding="utf-8") as fh:
                return fh.read()
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path_or_none or 'stdin'}: not UTF-8 text at byte {exc.start}") from None


def _read_graph(args) -> Graph:
    return parse_graph(_read_text(args.graph))


def _read_weights(args, n: int) -> tuple:
    """The ``--weights`` file, or uniform weights when none is given."""
    return parse_weights(_read_text(args.weights), n) if args.weights else uniform_weights(n)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for byte.

    An indent makes ``json`` encode in pure Python, and a report is mostly
    lists of ints.  Here such a list is one ``str.join``; a list, tuple or
    string-keyed dict is laid out as ``json`` lays it out, and any other
    value is written by ``json.dumps`` and indented to its depth.
    """
    return _dump(obj, "\n") + "\n"


def _dump(x, nl: str) -> str:
    """``x`` as ``_json`` writes it at the depth whose line break is ``nl``."""
    if isinstance(x, (list, tuple)) and x:
        inner = nl + "  "
        items = map(str, x) if set(map(type, x)) == {int} else [_dump(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(x, dict) and x and all(type(k) is str for k in x):
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [json.dumps(k) + ": " + _dump(v, inner) for k, v in sorted(x.items())]) + nl + "}"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", nl)


def _params_json(g: Graph, params: Params) -> dict:
    return dict(params._asdict(), n=g.n, p_impl=params.p_value(), p_floor=params.p_floor(),
                reference_p_floor=params.reference_p_floor(), bound_formula=BOUND_FORMULA)


def _certificate_report(g: Graph, cert: KtCertificate) -> dict:
    ok, why = validate_certificate(g, cert)
    return {
        "schema": SCHEMA,
        "kind": "certificate",
        "input_digest": graph_digest(g),
        "t": cert.t,
        "branch_sets": cert.branch_sets,
        "validators": {"model": ok, "violation": why},
    }


# ------------------------------------------------------------------ commands

def _cmd_gen(args) -> int:
    g = generators.generate(args.family, args.params, args.seed)
    _emit(args, emit_graph(g))
    return 0


def _cmd_artifact(args) -> int:
    """partition, tdlg, separate, iso: read G, solve, then report.

    The solve step either meets a K_t model, reported as a certificate with
    exit 3, or hands its result to the command's own report.
    """
    g = _read_graph(args)
    weights = None
    if args.command == "separate":
        if args.weights and args.uniform:
            raise ParameterError("choose either --weights or --uniform")
        w = _read_weights(args, g.n)
        # invalid weights are a usage error even where G has a K_t model;
        # the report reuses the common denominator the check returns
        weights = (w, check_weights(g, w))
    started = time.perf_counter()
    if args.command == "iso":
        res = isoperimetric_witness(g, args.t)
    else:
        res = partition_line_graph(g, args.t)
    if isinstance(res, KtCertificate):
        _emit(args, _json(_certificate_report(g, res)))
        return 3
    report, code = args.report(g, args, res, weights)
    if args.timings:
        report["timings"] = {"wall_s": time.perf_counter() - started}
    _emit(args, _json(report))
    return code


def _partition_report(g: Graph, args, res, _weights) -> tuple[dict, int]:
    part = res.partition
    ok_p, why_p = validate_partition(g, part, res.params)
    ok_e, why_e = validate_embedding(g, part, res.embedding, res.params)
    if args.td_out:
        with open(args.td_out, "w") as fh:
            fh.write(emit_decomposition(part.decomp, len(part.parts)))
    return {
        "schema": SCHEMA,
        "kind": "partition",
        "input_digest": graph_digest(g),
        "params": _params_json(g, res.params),
        "parts": part.parts,
        "h_edges": part.h_edges,
        "root_clique": part.root,
        "decomposition": part.decomp._asdict(),
        "embedding": res.embedding,
        "bounds": {
            "h_width": width(part.decomp),
            "h_width_bound": args.t - 2,
            "max_part_size": max((len(p) for p in part.parts), default=0),
        },
        "validators": {"partition": ok_p, "embedding": ok_e,
                       "violation": why_p or why_e},
    }, 0 if ok_p and ok_e else 1


def _tdlg_report(g: Graph, args, res, _weights) -> tuple[dict, int]:
    blowup = product_blowup(res.partition.decomp, res.partition.parts)
    ok, why = validate_decomposition(LineView(g), blowup)
    w = width(blowup)
    bound = res.params.separator_bound() - 1
    td_text = emit_decomposition(blowup, g.m)
    if args.td_out:
        with open(args.td_out, "w") as fh:
            fh.write(td_text)
    return {
        "schema": SCHEMA,
        "kind": "line-graph-decomposition",
        "input_digest": graph_digest(g),
        "params": _params_json(g, res.params),
        "width": w,
        "width_bound": bound,
        "within_bound": w <= bound,
        "td": td_text,
        "validators": {"decomposition": ok, "violation": why},
    }, 0 if ok and w <= bound else 1


def _separate_report(g: Graph, args, res, weights) -> tuple[dict, int]:
    sep = _sink_separator(g, res, *weights)
    return {
        "schema": SCHEMA,
        "kind": "separator",
        "input_digest": graph_digest(g),
        "params": _params_json(g, res.params),
        "edges": sep.edges,
        "components": [{"vertices": c, "weight": format_fraction(wt)}
                       for c, wt in sep.components],
        "bound_used": sep.bound_used,
        "reference_bound": sep.reference_bound,
        "sink_node": sep.sink_node,
        "anchors": sep.anchors,
        "achieved_size": len(sep.edges),
        "balance_ok": all(wt <= Fraction(1, 2) for _, wt in sep.components),
    }, 0


def _iso_report(g: Graph, args, wit, _weights) -> tuple[dict, int]:
    return {
        "schema": SCHEMA,
        "kind": "witness",
        "input_digest": graph_digest(g),
        "t": args.t,
        "s": wit.s,
        "size": len(wit.s),
        "window": [-(-g.n // 3), g.n // 2],
        "cut_size": wit.cut_size,
        "ratio": format_fraction(wit.ratio),
    }, 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read_text(args.against))
    text = _read_text(args.artifact)
    if args.kind == "td":
        d, declared_n = parse_decomposition(text)
        del text                    # the checks read only the parsed artifact
        target = LineView(g) if args.line else g
        ok, why = validate_decomposition(target, d)
        if ok and declared_n != target.n:
            ok, why = False, "vertex coverage: declared vertex count mismatch"
    else:
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # not JSON, an integer too long to convert, or nested too deep
            raise FormatError(str(exc)) from None
        del text
        needed, decode, check = {
            "model": ("branch_sets", _decode_model, _check_model),
            "partition": ("parts", _decode_partition, _check_partition),
            "separator": ("edges", _decode_separator, _check_separator)}[args.kind]
        if not isinstance(data, dict) or needed not in data:
            ok, why = False, f"artifact: no {needed!r} field; wrong artifact kind?"
        else:
            try:
                fields = decode(g, data)
            except (AttributeError, LookupError, TypeError, ValueError,
                    ZeroDivisionError) as exc:
                # a field missing, mistyped or out of range (ParameterError
                # included) is a defect of the artifact, not of the call
                ok, why = False, (f"artifact: malformed {args.kind} artifact "
                                  f"({type(exc).__name__}: {exc})")
            else:
                ok, why = check(g, *fields)
    _emit(args, _json({"schema": SCHEMA, "kind": "verify",
                       "artifact": args.kind, "ok": ok, "violation": why}))
    return 0 if ok else 1


# Artifact decoding: each _decode_* turns JSON into the typed values its
# _check_* validates, raising on any field that is missing or mistyped.

def _int(x, what: str) -> int:
    if type(x) is not int:
        raise TypeError(f"{what}: expected an integer, got {x!r}")
    return x


def _ints(xs, what: str, length=None) -> list:
    """``xs`` itself, checked to be a list of ints (of ``length``, if given)."""
    if not isinstance(xs, list) or (length is not None and len(xs) != length):
        raise TypeError(f"{what}: expected a list"
                        + ("" if length is None else f" of {length}") + f", got {xs!r}")
    for x in xs:
        _int(x, what)
    return xs


def _lists(xs, what: str, length=None) -> list:
    """``xs`` itself, checked to be a list of ``_ints`` lists."""
    if not isinstance(xs, list):
        raise TypeError(f"{what}: expected a list, got {xs!r}")
    for x in xs:
        _ints(x, what, length)
    return xs


def _decode_model(g: Graph, data):
    t = data.get("t")
    return _lists(data["branch_sets"], "branch_sets"), None if t is None else _int(t, "t")


def _check_model(g: Graph, branch_sets, t):
    ok, why = validate_model(g, branch_sets)
    if ok and t is not None and len(branch_sets) != t:
        ok, why = False, f"certificate: expected {t} branch sets"
    return ok, why


def _decode_params(g: Graph, data) -> Params:
    p = data["params"]
    c_sep = p.get("c_sep")
    params = Params.for_graph(g, _int(p["t"], "params.t"),
                              c_sep=None if c_sep is None else _int(c_sep, "params.c_sep"))
    # 1 is the paper's constant, t - 2 the largest factor this scheme promises
    if not 1 <= params.c_sep <= params.t - 2:
        raise ParameterError(f"c_sep must lie in 1..t-2, got {params.c_sep}")
    return params


def _decode_partition(g: Graph, data):
    params = _decode_params(g, data)
    d = data["decomposition"]
    designated, root_clique = d.get("designated"), d.get("root_clique")
    decomp = TreeDecomposition(
        bags=_lists(d["bags"], "decomposition.bags"),
        tree_edges=_lists(d["tree_edges"], "decomposition.tree_edges", 2),
        designated=None if designated is None else _int(designated, "designated"),
        root_clique=None if root_clique is None else _ints(root_clique, "root_clique"),
    )
    part = RootedPartition(
        parts=_lists(data["parts"], "parts"),
        h_edges=_lists(data["h_edges"], "h_edges", 2),
        root=_ints(data["root_clique"], "root_clique"),
        decomp=decomp,
    )
    emb = _lists(data["embedding"], "embedding", 2) if "embedding" in data else None
    return part, params, emb


def _check_partition(g: Graph, part, params, emb):
    ok, why = validate_partition(g, part, params)
    if ok and emb is not None:
        ok, why = validate_embedding(g, part, emb, params)
    return ok, why


def _decode_separator(g: Graph, data):
    weights = {}
    for entry in data["components"]:
        num, den = entry["weight"].split("/")
        verts = tuple(_ints(entry["vertices"], "components.vertices"))
        if verts in weights:
            raise ValueError(f"components: {list(verts)} is listed twice")
        weights[verts] = Fraction(int(num), int(den))
    bound = data.get("bound_used")
    return (set(_ints(data["edges"], "edges")), weights,
            None if bound is None else _int(bound, "bound_used"), _decode_params(g, data))


def _check_separator(g: Graph, f, weights, bound, params):
    if not all(0 <= e < g.m for e in f):
        return False, "separator: edge id out of range"
    comps = components(g, banned_edges=f)
    if set(map(tuple, comps)) != set(weights):
        return False, "separator: recorded components disagree with G - F"
    for comp in comps:
        if weights[tuple(comp)] < 0:
            return False, f"weights: component {comp[0]}... has negative weight"
        if weights[tuple(comp)] > Fraction(1, 2):
            return False, f"balance: component {comp[0]}... exceeds weight 1/2"
    if sum(weights.values()) != 1:
        return False, "weights: component weights do not sum to 1"
    # the bound is recomputed from G: an artifact cannot raise its own
    bound_used = params.separator_bound()
    if bound is not None and bound != bound_used:
        return False, (f"size: recorded bound_used {bound} is not "
                       f"(t-1)*floor(p_impl) = {bound_used}")
    if len(f) > bound_used:
        return False, f"size: |F| = {len(f)} exceeds (t-1)*floor(p_impl) = {bound_used}"
    return True, None


def _cmd_oracle(args) -> int:
    g = _read_graph(args)
    report = {"schema": SCHEMA, "kind": "oracle", "which": args.which,
              "input_digest": graph_digest(g)}
    if args.which == "tw":
        report["treewidth"] = oracles.exact_treewidth(g)
    elif args.which == "sep":
        f = oracles.min_balanced_edge_separator(g, _read_weights(args, g.n))
        report["edges"] = f
        report["size"] = len(f)
    elif args.which == "iso":
        report["phi"] = format_fraction(oracles.exact_isoperimetric(g))
    else:
        if args.t is None:
            raise ParameterError("oracle minor requires --t")
        found, model = oracles.has_kt_minor(g, args.t)
        report["t"] = args.t
        report["has_minor"] = found
        report["model"] = model
    _emit(args, _json(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
