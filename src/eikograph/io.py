"""File formats: graph documents, solution documents, report emission.

The graph document is JSON:

    {"vertices": [{"id": "a", "boundary": true, "g": 0.0}, ...],
     "edges":    [{"id": "e1", "from": "a", "to": "b", "length": 2.0,
                   "f": {"kind": "const", "params": {"value": 1.0}}}, ...]}

``boundary`` defaults to false; ``g`` is required exactly on boundary
vertices; ``f`` defaults to the constant 1.  Profile kinds: ``const``
(params ``value``), ``linear`` (params ``a``, ``b``: f = a + b s from the
``from`` end), ``samples`` (params ``knots``, ``values``).

Rejections carry a file:line anchor pointing at the first occurrence of the
offending record's id in the source text.

All emission goes through a single JSON writer that prints floats with 17
significant digits (round-trip exact for doubles) so identical inputs give
byte-identical files.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from typing import Dict, List, Optional, Tuple

from .cost import Constant, CostField, Linear, Profile, Samples
from .errors import GraphFormatError, InputError
from .graph import EdgeInterior, GraphPoint, MetricGraph, Vertex
from .optical import OpticalMap, StoredSolution
from .solver import BoundaryData, ValueFunction


def _line_of(text: str, needle: str) -> Optional[int]:
    pos = text.find(needle)
    if pos < 0:
        return None
    return text.count("\n", 0, pos) + 1


def _anchor(filename: str, text: str, key: Optional[str]) -> str:
    if key is not None:
        line = _line_of(text, '"%s"' % key)
        if line is not None:
            return "%s:%d" % (filename, line)
    return filename


def _fail(filename: str, text: str, key: Optional[str], message: str):
    raise GraphFormatError("%s: %s" % (_anchor(filename, text, key), message))


def _number(x) -> float:
    """A JSON number as a float; true/false, strings and null are refused."""
    if type(x) not in (int, float):
        raise TypeError("%r is not a number" % (x,))
    return float(x)


def _parse_profile(obj, eid: str, filename: str, text: str) -> Profile:
    if not isinstance(obj, dict) or "kind" not in obj:
        _fail(filename, text, eid, "edge %r: f must be an object with a 'kind'" % eid)
    kind = obj["kind"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        _fail(filename, text, eid, "edge %r: f params must be an object" % eid)
    try:
        if kind == "const":
            return Constant(_number(params["value"]))
        if kind == "linear":
            return Linear(_number(params["a"]), _number(params["b"]))
        if kind == "samples":
            knots, values = params["knots"], params["values"]
            # one pass over the types keeps large sampled profiles cheap
            if not set(map(type, knots)) | set(map(type, values)) <= {int, float}:
                raise TypeError("knots and values must be numbers")
            return Samples(knots, values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        _fail(filename, text, eid, "edge %r: bad f params for kind %r (%s)" % (eid, kind, exc))
    _fail(filename, text, eid,
          "edge %r: unknown f kind %r (expected const, linear, or samples)" % (eid, kind))


def load_graph(text: str, filename: str = "<graph>",
               fmin: float = 1e-6) -> Tuple[MetricGraph, CostField, Optional[BoundaryData]]:
    """Parse and validate a graph document.

    Returns the graph, its cost field, and the boundary data (None when the
    graph declares no boundary vertices — solving then needs different input,
    but slope/verification work does not).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("%s:%d: not valid JSON: %s" % (filename, exc.lineno, exc.msg)) from None
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphFormatError("%s: document must be an object with 'vertices' and 'edges'" % filename)
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("%s: 'vertices' and 'edges' must be arrays" % filename)

    vertices = []
    gvals: Dict[str, float] = {}
    for entry in doc["vertices"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise GraphFormatError("%s: every vertex needs a string 'id' (got %r)" % (filename, entry))
        vid = entry["id"]
        boundary = entry.get("boundary", False)
        if not isinstance(boundary, bool):
            _fail(filename, text, vid, "vertex %r: 'boundary' must be true/false" % vid)
        if boundary:
            if "g" not in entry:
                _fail(filename, text, vid, "boundary vertex %r is missing its value 'g'" % vid)
            try:
                gvals[vid] = _number(entry["g"])
            except (TypeError, OverflowError):
                _fail(filename, text, vid, "vertex %r: 'g' must be a number" % vid)
        elif "g" in entry:
            _fail(filename, text, vid, "vertex %r has 'g' but is not a boundary vertex" % vid)
        vertices.append((vid, boundary))

    edges = []
    profiles: Dict[str, Profile] = {}
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise GraphFormatError("%s: every edge needs a string 'id' (got %r)" % (filename, entry))
        eid = entry["id"]
        for key in ("from", "to"):
            if not isinstance(entry.get(key), str):
                _fail(filename, text, eid, "edge %r: %r must name a vertex" % (eid, key))
        try:
            length = _number(entry["length"])
        except (KeyError, TypeError, OverflowError):
            _fail(filename, text, eid, "edge %r: 'length' must be a number" % eid)
        edges.append((eid, entry["from"], entry["to"], length))
        if "f" in entry:
            profiles[eid] = _parse_profile(entry["f"], eid, filename, text)
        else:
            profiles[eid] = Constant(1.0)

    try:
        graph = MetricGraph(vertices, edges)
        field = CostField(graph, profiles, fmin=fmin)
    except InputError as exc:
        raise GraphFormatError("%s: %s" % (filename, exc)) from None
    for eid, rec in graph.edges.items():
        # every cost on the edge is at most sup f times its length
        fmax = field.profiles[eid].bounds(rec.length)[1]
        if not math.isfinite(fmax * rec.length):
            _fail(filename, text, eid, "edge %r: cost overflows (f up to %r over length %r)"
                  % (eid, fmax, rec.length))
        # Linear.integral squares offsets along the edge
        if isinstance(field.profiles[eid], Linear) and not math.isfinite(rec.length * rec.length):
            _fail(filename, text, eid, "edge %r: linear profile over length %r overflows "
                  "(length squared is not finite)" % (eid, rec.length))
    data = None
    if gvals:
        try:
            data = BoundaryData(graph, gvals)
        except InputError as exc:
            raise GraphFormatError("%s: %s" % (filename, exc)) from None
    return graph, field, data


def _profile_to_obj(prof: Profile) -> dict:
    if isinstance(prof, Constant):
        return {"kind": "const", "params": {"value": prof.value}}
    if isinstance(prof, Linear):
        return {"kind": "linear", "params": {"a": prof.a, "b": prof.b}}
    return {"kind": "samples", "params": {"knots": list(prof.knots), "values": list(prof.values)}}


def graph_to_dict(graph: MetricGraph, field: CostField,
                  data: Optional[BoundaryData] = None) -> dict:
    vs = []
    for vid, rec in graph.vertices.items():
        entry: dict = {"id": vid, "boundary": rec.boundary}
        if rec.boundary and data is not None:
            entry["g"] = data[vid]
        vs.append(entry)
    es = []
    for eid, rec in graph.edges.items():
        es.append({"id": eid, "from": rec.src, "to": rec.dst, "length": rec.length,
                   "f": _profile_to_obj(field.profiles[eid])})
    return {"vertices": vs, "edges": es}


# ----------------------------------------------------------------------
# deterministic JSON emission
# ----------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii  # json.dumps(str) minus its call layers


def point_to_obj(p: GraphPoint) -> dict:
    """The JSON form of a graph point: {"vertex": id} or {"edge": id, "s": offset}."""
    if isinstance(p, Vertex):
        return {"vertex": p.id}
    return {"edge": p.edge, "s": p.s}


def point_from_obj(obj, graph: MetricGraph) -> GraphPoint:
    """The graph point a ``point_to_obj`` form names on ``graph``."""
    if isinstance(obj, dict) and "vertex" in obj:
        return graph.vertex_point(str(obj["vertex"]))
    if isinstance(obj, dict) and "edge" in obj and "s" in obj:
        return graph.point(str(obj["edge"]), float(obj["s"]))
    raise InputError("bad point %r: expected {\"vertex\": id} or {\"edge\": id, \"s\": offset}" % (obj,))


def dump_json(obj, indent: int = 2) -> str:
    """JSON text with floats at 17 significant digits (non-finite → null).

    A dataclass becomes an object of its fields in declaration order; a
    graph point takes its ``point_to_obj`` form."""
    out: List[str] = []
    _emit(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)


@functools.cache
def _field_keys(cls: type) -> Tuple[Tuple[str, str], ...]:
    """(field name, encoded key) pairs of a dataclass, built once per class."""
    if not dataclasses.is_dataclass(cls):
        raise InputError("cannot serialize %s objects" % cls.__name__)
    return tuple((f.name, _encode_str(f.name) + ": ") for f in dataclasses.fields(cls))


def _emit(obj, out: List[str], depth: int, indent: int):
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append("%.17g" % obj if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, (list, tuple)):
        _emit_block("[", "]", (("", v) for v in obj), out, depth, indent)
    elif isinstance(obj, dict):
        _emit_block("{", "}", ((_encode_str(str(k)) + ": ", v) for k, v in obj.items()),
                    out, depth, indent)
    elif isinstance(obj, (Vertex, EdgeInterior)):
        _emit(point_to_obj(obj), out, depth, indent)
    else:
        _emit_block("{", "}", ((key, getattr(obj, name)) for name, key in _field_keys(type(obj))),
                    out, depth, indent)


def _emit_block(opening: str, closing: str, members, out: List[str], depth: int, indent: int):
    """One member per line: ``members`` yields (encoded key or "", value)."""
    pad = " " * (indent * (depth + 1))
    start = len(out)
    out.append(opening + "\n")
    for key, v in members:
        out.append(pad + key)
        _emit(v, out, depth + 1, indent)
        out.append(",\n")
    if len(out) == start + 1:
        out[start] = opening + closing
    else:
        out[-1] = "\n"
        out.append(" " * (indent * depth) + closing)


# ----------------------------------------------------------------------
# solution documents
# ----------------------------------------------------------------------

def value_function_to_dict(u: ValueFunction) -> dict:
    """Solution document: boundary data, the vertex table, and per-edge
    evaluator coefficients (endpoint values + total edge cost + the interior
    crossing offset when the two endpoint branches trade off)."""
    edges = {}
    for eid in sorted(u.graph.edges):
        rec = u.graph.edges[eid]
        edges[eid] = {
            "u_src": u.vertex_values[rec.src],
            "u_dst": u.vertex_values[rec.dst],
            "cost": u.field.full_edge_cost(eid),
            "kink": u.kink(eid),
        }
    return {
        "kind": "value-function",
        "boundary": {vid: u.data[vid] for vid in sorted(u.data.values)},
        "vertices": {vid: u.vertex_values[vid] for vid in sorted(u.vertex_values)},
        "edges": edges,
    }


def dump_value_function(u: ValueFunction) -> str:
    return dump_json(value_function_to_dict(u))


def load_value_function(text: str, graph: MetricGraph, field: CostField,
                        filename: str = "<u>") -> StoredSolution:
    """Rebuild a solution evaluator from its document against the given graph.

    Structural fit is enforced (the tables must name exactly this graph's
    vertices, with a legal boundary set); the stored values themselves are
    honored as-is, so a hand-perturbed table loads fine and then *fails* the
    verifiers, which is the point of having them.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("%s:%d: not valid JSON: %s" % (filename, exc.lineno, exc.msg)) from None
    if not isinstance(doc, dict) or doc.get("kind") != "value-function":
        raise GraphFormatError("%s: not a value-function document" % filename)
    try:
        gvals = {str(k): float(v) for k, v in doc["boundary"].items()}
        stored = {str(k): float(v) for k, v in doc["vertices"].items()}
    except (KeyError, AttributeError, TypeError, ValueError):
        raise GraphFormatError("%s: malformed boundary/vertex tables" % filename) from None
    try:
        data = BoundaryData(graph, gvals)
        return StoredSolution(field, stored, data=data)
    except InputError as exc:
        raise InputError("%s: %s" % (filename, exc)) from None


def edge_csv(u: OpticalMap, eid: str, n: int = 101) -> str:
    """(offset, u) samples along one edge, for plotting."""
    if n < 2:
        raise InputError("need at least 2 samples")
    rec = u.graph.edge(eid)
    lines = ["s,u"]
    for k in range(n):
        s = rec.length * k / (n - 1)
        lines.append("%.12g,%.12g" % (s, u.evaluate(u.graph.point(eid, s))))
    return "\n".join(lines) + "\n"
