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
import json
from itertools import repeat
from math import isfinite
from operator import attrgetter
from typing import Dict, Optional, Tuple

from .cost import Constant, CostField, Linear, Profile, Samples
from .errors import GraphFormatError, InputError, ProfileError
from .graph import EdgeInterior, GraphPoint, MetricGraph, Vertex
from .optical import OpticalMap, StoredSolution, _crossing
from .solver import BoundaryData, ValueFunction


def _fail(filename: str, text: str, key: str, message: str, start: int = 0):
    """Refuse the document at file:line of the first ``"key"`` at or after
    ``start`` in the text, or at the file when the text has none."""
    pos = text.find('"%s"' % key, start)
    where = filename if pos < 0 else "%s:%d" % (filename, text.count("\n", 0, pos) + 1)
    raise GraphFormatError("%s: %s" % (where, message))


def _number(x) -> float:
    """A JSON number as a float; true/false, strings and null are refused."""
    if type(x) not in (int, float):
        raise TypeError("%r is not a number" % (x,))
    return float(x)


def _decode_json(text: str, filename: str):
    """The JSON document in ``text``; malformed text, and an integer literal
    past Python's int-string digit limit, are refused naming the file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("%s:%d: not valid JSON: %s" % (filename, exc.lineno, exc.msg)) from None
    except ValueError as exc:
        raise GraphFormatError("%s: unreadable number: %s" % (filename, exc)) from None


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


def load_graph(text: str,
               filename: str = "<graph>") -> Tuple[MetricGraph, CostField, Optional[BoundaryData]]:
    """Parse and validate a graph document.

    Returns the graph, its cost field, and the boundary data (None when the
    graph declares no boundary vertices — solving then needs different input,
    but slope/verification work does not).
    """
    doc = _decode_json(text, filename)
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
        src, dst = entry.get("from"), entry.get("to")
        if not (isinstance(src, str) and isinstance(dst, str)):
            key = "to" if isinstance(src, str) else "from"
            _fail(filename, text, eid, "edge %r: %r must name a vertex" % (eid, key))
        try:
            length = _number(entry["length"])
        except (KeyError, TypeError, OverflowError):
            _fail(filename, text, eid, "edge %r: 'length' must be a number" % eid)
        edges.append((eid, src, dst, length))
        if "f" in entry:
            profiles[eid] = _parse_profile(entry["f"], eid, filename, text)
        else:
            profiles[eid] = Constant(1.0)

    try:
        graph = MetricGraph(vertices, edges)
        field = CostField(graph, profiles)
    except ProfileError as exc:
        _fail(filename, text, exc.edge, str(exc))
    except InputError as exc:
        raise GraphFormatError("%s: %s" % (filename, exc)) from None
    # The overflow checks need lengths and profiles that the graph and the
    # field have accepted, so they come last, in file order; the graph has
    # refused a repeated edge id, so each record here is its edge's only one.
    for eid, _src, _dst, length in edges:
        prof = profiles[eid]
        # every cost on the edge is at most sup f times its length
        fmax = prof.bounds(length)[1]
        if not isfinite(fmax * length):
            _fail(filename, text, eid, "edge %r: cost overflows (f up to %r over length %r)"
                  % (eid, fmax, length))
        # Linear.integral squares offsets along the edge
        if isinstance(prof, Linear) and not isfinite(length * length):
            _fail(filename, text, eid, "edge %r: linear profile over length %r overflows "
                  "(length squared is not finite)" % (eid, length))
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
_INDENT = "  "  # one nesting level


def point_to_obj(p: GraphPoint) -> dict:
    """The JSON form of a graph point: {"vertex": id} or {"edge": id, "s": offset}."""
    if isinstance(p, Vertex):
        return {"vertex": p.id}
    return {"edge": p.edge, "s": p.s}


def point_from_obj(obj, graph: MetricGraph) -> GraphPoint:
    """The graph point a ``point_to_obj`` form names on ``graph``.  Ids must
    be JSON strings, as in the graph document: 1 does not name vertex "1"."""
    if isinstance(obj, dict) and isinstance(obj.get("vertex"), str):
        return graph.vertex_point(obj["vertex"])
    if isinstance(obj, dict) and isinstance(obj.get("edge"), str) and "s" in obj:
        try:
            s = _number(obj["s"])
        except (TypeError, OverflowError) as exc:
            raise InputError("bad point %r: offset 's' must be a number (%s)" % (obj, exc)) from None
        return graph.point(obj["edge"], s)
    raise InputError("bad point %r: expected {\"vertex\": id} or {\"edge\": id, \"s\": offset}, "
                     "with each id a string" % (obj,))


def dump_json(obj) -> str:
    """JSON text, indented two spaces a level, with floats at 17 significant
    digits (non-finite → null).

    A dataclass becomes an object of its fields in declaration order; a
    graph point takes its ``point_to_obj`` form.  Each value is dispatched
    on its exact type through one table, ``_EMITTERS``; a type the table
    does not hold takes the isinstance chain of ``_emit_other``."""
    return _text(obj, 0) + "\n"


def _float_text(x: float) -> str:
    return "%.17g" % x if isfinite(x) else "null"


def _text(obj, depth: int) -> str:
    """The JSON text of ``obj`` nested ``depth`` levels deep."""
    return _EMITTERS.get(type(obj), _emit_other)(obj, depth)


def _members(keys, values, depth: int, opening: str, closing: str) -> str:
    """One member per line: each encoded key (or "") with its value.  Exact
    floats, strings and bools are formatted here, anything else through
    the table."""
    inner = depth + 1
    lines = []
    for key, v in zip(keys, values):
        t = type(v)
        if t is float:
            lines.append(key + ("%.17g" % v if isfinite(v) else "null"))
        elif t is str:
            lines.append(key + _encode_str(v))
        elif t is bool:
            lines.append(key + ("true" if v else "false"))
        else:
            lines.append(key + _EMITTERS.get(t, _emit_other)(v, inner))
    if not lines:
        return opening + closing
    pad = "\n" + _INDENT * inner
    return opening + pad + ("," + pad).join(lines) + "\n" + _INDENT * depth + closing


def _emit_list(obj, depth: int) -> str:
    return _members(repeat(""), obj, depth, "[", "]")


def _emit_dict(obj, depth: int) -> str:
    return _members([_encode_str(str(k)) + ": " for k in obj], obj.values(),
                    depth, "{", "}")


def _emit_vertex(p: Vertex, depth: int) -> str:
    pad = _INDENT * depth
    inner = pad + _INDENT
    return '{\n%s"vertex": %s\n%s}' % (inner, _text(p.id, depth + 1), pad)


def _emit_edge_interior(p: EdgeInterior, depth: int) -> str:
    pad = _INDENT * depth
    inner = pad + _INDENT
    return '{\n%s"edge": %s,\n%s"s": %s\n%s}' % (
        inner, _text(p.edge, depth + 1), inner, _text(p.s, depth + 1), pad)


def _dataclass_emitter(cls: type):
    """The emitter of a dataclass: an object of its fields, in order."""
    if not dataclasses.is_dataclass(cls):
        raise InputError("cannot serialize %s objects" % cls.__name__)
    names = [f.name for f in dataclasses.fields(cls)]
    keys = tuple(_encode_str(name) + ": " for name in names)
    # attrgetter returns a tuple only when it is given two names or more
    values = attrgetter(*names) if len(names) > 1 else lambda obj: [getattr(obj, n) for n in names]

    def emit(obj, depth: int) -> str:
        return _members(keys, values(obj), depth, "{", "}")

    return emit


def _emit_other(obj, depth: int) -> str:
    """A type the table does not hold goes through the isinstance chain:
    subclasses of the scalar and container types (``numpy.float64`` is a
    float), points of a subclass, then dataclasses, whose emitter joins the
    table on first use."""
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        return _emit_list(obj, depth)
    if isinstance(obj, dict):
        return _emit_dict(obj, depth)
    if isinstance(obj, (Vertex, EdgeInterior)):
        return _emit_dict(point_to_obj(obj), depth)
    emit = _EMITTERS[type(obj)] = _dataclass_emitter(type(obj))
    return emit(obj, depth)


#: exact type -> emitter(obj, depth) -> JSON text
_EMITTERS = {
    type(None): lambda obj, depth: "null",
    bool: lambda obj, depth: "true" if obj else "false",
    int: lambda obj, depth: str(obj),
    float: lambda obj, depth: _float_text(obj),
    str: lambda obj, depth: _encode_str(obj),
    list: _emit_list,
    tuple: _emit_list,
    dict: _emit_dict,
    Vertex: _emit_vertex,
    EdgeInterior: _emit_edge_interior,
}


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
        u_src, u_dst = u.vertex_values[rec.src], u.vertex_values[rec.dst]
        cost = u.field.full_edge_cost(eid)
        edges[eid] = {"u_src": u_src, "u_dst": u_dst, "cost": cost,
                      "kink": _crossing(u.profiles[eid], rec.length, u_src, u_dst, cost)}
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
    doc = _decode_json(text, filename)
    if not isinstance(doc, dict) or doc.get("kind") != "value-function":
        raise GraphFormatError("%s: not a value-function document" % filename)
    tables = []
    for name in ("boundary", "vertices"):
        table = doc.get(name)
        if not isinstance(table, dict):
            raise GraphFormatError("%s: malformed boundary/vertex tables" % filename)
        values: Dict[str, float] = {}
        for vid, v in table.items():
            try:
                values[vid] = _number(v)
            except (TypeError, OverflowError):
                # anchored inside this table: a boundary id also keys the other one
                _fail(filename, text, vid, "%s table: value at %r must be a number (got %s)"
                      % (name, vid, json.dumps(v)), start=max(text.find('"%s"' % name), 0))
        tables.append(values)
    gvals, stored = tables
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
