"""File formats: graph documents, solution documents, report emission.

The graph document is JSON:

    {"vertices": [{"id": "a", "boundary": true, "g": 0.0}, ...],
     "edges":    [{"id": "e1", "from": "a", "to": "b", "length": 2.0,
                   "f": {"kind": "const", "params": {"value": 1.0}}}, ...]}

``boundary`` defaults to false; ``g`` is required exactly on boundary
vertices; ``f`` defaults to the constant 1.  Profile kinds: ``const``
(params ``value``), ``linear`` (params ``a``, ``b``: f = a + b s from the
``from`` end), ``samples`` (params ``knots``, ``values``).

The loader checks the document's shape; the classes that hold the records
check their values, as they do for a graph built in code.  A refusal of one
record is prefixed with the ``file:line`` of the record's own ``"id"``
member in its array, a refusal of the whole document with the file alone.

All emission goes through one JSON writer, ``dump_json``, which prints
floats with 17 significant digits (round-trip exact for doubles) so
identical inputs give byte-identical files.  It writes each value by one
table keyed by type: the exact type, then its nearest base class there,
then a dataclass's fields.  The form of a graph point is one table too.
"""
from __future__ import annotations

import dataclasses
import json
import re
from itertools import repeat
from math import isfinite
from operator import attrgetter
from typing import Optional, Tuple

from .cost import Constant, CostField, Linear, Profile, Samples
from .errors import GraphFormatError, InputError, ProfileError, RecordError
from .graph import EdgeInterior, GraphPoint, KnotBatch, MetricGraph, Vertex, _count, _finite
from .optical import OpticalMap, StoredSolution
from .solver import BoundaryData, ValueFunction


def _anchor(filename: str, text: str, member: str, pattern: str, name: str) -> str:
    """``file:line`` of the first match of ``pattern`` % the JSON string ``name``
    after the first ``"member":`` in the text, or the file name alone."""
    key = re.compile(pattern % re.escape(json.dumps(name, ensure_ascii=False)))
    head = re.search(r'"%s"\s*:' % re.escape(member), text)
    hit = head and key.search(text, head.end())
    return "%s:%d" % (filename, text.count("\n", 0, hit.start()) + 1) if hit else filename


def _decode_json(text: str, filename: str):
    """The JSON document in ``text``; malformed text, and an integer literal
    past Python's int-string digit limit, are refused naming the file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError("%s:%d: not valid JSON: %s" % (filename, exc.lineno, exc.msg)) from None
    except ValueError as exc:
        raise GraphFormatError("%s: unreadable number: %s" % (filename, exc)) from None


#: the JSON form of a profile: kind -> (profile class, its params in order)
_PROFILE_FORM = {"const": (Constant, ("value",)), "linear": (Linear, ("a", "b")),
                 "samples": (Samples, ("knots", "values"))}


def _parse_profile(obj, eid: str) -> Profile:
    """The profile an edge's ``f`` object names; ``CostField`` checks its params."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProfileError("edge %r: f must be an object with a 'kind'" % eid, eid)
    kind = obj["kind"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProfileError("edge %r: f params must be an object" % eid, eid)
    if not (isinstance(kind, str) and kind in _PROFILE_FORM):
        raise ProfileError("edge %r: unknown f kind %r (expected const, linear, or samples)"
                           % (eid, kind), eid)
    cls, names = _PROFILE_FORM[kind]
    try:
        return cls(*[params[name] for name in names])
    except KeyError as exc:
        raise ProfileError("edge %r: bad f params for kind %r (%s)" % (eid, kind, exc), eid) from None


def load_graph(text: str,
               filename: str = "<graph>") -> Tuple[MetricGraph, CostField, Optional[BoundaryData]]:
    """Parse and validate a graph document.

    Returns the graph, its cost field, and the boundary data (None when the
    graph declares no boundary vertices and no vertex has ``g`` — solving
    then needs different input, but slope/verification work does not).

    After the document's shape, ``MetricGraph``, the shape of each edge's
    ``f``, ``CostField`` and ``BoundaryData`` check their records in that
    order, with the refusals they give in code; each refusal of one record
    names the record's line.
    """
    doc = _decode_json(text, filename)
    try:
        if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
            raise InputError("document must be an object with 'vertices' and 'edges'")
        vertices, edges = doc["vertices"], doc["edges"]
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise InputError("'vertices' and 'edges' must be arrays")
        for kind, entries in (("vertex", vertices), ("edge", edges)):
            for entry in entries:
                if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
                    raise InputError("every %s needs a string 'id' (got %r)" % (kind, entry))
        graph = MetricGraph([(v["id"], v.get("boundary", False)) for v in vertices],
                            [(e["id"], e.get("from"), e.get("to"), e.get("length")) for e in edges])
        field = CostField(graph, {e["id"]: _parse_profile(e["f"], e["id"]) if "f" in e else Constant(1.0)
                                  for e in edges})
        gvals = {v["id"]: v["g"] for v in vertices if "g" in v}
        return graph, field, BoundaryData(graph, gvals) if gvals or graph.boundary_ids else None
    except RecordError as exc:
        array = {"vertex": "vertices", "edge": "edges"}[exc.kind]
        where = _anchor(filename, text, array, r'"id"\s*:\s*%s', exc.id)
        raise GraphFormatError("%s: %s" % (where, exc)) from None
    except InputError as exc:
        raise GraphFormatError("%s: %s" % (filename, exc)) from None


def _profile_to_obj(prof: Profile) -> dict:
    for kind, (cls, names) in _PROFILE_FORM.items():
        if isinstance(prof, cls):
            return {"kind": kind, "params": {name: getattr(prof, name) for name in names}}
    raise InputError("cannot write profile %r" % (prof,))


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

#: the JSON form of a graph point: point class -> its (JSON key, attribute) members
_POINT_FORM = {
    Vertex: (("vertex", "id"),),
    EdgeInterior: (("edge", "edge"), ("s", "s")),
}


def point_to_obj(p: GraphPoint) -> dict:
    """The JSON form of a graph point: {"vertex": id} or {"edge": id, "s": offset}."""
    for cls, form in _POINT_FORM.items():
        if isinstance(p, cls):
            return {key: getattr(p, attr) for key, attr in form}
    raise InputError("not a graph point: %r" % (p,))


def point_from_obj(obj, graph: MetricGraph) -> GraphPoint:
    """The graph point a ``point_to_obj`` form names on ``graph``.  Ids must
    be JSON strings, as in the graph document: 1 does not name vertex "1";
    ``graph.point`` checks the offset."""
    if isinstance(obj, dict) and isinstance(obj.get("vertex"), str):
        return graph.vertex_point(obj["vertex"])
    if isinstance(obj, dict) and isinstance(obj.get("edge"), str) and "s" in obj:
        return graph.point(obj["edge"], obj["s"])
    raise InputError("bad point %r: expected {\"vertex\": id} or {\"edge\": id, \"s\": offset}, "
                     "with each id a string" % (obj,))


def dump_json(obj) -> str:
    """JSON text, indented two spaces a level, with floats at 17 significant
    digits (non-finite → null).

    Each value is written by its type's entry in one table, ``_EMITTERS``.
    A type the table does not hold yet takes the entry of its nearest base
    class there (``numpy.float64`` is a float, a namedtuple a list), else,
    if it is a dataclass, an object of its fields in declaration order.  A
    graph point takes its ``point_to_obj`` form, read from ``_POINT_FORM``."""
    return _EMITTERS[type(obj)](obj, 0) + "\n"


def _emit_float(x: float, depth: int) -> str:
    """The one float rule: 17 significant digits, round-trip exact for a
    double; a non-finite float is null."""
    return "%.17g" % x if isfinite(x) else "null"


def _members(keys, values, depth: int, opening: str, closing: str) -> str:
    """A list or dict, one member per line: each encoded key (or "") with
    its value.  Exact floats and strings are written here, anything else
    through the table."""
    inner = depth + 1
    lines = []
    for key, v in zip(keys, values):
        t = type(v)
        if t is float:
            lines.append(key + _emit_float(v, inner))
        elif t is str:
            lines.append(key + _encode_str(v))
        else:
            lines.append(key + _EMITTERS[t](v, inner))
    if not lines:
        return opening + closing
    pad = "\n" + _INDENT * inner
    return opening + pad + ("," + pad).join(lines) + "\n" + _INDENT * depth + closing


def _object_emitter(members):
    """The emitter of an object written as its (JSON key, attribute)
    ``members``, in order: one template per depth, with a slot for each
    member's value."""
    names = [attr for _, attr in members]
    get = attrgetter(*names) if names else lambda obj: ()
    # attrgetter returns a tuple only when it is given two names or more
    values = (lambda obj: (get(obj),)) if len(names) == 1 else get
    layouts = {}

    def emit(obj, depth: int) -> str:
        layout = layouts.get(depth)
        if layout is None:
            pad = "\n" + _INDENT * (depth + 1)
            slots = ",".join(pad + _encode_str(key) + ": %s" for key, _ in members)
            layout = layouts[depth] = "{%s\n%s}" % (slots, _INDENT * depth) if slots else "{}"
        return layout % tuple([_EMITTERS[type(v)](v, depth + 1) for v in values(obj)])

    return emit


def _key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a string as itself, true,
    false and null as those words, an int or a finite float by its repr.
    Any other key is refused, as an unserializable value is."""
    if isinstance(k, str):
        return _encode_str(k)
    if k is None or isinstance(k, bool):
        return '"%s"' % _EMITTERS[type(k)](k, 0)
    if isinstance(k, float) and isfinite(k):
        return '"%s"' % float.__repr__(k)
    if isinstance(k, int):
        return '"%s"' % int.__repr__(k)
    raise InputError("cannot serialize %r as a dict key" % (k,))


class _Emitters(dict):
    """Type -> emitter(obj, depth) -> JSON text.  A type met for the first
    time takes the entry of its nearest base class here, else, if it is a
    dataclass, the emitter of its fields; the table keeps it either way.  A
    dataclass base other than a graph point is passed over, since a subclass
    may declare more fields."""

    def __missing__(self, cls: type):
        base = next((b for b in cls.__mro__ if b in self
                     and (b in _POINT_FORM or not dataclasses.is_dataclass(b))), None)
        if base is None and not dataclasses.is_dataclass(cls):
            raise InputError("cannot serialize %s objects" % cls.__name__)
        emit = self[cls] = self[base] if base is not None else _object_emitter(
            [(f.name, f.name) for f in dataclasses.fields(cls)])
        return emit


_EMITTERS = _Emitters({
    type(None): lambda obj, depth: "null",
    bool: lambda obj, depth: "true" if obj else "false",
    int: lambda obj, depth: str(obj),
    float: _emit_float,
    str: lambda obj, depth: _encode_str(obj),
    **dict.fromkeys((list, tuple), lambda obj, depth: _members(repeat(""), obj, depth, "[", "]")),
    dict: lambda obj, depth: _members(
        [(_encode_str(k) if type(k) is str else _key(k)) + ": " for k in obj], obj.values(),
        depth, "{", "}"),
    **{cls: _object_emitter(form) for cls, form in _POINT_FORM.items()},
})


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
        cost = u.field.full_edge_cost(eid)
        edges[eid] = {"u_src": u.vertex_values[rec.src], "u_dst": u.vertex_values[rec.dst],
                      "cost": cost, "kink": u.kink(eid, cost)}
    return {
        "kind": "value-function",
        "boundary": {vid: u.data[vid] for vid in sorted(u.data.values)},
        "vertices": {vid: u.vertex_values[vid] for vid in sorted(u.vertex_values)},
        "edges": edges,
    }


def dump_value_function(u: ValueFunction) -> str:
    return dump_json(value_function_to_dict(u))


def load_value_function(text: str, field: CostField, data: BoundaryData,
                        filename: str = "<u>") -> StoredSolution:
    """Rebuild a solution evaluator, carrying ``data``, from its document.

    The boundary table must hold exactly ``data``'s vertices, each a finite
    number within 1e-12 · max(1, |g|) of its g, and ``StoredSolution``
    checks the vertex table; a refused entry is put at its line.  The values
    are honored as-is: a hand-perturbed table loads, then fails the verifiers.
    """
    def refuse(table: str, vid: str, fault: str) -> GraphFormatError:
        # anchored inside its table: a boundary id also keys the other one
        where = _anchor(filename, text, table, r"%s\s*:", vid)
        return GraphFormatError("%s: %s" % (where, fault))

    doc = _decode_json(text, filename)
    if not isinstance(doc, dict) or doc.get("kind") != "value-function":
        raise GraphFormatError("%s: not a value-function document" % filename)
    gvals, stored = doc.get("boundary"), doc.get("vertices")
    if not (isinstance(gvals, dict) and isinstance(stored, dict)):
        raise GraphFormatError("%s: malformed boundary/vertex tables" % filename)
    for vid, v in gvals.items():
        g = data.values.get(vid)
        if g is None:
            raise refuse("boundary", vid, "boundary table: %r is not a boundary vertex" % vid)
        if not (_finite(v) and abs(v - g) <= 1e-12 * max(1.0, abs(g))):
            raise refuse("boundary", vid, "boundary table: value at %r is %s but the graph's "
                         "boundary data says %.17g; the solution belongs to different input"
                         % (vid, "%.17g" % v if _finite(v) else repr(v), g))
    missing = [vid for vid in data.values if vid not in gvals]
    if missing:
        raise GraphFormatError("%s: boundary table: no entry for %r" % (filename, missing[0]))
    try:
        return StoredSolution(field, stored, data=data)
    except RecordError as exc:
        raise refuse("vertices", exc.id, str(exc)) from None
    except InputError as exc:
        raise GraphFormatError("%s: %s" % (filename, exc)) from None


def edge_csv(u: OpticalMap, eid: str, n: int = 101) -> str:
    """(offset, u) samples along one edge, for plotting, u evaluated at all
    of them as one batch; ``n`` is an int >= 2."""
    n = _count(n, 2, "sample count n")
    rec = u.graph.edge(eid)
    offsets = [rec.length * k / (n - 1) for k in range(n)]
    values = u.evaluate(KnotBatch.of(u.graph, [u.graph.point(eid, s) for s in offsets]))
    return "".join(["s,u\n"] + ["%.12g,%.12g\n" % sv for sv in zip(offsets, values.tolist())])
