"""Source hygiene that a linter would otherwise check: no module imports a
name it never uses, every name in ``eikograph.__all__`` exists, and each
file format and kernel is imported by one module only."""
import ast
import math
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "eikograph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from eikograph import *", namespace)
    import eikograph
    assert set(eikograph.__all__) <= set(namespace)


def _imported_modules(tree: ast.Module):
    """The top-level names of every module ``tree`` imports, at any depth
    (``json.encoder`` counts as ``json``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module,home", [("json", "io.py"), ("heapq", "graph.py")])
def test_each_format_and_kernel_has_one_home(module, home):
    """JSON is read and written only in ``io``; a heap is used only by the
    one label-setting kernel in ``graph``."""
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if module in _imported_modules(ast.parse(p.read_text()))]
    assert importers == [home]


def _private_definitions(tree: ast.Module):
    """(line, name) of every private function, class and method a module
    defines; dunder names are protocol hooks, not helpers."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                out.append((node.lineno, node.name))
    return out


def _referenced_names(tree: ast.Module):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_private_helper_is_referenced():
    """A private helper that no code in the package names any more is dead.
    References are matched by name alone, across all modules."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    orphans = ["%s:%d %s" % (name, line, helper)
               for name, tree in trees.items()
               for line, helper in _private_definitions(tree)
               if helper not in referenced]
    assert orphans == []



# ----------------------------------------------------------------------
# settings census: a defaulted parameter is a setting some caller turns
# ----------------------------------------------------------------------

#: defaulted parameters that no call in the package passes, and why each
#: stays a parameter
UNTURNED_BY_THE_PACKAGE = {
    "cli.entry(argv)": "None reads sys.argv; a program embedding the CLI passes its own",
    "cost.CostField.constant(value)": "the rate is the input; the default is the unit field",
    "graph._Composed.__init__(check)": "passed by _compose through the class it picks at run time",
    "hamiltonian.kruzkov(direction)": "the direction of the transform is the input",
    "io.edge_csv(n)": "presentation: how many samples a plot gets",
    "io.graph_to_dict(data)": "the boundary data to write is the input",
    "one_dim.limit_profile(label)": "presentation: the legend of a plot",
    "slopes.DistanceTestFunction.__init__(h)": "h is the input, needed only to evaluate",
    "slopes.verify_monge(points)": "the points to check are the input",
    "solver.boundary_modulus(points)": "the points to check are the input",
    "solver.verify_dpp(points)": "the points to check are the input",
    "spaces.FiniteMetricSpace.__init__(labels)": "presentation: the names of the points",
}


def _settings_and_calls(trees):
    """Every parameter of a package function or method, as (label, callee
    name, positional index or None, parameter, default expression or None),
    and every call, as (callee names, positional count, per position and
    per keyword the setting the argument forwards or None, and per position
    and per keyword the argument expression).

    A callee name is a function's own name, or for ``__init__`` its class's
    name; ``super().__init__`` calls the bases by name.  An argument that is
    the bare name of a defaulted parameter of an enclosing function
    forwards that setting rather than turning it."""
    params, calls = [], []

    def source(expr, scopes):
        if isinstance(expr, ast.Name):
            for names, own in reversed(scopes):
                if expr.id in names:
                    return own.get(expr.id)
        return None

    def function(node, module, cls, bases, scopes):
        a = node.args
        positional = a.posonlyargs + a.args
        method = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        qual = ".".join(filter(None, (module, cls if method else None, node.name)))
        name = cls if method and node.name == "__init__" else node.name
        own = {}
        defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
        indexed = [(i - method, arg, d) for i, (arg, d) in enumerate(zip(positional, defaults))
                   if i >= method]
        keyword = [(None, arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
        for index, arg, default in indexed + keyword:
            label = "%s(%s)" % (qual, arg.arg)
            params.append((label, name, index, arg.arg, default))
            if default is not None:
                own[arg.arg] = label
        names = {arg.arg for arg in positional + a.kwonlyargs}
        body(node, module, None, bases, scopes + [(names, own)])

    def call(node, bases, scopes):
        f = node.func
        if isinstance(f, ast.Name):
            callee = {f.id}
        elif (isinstance(f, ast.Attribute) and f.attr == "__init__" and isinstance(f.value, ast.Call)
              and isinstance(f.value.func, ast.Name) and f.value.func.id == "super"):
            callee = set(bases)
        else:
            callee = {f.attr} if isinstance(f, ast.Attribute) else set()
        npos, forwards, args = len(node.args), {}, {}
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                npos = math.inf
                break
            forwards[i], args[i] = source(arg, scopes), arg
        for kw in node.keywords:
            if kw.arg is None:
                npos = math.inf
            else:
                forwards[kw.arg], args[kw.arg] = source(kw.value, scopes), kw.value
        calls.append((callee, npos, forwards, args))

    def body(node, module, cls, bases, scopes):
        """Walk ``node``'s children; ``cls`` names the class whose body
        this is, if any."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                body(child, module, child.name,
                     [b.id for b in child.bases if isinstance(b, ast.Name)], scopes)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(child, module, cls, bases, scopes)
            else:
                if isinstance(child, ast.Call):
                    call(child, bases, scopes)
                body(child, module, None, bases, scopes)

    for module, tree in trees.items():
        body(tree, module, None, [], [])
    return params, calls


def _unturned_settings(trees):
    """(labels no call in the package turns, all labels).  A forwarded
    setting turns the parameter it reaches only once it is turned itself."""
    params, calls = _settings_and_calls(trees)
    settings = [(label, name, index, param) for label, name, index, param, default in params
                if default is not None]
    turned = set()
    grew = True
    while grew:
        grew = False
        for label, name, index, param in settings:
            if label in turned:
                continue
            for callee, npos, forwards, _ in calls:
                if name in callee and (param in forwards or (index is not None and index < npos)):
                    src = forwards.get(param if param in forwards else index)
                    if src is None or src in turned:
                        turned.add(label)
                        grew = True
                        break
    labels = {label for label, *_ in settings}
    return labels - turned, labels


def test_every_setting_is_turned_by_the_package_or_allowlisted():
    """A default that no caller in the package changes is a constant in
    disguise: each defaulted parameter is passed, by keyword or by
    position, by some call in the package, or it is allowlisted with its
    reason.  An allowlisted entry that the package now passes, or that is
    no longer defaulted, leaves the list."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unturned, defaulted = _unturned_settings(trees)
    assert sorted(unturned - set(UNTURNED_BY_THE_PACKAGE)) == []
    assert sorted(set(UNTURNED_BY_THE_PACKAGE) - defaulted) == []
    assert sorted(set(UNTURNED_BY_THE_PACKAGE) - unturned) == []


#: parameters that every call in the package passes the same literal, and
#: why each stays a parameter
ONE_LITERAL_IN_THE_PACKAGE = {
    "hamiltonian.reduce_to_eikonal(u)": "the r-argument is library input; the package reduces "
                                        "only r-independent Hamiltonians, at r = 0",
}


def _one_literal_parameters(trees):
    """Labels of the parameters without a default that some call in the
    package reaches and that every such call passes one literal.  Calls are
    matched by callee name, as in the settings census; an argument behind a
    starred one passes no known value.  A defaulted parameter is a setting,
    which the settings census keeps."""
    params, calls = _settings_and_calls(trees)
    out = set()
    for label, name, index, param, default in params:
        if default is not None:
            continue
        passed = set()
        for callee, _, _, args in calls:
            if name in callee:
                arg = args.get(param if param in args else index)
                passed.add(repr(arg.value) if isinstance(arg, ast.Constant) else None)
        if len(passed) == 1 and None not in passed:
            out.add(label)
    return out


def test_no_parameter_is_passed_one_literal_by_every_call():
    """A parameter that every call in the package passes the same literal
    is a constant in disguise: each one takes what its callers pass, or it
    is allowlisted with its reason.  An allowlisted entry that some call
    now varies, or that is gone, leaves the list."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert sorted(_one_literal_parameters(trees) ^ set(ONE_LITERAL_IN_THE_PACKAGE)) == []


# ----------------------------------------------------------------------
# parameter census: a parameter its body never reads is an argument that
# every caller passes for nothing
# ----------------------------------------------------------------------

#: parameters that their function's body does not read, and why each stays
UNREAD_BY_THE_BODY = {
    "graph.Constant.at(s)": "profile protocol: the rate at an offset, the same at every one",
    "graph.Constant.check(length)": "profile protocol: a constant's floor holds on any edge",
    "graph.Constant.bounds(length)": "profile protocol: a constant is its own bounds",
    "cost.Samples.bounds(length)": "profile protocol: the knots already span the edge",
    "hamiltonian.catalog.quadratic(r)": "a Hamiltonian's fn takes (x, r, p); this one is "
                                        "r-independent",
    "io._emit_float(depth)": "every emitter takes (obj, depth); a float reads alike at any depth",
    "slopes._no_h(r)": "stands in for h(r) where no h is given",
}


def _unread_parameters(tree: ast.Module, module: str):
    """Every parameter of a ``def`` in ``tree`` that its body never reads,
    as a "module.qualified.name(param)" label; a method's own first
    parameter is left out, and so are lambdas."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
                if isinstance(node, ast.ClassDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list):
                    params = params[1:]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                qual = prefix + child.name
                out.update("%s(%s)" % (qual, arg.arg) for arg in params if arg.arg not in read)
                visit(child, qual + ".")
            else:
                visit(child, prefix)

    visit(tree, module + ".")
    return out


def test_every_parameter_is_read_or_allowlisted():
    """A parameter that its function's body never reads is passed for
    nothing: each one is read, or allowlisted with its reason.  An
    allowlisted entry that its body now reads, or that is gone, leaves the
    list."""
    unread = set().union(*(_unread_parameters(ast.parse(p.read_text()), p.stem)
                           for p in sorted(PACKAGE.glob("*.py"))))
    assert sorted(unread - set(UNREAD_BY_THE_BODY)) == []
    assert sorted(set(UNREAD_BY_THE_BODY) - unread) == []


# ----------------------------------------------------------------------
# number census: one rule says what a real number is
# ----------------------------------------------------------------------

#: the rules that say what a real number and a count are
NUMBER_RULES = {"graph._finite", "graph._reals", "graph._count"}

#: functions that test a value for an int outside the rules, and why each
#: stays
NUMBER_TESTS_OUTSIDE_THE_RULE = {
    "graph._as_evaluator": "a number there stands for a constant function, not an input to check",
    "hamiltonian._batch_slopes": "a number u stands for a constant function, as in _as_evaluator",
    "io._key": "a dict key is written the way json.dumps writes it, an int key by its repr",
}


def _names_int(node) -> bool:
    """Whether a class expression is ``int`` or a tuple, list or set naming it."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(e, ast.Name) and e.id == "int" for e in elts)


def _is_number_test(node) -> bool:
    """Whether ``node`` tests a type against int: ``isinstance`` or
    ``issubclass`` with int alone or in a tuple, ``type(x) in`` or ``not
    in`` a tuple naming int, or ``type(x) is``, ``is not``, ``==`` or ``!=``
    int."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
                and _names_int(node.args[1]))
    if not (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"):
        return False
    return any(_names_int(c) and (isinstance(op, (ast.In, ast.NotIn))
                                  and isinstance(c, (ast.Tuple, ast.List, ast.Set))
                                  or isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                                  and isinstance(c, ast.Name))
               for op, c in zip(node.ops, node.comparators))


def _number_tests(tree: ast.Module, module: str):
    """"module.function" of the function around each type test against
    int, by ``_is_number_test``."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, qual + "." + child.name)
                continue
            if _is_number_test(child):
                out.append(qual)
            visit(child, qual)

    visit(tree, module)
    return out


def test_only_the_number_rule_tests_for_int_or_float():
    """``isinstance(x, (int, float))`` admits True as 1, and ``type(n) is
    int`` refuses numpy's ints: ``graph._finite``, ``_reals`` and
    ``_count`` are the rules that say what a real number and a count are,
    and any other such test is allowlisted with its reason."""
    found = {q for p in MODULES for q in _number_tests(ast.parse(p.read_text()), p.stem)}
    assert sorted(found - NUMBER_RULES) == sorted(NUMBER_TESTS_OUTSIDE_THE_RULE)


# ----------------------------------------------------------------------
# sampled profiles: the tuples are turned into arrays once, not per call
# ----------------------------------------------------------------------

def _reads_of_the_tuples(node):
    """(line, attribute) of every ``self.knots`` or ``self.values`` under ``node``."""
    return [(n.lineno, n.attr) for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr in ("knots", "values")
            and isinstance(n.value, ast.Name) and n.value.id == "self"]


def test_sampled_profiles_turn_their_tuples_into_arrays_once():
    """A ``Samples`` holds its knots, values and F table as float64 rows,
    built once: no numpy call in ``cost`` takes ``self.knots`` or
    ``self.values`` as an argument, and the array methods read neither
    tuple.  Turning 65 floats into an array costs more than the integral
    that reads it."""
    tree = ast.parse((PACKAGE / "cost.py").read_text())
    converted = [read for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                 for arg in node.args for read in _reads_of_the_tuples(arg)
                 if isinstance(arg, ast.Attribute)]
    assert converted == []
    samples = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Samples")
    methods = {node.name: node for node in samples.body if isinstance(node, ast.FunctionDef)}
    assert {name: _reads_of_the_tuples(methods[name]) for name in ("at_array", "integral_array")} == {
        "at_array": [], "integral_array": []}
