"""Rules about the package source itself."""

import ast
import importlib
import inspect
from pathlib import Path

import properwalk

PACKAGE = Path(properwalk.__file__).parent


def test_no_assert_statements():
    """Checks that guard emitted results raise explicitly: ``python -O``
    strips assert statements, and these checks must still run under it."""
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bench_span_targets_resolve():
    """Every (span, module, attribute) of bench/spans.py's TARGETS names a
    function the tracer can wrap: a module attribute, or a method found in
    its class's own namespace.  The list is read from the source, so the
    bench package is neither imported nor run."""
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    assert targets
    for name, modname, attr in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            func = vars(getattr(owner, cls_name)).get(meth)
        else:
            func = getattr(owner, attr, None)
        assert callable(func), (name, modname, attr)
        if name.startswith("exact."):       # the tracer reads max_k off each call
            assert "max_k" in inspect.signature(func).parameters, name


def test_exact_search_shares_no_verify_code():
    """exact._verified re-checks each witness of the exact search with the
    public verifier, which is a check only while the two share no code: no
    name read by _solve, or by the exact.py functions it reaches, comes
    from properwalk.verify."""
    from properwalk import exact, verify
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, todo = set(), ["_solve"]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id not in names:
                names.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
    assert {"_level", "_live", "_block_ok", "_others", "_bfs_order", "_peel"} <= names
    shared = sorted(name for name in names if hasattr(exact, name)
                    and (getattr(exact, name) is verify
                         or getattr(getattr(exact, name), "__module__", None) == verify.__name__))
    assert shared == []


def test_unchecked_graph_builder_callers():
    """``Graph._build`` trusts its edges to be canonical, unique and sorted,
    so only graphs.py calls it: ``Graph.__init__`` after its check, and
    ``Graph._subgraph``, whose edges are filtered from a valid graph through
    an order-preserving relabeling."""
    calls = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_build":
                # the innermost function around the call
                owner = min((fn for fn in funcs if fn.lineno <= node.lineno <= fn.end_lineno),
                            key=lambda fn: fn.end_lineno - fn.lineno, default=None)
                calls.append((path.name, owner and owner.name))
    assert sorted(calls) == [("graphs.py", "__init__"), ("graphs.py", "_subgraph")]


def test_adjacency_tuple_readers():
    """``Graph._adj`` is the graph's own neighbor tuples: graphs.py builds
    them and decompose.py's traversals read them directly; every other
    module asks ``Graph.neighbors``."""
    readers = {path.name for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.Attribute) and node.attr == "_adj"}
    assert readers == {"graphs.py", "decompose.py"}
