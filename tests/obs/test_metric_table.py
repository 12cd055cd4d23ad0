"""``docs/OBSERVABILITY.md`` lists every metric ``src/repro`` emits, once.

The emitting sites are found syntactically: the literal name passed to
``<...>metrics.counter / gauge / histogram / family(...)`` or to
``<...>obs.count / observe / gauge_set(...)``, and each row of a
module-level ``VIEWS`` table (``repro.obs.derived``: a counter read off
the trace, with its labels).  Each must have a table row with the
same type, the same labels in the same order, and its module listed;
each row must be emitted somewhere.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "OBSERVABILITY.md"

#: method -> instrument type, and the receiver its spelling needs.
_REGISTRY_METHODS = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}
_CONTEXT_METHODS = {"count": "counter", "observe": "histogram", "gauge_set": "gauge"}


def _literals(nodes):
    values = []
    for node in nodes:
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            return None
        values.append(node.value)
    return values


def _emission(call):
    """``(name, type, labels)`` for a metric-emitting call, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = ast.unparse(func.value)
    labels = tuple(k.arg for k in call.keywords)
    if func.attr == "family" and receiver.endswith("metrics"):
        args = _literals(call.args)
        if not args or len(args) < 2:
            return None
        return args[1], args[0], tuple(args[2:])
    if func.attr in _REGISTRY_METHODS and receiver.endswith("metrics"):
        kind = _REGISTRY_METHODS[func.attr]
    elif func.attr in _CONTEXT_METHODS and receiver.endswith("obs"):
        kind = _CONTEXT_METHODS[func.attr]
    else:
        return None
    name = _literals(call.args[:1])
    return (name[0], kind, labels) if name else None


def _views(tree):
    """``(name, "counter", labels)`` per row of a module-level
    ``VIEWS = ((name, labels, kinds), ...)`` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["VIEWS"]:
            for row in node.value.elts:
                name = _literals(row.elts[:1])[0]
                yield name, "counter", tuple(_literals(row.elts[1].elts))


def emitted():
    """name -> {(type, labels, module)} over every site in src/repro."""
    sites: dict[str, set] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        found = [_emission(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for name, kind, labels in [*filter(None, found), *_views(tree)]:
            sites.setdefault(name, set()).add((kind, labels, module))
    return sites


def documented():
    """name -> (type, labels, modules) from the metric table."""
    lines = DOC.read_text().splitlines()
    start = lines.index(
        "| name | type | labels | module | what it counts | from the trace |"
    ) + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, kind, labels, modules = [cell.strip() for cell in line.strip("|").split("|")][:4]
        assert name not in rows, f"{name} listed twice"
        rows[name.strip("`")] = (
            kind,
            tuple(label.strip(" `") for label in labels.split(",") if label.strip(" `—")),
            {module.strip(" `") for module in modules.split(",")},
        )
    return rows


def test_every_emitted_metric_is_in_the_table():
    table = documented()
    missing = sorted(set(emitted()) - set(table))
    assert not missing, f"add to docs/OBSERVABILITY.md: {missing}"


def test_every_table_row_is_emitted():
    stale = sorted(set(documented()) - set(emitted()))
    assert not stale, f"nothing in src/repro emits: {stale}"


def test_rows_match_their_sites():
    table = documented()
    for name, sites in sorted(emitted().items()):
        kind, labels, modules = table[name]
        assert {(k, l) for k, l, _ in sites} == {(kind, labels)}, (name, sites)
        assert {module for _, _, module in sites} == modules, (name, sites)


def test_the_scanner_sees_every_spelling():
    sites = emitted()
    # A bound family, a family at the site, the kwargs sugar, the
    # context helpers and the view of the trace (one and three labels).
    assert ("histogram", ("node",), "sim.network") in sites["controller_service_wait_ms"]
    assert ("counter", ("node",), "core.controller") in sites["updates_completed"]
    assert ("counter", ("node",), "baselines.central") in sites["central_rounds"]
    assert ("counter", ("op", "outcome"), "ops.session") in sites["ops_moves"]
    assert sites["rule_installs"] == {("counter", ("node",), "obs.derived")}
    assert sites["topo_events"] == {("counter", ("kind",), "obs.derived")}
    assert sites["messages_sent"] == {("counter", ("node", "plane", "type"), "obs.derived")}
    assert len(sites) >= 55
