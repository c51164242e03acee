"""Static checks on the package source, using only the standard library.

Every name a module imports must be read somewhere in that module,
``slatelearn.__all__`` must list exactly the package's public names, each
of which some code outside the tests calls, every dataclass field must be read as an attribute somewhere in the package
(or, for the few kept for outside callers, by those callers), only
``config.py`` tells the two budget presets apart, and only ``models.py``
decides what a valid pair of item ids is.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slatelearn"
CALLERS = ("tests", "demos", "perfbench")
# perfbench's tracer patches these names on their modules, so they stay
# imported there though the modules themselves never read them
PATCHED = {("metrics", "slate_distribution"), ("ordering", "estimate_ratio")}
# Dataclass fields no package module reads, kept for the callers named here
KEPT_FIELDS = {
    "EstimationForest.potential",   # tests/test_acceptance.py, test_forest.py
    "PotentialState.Z",             # the same two, through forest.potential
    "EstimationForest.stats",       # tests/test_forest.py: calls per target
}
# Exports no code outside the tests calls: the paper's primitives, which
# tests/test_acceptance.py reads
KEPT_EXPORTS = {"compare", "get_geometric"}


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / (name + ".py")).read_text())


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, mapped to the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def all_list(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            return ast.literal_eval(node.value)
    return []


def read_names(tree: ast.Module) -> set:
    """Names the module loads, plus the ones its ``__all__`` exports."""
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return loads | set(all_list(tree))


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    tree = parse(module)
    unread = {name: line for name, line in imported_names(tree).items()
              if name not in read_names(tree) and (module, name) not in PATCHED}
    assert unread == {}, "imported but never read in {}.py".format(module)


def test_all_lists_the_public_names():
    tree = parse("__init__")
    exported = all_list(tree)
    public = {name for name in imported_names(tree) if not name.startswith("_")}
    public |= {t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)
               and not t.id.startswith("_")}
    assert len(exported) == len(set(exported)), "__all__ repeats a name"
    assert set(exported) == public


def loaded_names(tree: ast.Module) -> set:
    """Every name the tree loads, bare or as an attribute of something."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller_outside_tests():
    trees = [parse(module) for module in MODULES if module != "__init__"]
    trees += [ast.parse(path.read_text()) for folder in ("demos", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    loaded = set().union(*map(loaded_names, trees))
    exported = set(all_list(parse("__init__")))
    assert KEPT_EXPORTS <= exported, "a kept export is no longer exported"
    assert exported - loaded - KEPT_EXPORTS == set(), "exports only tests call"


def is_dataclass_decorator(node: ast.expr) -> bool:
    func = node.func if isinstance(node, ast.Call) else node
    return isinstance(func, ast.Name) and func.id == "dataclass"


def dataclass_fields(tree: ast.Module) -> dict:
    """``"Class.field"`` of each dataclass field, mapped to the field name."""
    return {"{}.{}".format(cls.name, stmt.target.id): stmt.target.id
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(map(is_dataclass_decorator, cls.decorator_list))
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)}


def attributes_read(trees) -> set:
    """Every attribute name any of the trees reads."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # by attribute name, on any object: a field is dead only when no module
    # reads any attribute of that name
    trees = [parse(module) for module in MODULES]
    fields = {k: v for tree in trees for k, v in dataclass_fields(tree).items()}
    read = attributes_read(trees)
    assert KEPT_FIELDS <= set(fields), "a kept field no longer exists"
    unread = {k for k, name in fields.items() if name not in read}
    assert unread - KEPT_FIELDS == set(), "dataclass fields nothing reads"


def test_kept_fields_are_read_by_their_callers():
    trees = [ast.parse(path.read_text()) for folder in CALLERS
             for path in sorted((ROOT / folder).rglob("*.py"))]
    read = attributes_read(trees)
    assert {k for k in KEPT_FIELDS if k.split(".")[1] not in read} == set(), \
        "kept fields no caller reads"


def test_only_config_tells_the_budget_presets_apart():
    readers = {module for module in MODULES if module != "config"
               and any(isinstance(node, ast.Attribute)
                       and node.attr == "worst_case"
                       for node in ast.walk(parse(module)))}
    assert readers == set(), "modules reading QueryBudget.worst_case"


# The message of a refusal about the ids or items of a pair
PAIR_ID_MESSAGE = re.compile(r"\bpairs?\b.*\b(ids?|items?)\b")


def pair_id_checks(tree: ast.Module) -> set:
    """Functions of the tree that refuse a pair's ids: their own body
    raises, or hands ``_require``, a message about a pair's ids or items."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        refusals = [node for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Raise) or isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_require"]
        if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and PAIR_ID_MESSAGE.search(node.value)
               for refusal in refusals for node in ast.walk(refusal)):
            found.add(fn.name)
    return found


def test_only_models_checks_pair_ids():
    assert pair_id_checks(parse("models")), "models.py checks no pair ids"
    checks = {module: pair_id_checks(parse(module)) for module in MODULES
              if module != "models"}
    assert {m: names for m, names in checks.items() if names} == {}, \
        "pair-id checks outside models.py"
