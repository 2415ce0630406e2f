"""Every module, function, class and method in ``src/camarl`` has a use.

A module counts as used when another module in the package imports it,
or imports a module inside it (a package is used through its
submodules).

A definition counts as used when its name appears as an ``ast.Name`` or
as the attribute of an ``ast.Attribute`` somewhere in the package outside
the definition's own body, so recursion or a method that only calls a
same-named method of another object does not keep it alive.  Import
statements and ``__all__`` strings are not such nodes, so re-exporting a
name does not keep it alive.  Checked definitions are
top-level functions and classes, and non-dunder methods of top-level
classes.

Blind spot: the check matches bare names, not what they resolve to, so
a definition whose name is also read elsewhere as an attribute or a
variable passes.  A function ``exp`` would pass on ``np.exp``, and a
method ``sum`` on ``ndarray.sum``.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camarl"

# definitions kept without a caller in src/, each for a stated reason
ALLOWED = {
    "masked_reward": "scalar reference that test_masked_rewards_matches_scalar "
                     "checks the vectorised mask against",
    "read_curve": "reads back the CSV that write_curve writes",
}

# modules kept without an importer in src/, each for a stated reason
ALLOWED_MODULES = {
    "camarl.accel": "perfbench/run.py reads BACKEND",
    "camarl.harness.cli": "the camarl console script in pyproject.toml "
                          "imports it",
}


def _trees():
    return {p: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.rglob("*.py"))}


def _definitions(tree):
    """(label, name, node) of every checked definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def _name_uses(node):
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[n.attr] += 1
    return uses


def test_no_definition_without_a_use_in_src():
    trees = _trees()
    uses = sum((_name_uses(tree) for tree in trees.values()), Counter())
    unused = {(path, label) for path, tree in trees.items()
              for label, name, node in _definitions(tree)
              if uses[name] == _name_uses(node)[name]}
    report = sorted(f"{path.relative_to(PACKAGE)}: {label}"
                    for path, label in unused if label not in ALLOWED)
    assert not report, "defined but never used in src/:\n" + "\n".join(report)
    # an allowlist entry that is gone or has gained a use is stale
    stale = sorted(set(ALLOWED) - {label for _, label in unused})
    assert not stale, f"stale ALLOWED entries: {stale}"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(tree, modules):
    """Modules that an ``import`` or ``from ... import`` in tree names."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names.update(alias.name for alias in n.names)
        elif isinstance(n, ast.ImportFrom):
            names.add(n.module)
            names.update(f"{n.module}.{alias.name}" for alias in n.names
                         if f"{n.module}.{alias.name}" in modules)
    return names


def test_no_module_without_an_importer_in_src():
    trees = {_module_name(p): tree for p, tree in _trees().items()}
    imported = set()
    for name, tree in trees.items():
        imported |= _imported_names(tree, trees) - {name}
    unused = {name for name in trees
              if not any(m == name or m.startswith(name + ".")
                         for m in imported)}
    report = sorted(unused - set(ALLOWED_MODULES))
    assert not report, "never imported in src/:\n" + "\n".join(report)
    stale = sorted(set(ALLOWED_MODULES) - unused)
    assert not stale, f"stale ALLOWED_MODULES entries: {stale}"
