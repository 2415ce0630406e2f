"""Every function, class and method in ``src/camarl`` has a use in ``src/``.

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
