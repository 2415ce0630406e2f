"""Every module, function, class and method in ``src/camarl`` has a use,
and every name a module other than an ``__init__`` imports is read in it.

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

Every parameter default is overridden by some call in the package: a
call of the function's name (the class name for ``__init__``) that
passes the parameter by keyword or by position, or spreads ``*args`` or
``**kwargs`` that may.

Each package's ``__all__`` lists exactly the names its ``from ...
import`` statements bind, so a re-export cannot outlive its import.

No required parameter takes one literal or module-level constant from
every call in the package: such a value is the callee's own setting.

The names that lay out a format (``FORMAT_OWNERS``: the observation
offsets, the training-log columns) are read only in the module that
writes the format.

Blind spot: the checks match bare names, not what they resolve to, so
a definition whose name is also read elsewhere as an attribute or a
variable passes.  A function ``exp`` would pass on ``np.exp``, and a
method ``sum`` on ``ndarray.sum``.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camarl"

# definitions kept without a caller in src/, each for a stated reason
ALLOWED = {}

# parameter defaults that no call in src/ overrides, each for a stated
# reason
ALLOWED_DEFAULTS = {
    "collect_dataset(attempt_factor=)":
        "the greedy-dataset golden digests pin a budget of 100",
    "train_acd(lr=)": "the single-sample overfit test fits at 5e-3",
    "train_acd(enc_hidden=)": "the acd_sk3 golden digest and small models",
    "train_acd(dec_hidden=)": "the acd_sk3 golden digest and small models",
    "main(argv=)": "tests call the CLI in process",
    "default_config(seed=)": "perfbench builds seeded configs",
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


def _imported_bindings(tree):
    """(name, line) of every name an import statement in tree binds."""
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def test_no_unused_import_in_src():
    # an __init__ module imports names to re-export them, so it is exempt
    unused = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.relative_to(PACKAGE)}:{line}: {name}"
                   for name, line in _imported_bindings(tree)
                   if name not in read]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_package_all_matches_its_imports():
    report = []
    for path, tree in _trees().items():
        if path.name != "__init__.py":
            continue
        bound = sorted(alias.asname or alias.name for n in tree.body
                       if isinstance(n, ast.ImportFrom) for alias in n.names)
        listed = [ast.literal_eval(n.value) for n in tree.body
                  if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__"
                          for t in n.targets)]
        exported = sorted(listed[0]) if listed else []
        if exported != bound:
            report.append(
                f"{path.relative_to(PACKAGE)}: __all__ lacks "
                f"{sorted(set(bound) - set(exported))}, lists unimported "
                f"{sorted(set(exported) - set(bound))} or repeats a name")
    assert not report, "\n".join(report)


def _functions(node, qual="", cls=None):
    """(label, callee name, self offset, node) of every function in node;
    label is its dotted path, and methods skip self or cls."""
    for item in ast.iter_child_nodes(node):
        if isinstance(item, ast.ClassDef):
            yield from _functions(item, f"{qual}{item.name}.", item.name)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in item.decorator_list)
            callee = cls if cls and item.name == "__init__" else item.name
            offset = int(cls is not None and not static)
            yield qual + item.name, callee, offset, item
            yield from _functions(item, f"{qual}{item.name}.")
        else:
            yield from _functions(item, qual, cls)


def _defaults(fn):
    """(parameter, position or None) of every parameter with a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    for i in range(len(pos) - len(a.defaults), len(pos)):
        yield pos[i].arg, i
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_default_is_overridden_in_src():
    trees = _trees()
    calls = defaultdict(list)   # callee name -> (n positional, *?, keywords)
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name,
                                                               ast.Attribute)):
                name = getattr(n.func, "id", None) or n.func.attr
                calls[name].append((
                    len(n.args), any(isinstance(a, ast.Starred)
                                     for a in n.args),
                    {k.arg for k in n.keywords}))
    kept = set()
    for tree in trees.values():
        for label, callee, offset, fn in _functions(tree):
            for param, i in _defaults(fn):
                if not any(param in kws or None in kws
                           or i is not None and (star or n_pos > i - offset)
                           for n_pos, star, kws in calls[callee]):
                    kept.add(f"{label}({param}=)")
    report = sorted(kept - set(ALLOWED_DEFAULTS))
    assert not report, "default never overridden in src/:\n" + "\n".join(
        report)
    stale = sorted(set(ALLOWED_DEFAULTS) - kept)
    assert not stale, f"stale ALLOWED_DEFAULTS entries: {stale}"


# required parameters to which every call in src/ passes the same
# constant, each for a stated reason
ALLOWED_CONSTANT_ARGS = {
    "rmsprop_step(rho)": "benchmarks/bench_kernels.py passes its own",
    "rmsprop_step(eps)": "benchmarks/bench_kernels.py passes its own",
}


def _module_constants(trees):
    """Names that a top-level assignment binds in some module."""
    names = set()
    for tree in trees.values():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _is_constant(node, constants):
    """A literal, or a module-level constant read by name or off a name."""
    if isinstance(node, ast.Name):
        return node.id in constants
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.attr in constants
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _required(fn, offset):
    """(parameter, position or None) of every parameter without a
    default, past the first offset."""
    a = fn.args
    pos = a.posonlyargs + a.args
    for i in range(offset, len(pos) - len(a.defaults)):
        yield pos[i].arg, i - offset
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is None:
            yield arg.arg, None


def _passed(call, param, i):
    """The expression call passes to param, or None when it cannot be
    told (a spread) or is not passed."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    for k in call.keywords:
        if k.arg == param:
            return k.value
    return call.args[i] if i is not None and i < len(call.args) else None


def test_no_required_parameter_is_a_constant_in_src():
    # a parameter every caller fills with one constant is a setting of
    # the callee, better read there
    trees = _trees()
    constants = _module_constants(trees)
    calls = defaultdict(list)   # callee name -> calls
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name,
                                                               ast.Attribute)):
                calls[getattr(n.func, "id", None) or n.func.attr].append(n)
    fixed = set()
    for tree in trees.values():
        for label, callee, offset, fn in _functions(tree):
            for param, i in _required(fn, offset):
                passed = [_passed(c, param, i) for c in calls[callee]]
                if (passed and all(p is not None and _is_constant(p, constants)
                                   for p in passed)
                        and len({ast.dump(p) for p in passed}) == 1):
                    fixed.add(f"{label}({param})")
    report = sorted(fixed - set(ALLOWED_CONSTANT_ARGS))
    assert not report, "one constant from every caller in src/:\n" + \
        "\n".join(report)
    stale = sorted(set(ALLOWED_CONSTANT_ARGS) - fixed)
    assert not stale, f"stale ALLOWED_CONSTANT_ARGS entries: {stale}"


# names of a format that only the module writing it reads, each with
# that module: a layout a second module reads can drift from the writer
FORMAT_OWNERS = {
    "TARGET_OFF": "envs/core.py",
    "AGENT_OFF": "envs/core.py",
    "STATUS_OFF": "envs/core.py",
    "CSV_FIELDS": "marl/trainer.py",
}


def _read_names(node):
    """The names node reads, imports or binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.split(".")[-1] for alias in node.names]
    return []


def test_each_format_is_read_only_by_its_writer():
    trees = {p.relative_to(PACKAGE).as_posix(): t for p, t in _trees().items()}
    report = sorted(f"{path}:{n.lineno}: {name}"
                    for path, tree in trees.items() for n in ast.walk(tree)
                    for name in _read_names(n)
                    if FORMAT_OWNERS.get(name, path) != path)
    assert not report, "a format read outside its module:\n" + "\n".join(
        report)
    # an entry whose owner no longer defines the name is stale
    stale = sorted(name for name, path in FORMAT_OWNERS.items()
                   if name not in _module_constants({path: trees[path]}))
    assert not stale, f"stale FORMAT_OWNERS entries: {stale}"


def test_one_env_step_call_in_the_rollout_packages():
    # every episode of training, evaluation and collection rolls through
    # the one loop in marl/episode.py; a second ``.step(`` call in marl/
    # or acd/ would be a second rollout loop
    calls = sorted(
        f"{path.relative_to(PACKAGE)}:{n.lineno}"
        for package in ("marl", "acd")
        for path in sorted((PACKAGE / package).rglob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "step")
    assert len(calls) == 1, calls
    assert calls[0].startswith("marl/episode.py:"), calls
