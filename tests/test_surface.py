"""Dead-code guard: every top-level function, class and assigned name in
`src/sfuda` must be read by some other code in `src/`. An import, a string in
`__all__`, a use in its own body or assignment, a write, or a use in tests
does not count; module dunders such as `__all__` are exempt."""

import ast
import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sfuda"

# Kept without a caller in src/, each for a reason outside it.
ALLOWED = {
    # the benchmark's tracer and launcher wrap it by name
    "run_distributed_grid": "perfbench entry point; acceptance test_05 calls it",
}


def _assigned_names(top):
    """The plain names a top-level assignment binds, dunders aside."""
    targets = top.targets if isinstance(top, ast.Assign) else [top.target]
    return [node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
           ast.DictComp, ast.GeneratorExp)


def _locals(scope):
    """The names a function, lambda or comprehension binds in its own scope
    (parameters, stores, nested defs, imports, except targets, less global
    and nonlocal ones); nested scopes are not searched."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return {n.id for g in scope.generators for n in ast.walk(g.target)
                if isinstance(n, ast.Name)}
    a = scope.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    declared, todo = set(), [] if isinstance(scope, ast.Lambda) else list(scope.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {al.asname or al.name.split(".")[0] for al in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _reads(node, shadowed=frozenset()):
    """Every module-level name or attribute that code under node reads: a
    load of a name that an enclosing function, lambda or comprehension binds
    locally reads that local instead."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _locals(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, shadowed)


def _definitions_and_uses():
    """(name, module, node) of each top-level def/class and assigned name, and
    every name or attribute that code reads, as (name, module, top-level node
    holding it)."""
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs.append((top.name, path.name, top))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                defs += [(name, path.name, top) for name in _assigned_names(top)]
            uses += [(name, path.name, top) for name in _reads(top)]
    return defs, uses


def test_a_load_of_a_local_of_the_same_name_is_no_use():
    tree = ast.parse(
        "def f(step):\n"
        "    def g(rows):\n"
        "        return step + rows + scale + [pad for pad in rows] + h.pad\n"
        "    limit = 2\n"
        "    return lambda grads: grads + limit + clip\n")
    assert sorted(_reads(tree)) == ["clip", "h", "pad", "scale"]


def test_every_top_level_definition_is_used_in_src():
    defs, uses = _definitions_and_uses()
    unused = []
    for name, module, node in defs:
        # a use inside the definition itself (recursion) is not a caller
        if name not in ALLOWED and not any(n == name and top is not node
                                           for n, _, top in uses):
            unused.append(f"{module}:{name}")
    assert unused == []


def test_allowed_names_still_exist_and_are_still_unused():
    defs, uses = _definitions_and_uses()
    defined = {name for name, _, _ in defs}
    assert set(ALLOWED) <= defined
    for name in ALLOWED:
        node = next(n for d, _, n in defs if d == name)
        assert not any(n == name and top is not node for n, _, top in uses), \
            f"{name} is used now; drop it from ALLOWED"


def _task_name_constants():
    """(module, line, value) of each string constant in src/sfuda that names a
    task, outside the TASKS literal; docstrings and f-string parts aside."""
    from sfuda.harness import TASKS

    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and path.name == "harness.py"
                    and [getattr(t, "id", None) for t in node.targets] == ["TASKS"]):
                skip.update(map(id, ast.walk(node.value)))
            elif isinstance(node, ast.JoinedStr):
                skip.update(map(id, node.values))
            elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body \
                    and isinstance(node.body[0], ast.Expr):
                skip.add(id(node.body[0].value))
        found += [(path.name, node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in TASKS
                  and id(node) not in skip]
    return found


def test_task_names_are_written_only_in_the_task_table():
    # every rule about a task reads harness.TASKS, never the task's name
    assert _task_name_constants() == []


def _section_classes():
    """(module, ClassDef) of each class in src/sfuda that derives, directly
    or not, from core.Section."""
    classes = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes += [(path.name, node) for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
             for _, node in classes}
    derived, grew = {"Section"}, True
    while grew:
        new = {name for name, of in bases.items() if of & derived} - derived
        derived, grew = derived | new, bool(new)
    return [(module, node) for module, node in classes
            if node.name != "Section" and node.name in derived]


def test_config_sections_state_their_bounds_declaratively():
    # Section checks each field's kind and bound; a section's own
    # __post_init__ would state a rule outside its field
    sections = _section_classes()
    assert {node.name for _, node in sections} >= {"HeadConfig", "TrainConfig", "PcsrConfig"}
    assert [f"{module}:{node.name}" for module, node in sections
            if any(isinstance(d, ast.FunctionDef) and d.name == "__post_init__"
                   for d in node.body)] == []


def test_config_sections_are_frozen():
    # Section checks a field when the section is built; a later write
    # would skip those checks, so a section is a value that never changes
    sections = _section_classes()
    assert {node.name for _, node in sections} >= {"ShiftSpec", "Generate", "DistConfig"}
    thawed = [f"{module}:{node.name}" for module, node in sections
              if not getattr(importlib.import_module(f"sfuda.{Path(module).stem}"),
                             node.name).__dataclass_params__.frozen]
    assert thawed == []


def _foreign_imports():
    """module:line name of each import in src/sfuda that names neither a
    stdlib module nor numpy, nor the package itself by a relative import."""
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [al.name for al in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    return found


def test_the_package_imports_only_the_stdlib_and_numpy():
    # a lazy import inside a function counts: sfuda runs on numpy alone
    assert _foreign_imports() == []
