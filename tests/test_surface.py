"""The library's surface is what the program runs.

Three static checks over src/nullcode/*.py, by `ast`:

- every public module-level function is referenced from src/ or
  perfbench/ (tests do not count), unless ALLOWED names the reason it is
  kept;
- every parameter with a default, on a public function or on a public
  method of a public class, is set by some call in src/ or perfbench/:
  by keyword, by position, or through `*`/`**` (functions in ALLOWED
  are exempt).  Calls are matched by the called name alone;
- no module other than __init__.py imports a name it never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nullcode"
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# public functions kept without a caller in the program
ALLOWED = {
    "gf.find_generator": "acceptance criterion 1 checks a generator of every shipped field",
    "gf.trace": "acceptance criterion 1 checks the trace map's additivity through it",
    "qsim.product_rule_check": "acceptance criterion 8 checks the Fourier product rule",
    "tbnc.exact_emptiness_probability": "acceptance criterion 14 checks the closed form",
    "tbnc.union_bound_calculator": "acceptance criterion 14 checks the key union bound",
    "density.subcube_counts": "the int64 copy is the safe public form of the "
    "workspace-backed _count_table, which later calls overwrite",
}


def _module_aliases(tree: ast.Module) -> dict:
    """Local name -> nullcode module name, for `from . import codes as c`
    and `from nullcode import proto`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "") in ("", "nullcode"):
            for alias in node.names:
                out[alias.asname or alias.name] = alias.name
    return out


def _references(path: Path, tree: ast.Module) -> set:
    """"module.function" names that the file at path refers to: calls
    through a module alias, from-imports, and bare names inside the
    function's own module."""
    own = path.stem if path.parent == SRC else None
    aliases = _module_aliases(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                refs.add(f"{aliases[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            refs.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name) and own is not None:
            refs.add(f"{own}.{node.id}")
    return refs


def _parsed(paths):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_public_function_has_a_caller_in_the_program():
    trees = _parsed(PROGRAM)
    referenced = set().union(*(_references(path, tree) for path, tree in trees.items()))
    public = {
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert sorted(public - referenced - set(ALLOWED)) == []
    # an allowlisted function that gains a caller leaves the list
    assert sorted(set(ALLOWED) & referenced) == []
    assert set(ALLOWED) <= public


def _defaulted_parameters(trees):
    """(qualified name, parameter, positional index) for every parameter
    with a default on a public function or public method in src/; the
    index counts the arguments a caller passes (so not self or cls) and is
    None for a keyword-only parameter."""
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        defs = [(path.stem, node, 0) for node in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in getattr(node, "decorator_list", ())
                    )
                    defs.append((f"{path.stem}.{cls.name}", node, int(not static)))
        for owner, node, bound in defs:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            qualname = f"{owner}.{node.name}"
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][bound:]
            for index in range(len(positional) - len(args.defaults), len(positional)):
                yield qualname, positional[index], index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualname, arg.arg, None


def _sets(call: ast.Call, param: str, index) -> bool:
    """Whether call may set param: by keyword, by position, or through a
    starred argument or a ** mapping."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_default_parameter_is_set_by_the_program():
    trees = _parsed(PROGRAM)
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{qualname}({param}=)"
        for qualname, param, index in _defaulted_parameters(trees)
        if qualname not in ALLOWED
        and not any(
            _sets(call, param, index) for call in calls.get(qualname.rsplit(".", 1)[1], ())
        )
    ]
    assert sorted(unset) == []


def test_no_unused_imports():
    unused = []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))).items():
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert sorted(unused) == []
