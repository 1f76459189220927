"""The library's surface is what the program runs.

Two static checks over src/nullcode/*.py, by `ast`:

- every public module-level function is referenced from src/ or
  perfbench/ (tests do not count), unless ALLOWED names the reason it is
  kept;
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
