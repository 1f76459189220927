"""The library's surface is what the program runs.

Ten static checks over src/nullcode/*.py, by `ast`, and one over the
names the docs give:

- every public module-level function is referenced from src/ or
  perfbench/ (tests do not count), unless ALLOWED names the reason it is
  kept;
- every public method or property of a public class is referenced by
  attribute name from src/ or perfbench/;
- every private module-level function, class or constant (dunders
  aside) is referenced from src/ (tests and perfbench/ do not count),
  so no helper outlives its last caller;
- every parameter with a default, on a public function or on a public
  method of a public class, is set by some call in src/ or perfbench/:
  by keyword, by position, or through `*`/`**` (functions in ALLOWED
  and parameters in ALLOWED_DEFAULTS are exempt).  A call to a function
  is resolved through module aliases, from-imports and the caller's own
  module, as for the first check; a call to a method is matched by the
  method's name alone, since the type of its receiver is not known;
- no module other than __init__.py imports a name it never uses;
- no module reads the environment, so a run's outputs depend only on its
  arguments;
- no module builds Fraction(repr(...)) outside `gf.exact`'s cached
  helper, so every rational parameter is read by one rule;
- in cli.py only the argparse types use `_parse_fraction`, so no
  subcommand re-reads a rational flag from its text;
- no flag in cli.py is read by `int` or `float`, which take digits such
  as '\u0663', so every number goes through an ASCII-gated reader;
- every exception class in errors.py but the base NullcodeError is
  raised somewhere in src/, so no class outlives its last raise;
- every backticked `module.name` (module one of the package's) or
  backticked private name in README.md and in the text of
  src/nullcode/*.py names something that exists, so no deleted name
  lives on in the docs.  ROADMAP.md names planned APIs and is not read.
"""

import argparse
import ast
import importlib
import re
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nullcode"
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# public functions kept without a caller in the program
ALLOWED = {
    "gf.trace": "acceptance criterion 1 checks the trace map's additivity through it",
    "qsim.product_rule_check": "acceptance criterion 8 checks the Fourier product rule",
    "tbnc.exact_emptiness_probability": "acceptance criterion 14 checks the closed form",
    "tbnc.union_bound_calculator": "acceptance criterion 14 checks the key union bound",
}


# defaulted parameters that no call in the program sets
ALLOWED_DEFAULTS = {
    "cli.main(argv=)": "tests drive the CLI through it",
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
    """"module.name" names that the file at path refers to: attributes
    through a module alias, from-imports, and bare names read inside the
    name's own module."""
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
        elif isinstance(node, ast.Name) and own is not None and not isinstance(node.ctx, ast.Store):
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


def test_every_public_method_has_a_caller_in_the_program():
    # a method's receiver type is not known, so any attribute of that name
    # in src/ or perfbench/ counts as a reference
    trees = _parsed(PROGRAM)
    attributes = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unreferenced = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in attributes
    ]
    assert sorted(unreferenced) == []


def _private_names(path: Path, tree: ast.Module) -> set:
    """"module.name" for each private function, class or assigned constant
    at the module level of the file at path, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stores = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            names += [n.id for n in stores if isinstance(n.ctx, ast.Store)]
    return {
        f"{path.stem}.{name}"
        for name in names
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_private_name_is_used_in_src():
    trees = _parsed(sorted(SRC.glob("*.py")))
    private = set().union(*(_private_names(path, tree) for path, tree in trees.items()))
    used = set().union(*(_references(path, tree) for path, tree in trees.items()))
    assert len(private) >= 100  # the walk finds them
    assert sorted(private - used) == []


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


def _callee(path: Path, aliases: dict, imported: dict, func: ast.expr):
    """"module.function" for a call to a function, ".method" for a call
    through any other attribute, None for anything else."""
    if isinstance(func, ast.Name):
        return imported.get(func.id, f"{path.stem}.{func.id}")
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in aliases:
            return f"{aliases[func.value.id]}.{func.attr}"
        return f".{func.attr}"
    return None


def test_every_default_parameter_is_set_by_the_program():
    trees = _parsed(PROGRAM)
    calls = {}
    for path, tree in trees.items():
        aliases = _module_aliases(tree)
        imported = {
            alias.asname or alias.name: f"{node.module.split('.')[-1]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(path, aliases, imported, node.func), []).append(node)
    unset = []
    for qualname, param, index in _defaulted_parameters(trees):
        owner, name = qualname.rsplit(".", 1)
        # a method (module.Class.method) is matched by its name alone
        key = f".{name}" if "." in owner else qualname
        if qualname in ALLOWED or any(_sets(call, param, index) for call in calls.get(key, ())):
            continue
        unset.append(f"{qualname}({param}=)")
    assert sorted(unset) == sorted(ALLOWED_DEFAULTS)


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


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    reads = []
    for path, tree in _parsed(sorted(SRC.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
                reads.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names} & ENVIRONMENT_READS
                reads += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names)]
    assert reads == []


def _nodes_by_function(tree: ast.Module, test) -> list:
    """Names of the top-level functions whose bodies hold a node that
    passes test, once per such node."""
    return [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if test(node)
    ]


def _is_fraction_of_repr(call) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return (
        name == "Fraction"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Call)
        and isinstance(call.args[0].func, ast.Name)
        and call.args[0].func.id == "repr"
    )


def test_one_module_reads_a_float_by_its_repr():
    trees = _parsed(sorted(SRC.glob("*.py")))
    sites = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _nodes_by_function(tree, _is_fraction_of_repr)
    ]
    # a module-level statement is counted here only
    flat = sum(_is_fraction_of_repr(node) for tree in trees.values() for node in ast.walk(tree))
    assert sites == ["gf._decimal"] and flat == 1


def _actions(parser):
    """Every action of parser and of its subcommands' parsers."""
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_only_the_argparse_types_parse_a_fraction():
    # the reader is named only by --gamma's type and by the parser, whose
    # --zeta type is a partial of it (the --p type is one at module level)
    tree = ast.parse((SRC / "cli.py").read_text())
    users = _nodes_by_function(
        tree, lambda node: isinstance(node, ast.Name) and node.id == "_parse_fraction"
    )
    assert sorted(set(users)) == ["_gamma", "build_parser"]
    # and every rational flag of every subcommand, its default included, is
    # parsed by its type (code lrcheck's real --zeta among them)
    from nullcode import cli

    flags = [a for a in _actions(cli.build_parser()) if a.dest in ("p", "zeta", "gamma")]
    assert len(flags) == 10
    assert [a for a in flags if a.type is None or not (a.required or isinstance(a.default, str))] == []


def test_no_flag_is_read_by_int_or_float():
    tree = ast.parse((SRC / "cli.py").read_text())
    declared = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "type"
        and isinstance(keyword.value, ast.Name)
        and keyword.value.id in ("int", "float")
    ]
    assert declared == []
    # nor through a variable, as a loop over (name, type) pairs would pass it
    from nullcode import cli

    assert [a.dest for a in _actions(cli.build_parser()) if a.type in (int, float)] == []


def test_every_exception_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in _parsed(sorted(SRC.glob("*.py"))).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert sorted(classes - raised - {"NullcodeError"}) == []


# `module.name`, `module.Class.attr` or `_private`, a call's arguments ignored
DOC_NAME = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*|_\w+)(?:\([^`]*\))?`")
MISSING = object()


def test_every_backticked_name_in_the_docs_exists():
    modules = {"nullcode": importlib.import_module("nullcode")}
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"nullcode.{path.stem}")
    # every name bound anywhere in src/: definitions, assignments, attributes
    bound = set()
    for tree in _parsed(sorted(SRC.glob("*.py"))).values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                bound.add(node.attr)
    missing = []
    for path in [ROOT / "README.md", *sorted(SRC.glob("*.py"))]:
        for name in DOC_NAME.findall(path.read_text()):
            head, *rest = name.split(".")
            if not rest:
                found = name in bound
            elif head in modules:
                obj = reduce(lambda obj, attr: getattr(obj, attr, MISSING), rest, modules[head])
                found = obj is not MISSING
            else:
                continue  # an attribute of another object, such as `Rect.free`
            if not found:
                missing.append(f"{path.name}: {name}")
    assert missing == []
