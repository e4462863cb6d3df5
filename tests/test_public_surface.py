"""The package's public surface: README names every public name, each name
has one owner, no module imports a name it does not use, and the package
root exports the six names README lists.

A public name is a module-level function, class or upper-case constant of
a module of the package, without a leading ``_``.  README names it in a
code span, bare (`read_log`) or qualified by its module (`triallog.read_log`
or `wrsopt.triallog.read_log`), maybe followed by an attribute or a call
(`RunConfig.validate`, `fit_forest(trials, space, config, rng)`).  A command
line (`wrsopt compare`) or a spec (`builtin:sphere`) names nothing.  Only
the standard library's ``ast`` reads the sources.
"""

import ast
import collections
import pathlib
import re
import types

import wrsopt

PACKAGE = pathlib.Path(wrsopt.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _top_level(module: str) -> tuple[list[str], list[str]]:
    """The functions and classes a module's top level defines, and the
    names it assigns."""
    defs, assigned = [], []
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned += [t.id for t in targets if isinstance(t, ast.Name)]
    return defs, assigned


def public_names(module: str) -> list[str]:
    """The functions, classes and upper-case constants without a leading _."""
    defs, assigned = _top_level(module)
    return [n for n in defs + [a for a in assigned if a.isupper()] if not n.startswith("_")]


def readme_names() -> set[tuple[str | None, str]]:
    """(module, name) for each code span outside README's fenced blocks that
    reads as a name; module is None for a bare name."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    out = set()
    for span in re.findall(r"`([^`]+)`", text):
        parts = span.split("(", 1)[0].strip().split(".")
        if not all(p.isidentifier() for p in parts) or parts[-1] == "py":  # a file such as `objectives.py`
            continue
        if parts[0] == "wrsopt":
            parts = parts[1:]
        if len(parts) > 1 and parts[0] in MODULES:
            out.add((parts[0], parts[1]))
        elif parts:
            out.add((None, parts[0]))
    return out


def test_readme_names_every_public_name():
    named = readme_names()
    missing = [f"{m}.{n}" for m in MODULES for n in public_names(m) if (m, n) not in named and (None, n) not in named]
    assert missing == []


def test_readme_qualifies_a_name_by_the_module_that_defines_it():
    wrong = sorted(f"{m}.{n}" for m, n in readme_names() if m is not None and n not in sum(_top_level(m), []))
    assert wrong == []


def test_each_public_name_has_one_owner():
    owners = collections.Counter(n for m in MODULES for n in public_names(m))
    assert sorted(n for n, count in owners.items() if count > 1) == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for module in MODULES:
        tree = _tree(module)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}.py:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_the_package_root_exports_the_six_names_readme_lists():
    text = README.read_text(encoding="utf-8")
    sentence = text[text.index("The package root exports exactly these six names:"):]
    listed = set(re.findall(r"`([^`]+)`", sentence[: sentence.index(".")]))
    exported = {n for n, v in vars(wrsopt).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(listed) == 6
    assert exported == listed
