"""Source-tree layout: the package is plain Python sources only, the
oracle kernels use nothing beyond the standard library, each package
function and test helper is defined once, modular inverses are taken in one
place, and every package name the benchmark reads exists."""

import ast
import importlib
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "arithbilliards"
PERFBENCH = TESTS.parent / "perfbench"


def test_package_holds_only_python_sources():
    stray = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )
    assert stray == [], f"non-Python files in the package (no .c, .pyx or .so): {stray}"


def test_kernels_import_only_the_standard_library():
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    imported = set()
    from_package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module.startswith("arithbilliards"):
                from_package.update(f"{node.module}.{alias.name}" for alias in node.names)
    foreign = sorted({name.split(".")[0] for name in imported}
                     - set(sys.stdlib_module_names) - {"arithbilliards"})
    assert foreign == [], f"kernels imports non-stdlib modules (no numpy, no second lane): {foreign}"
    # the oracles stay independent of the closed-form helpers: from the
    # package they take only the CRT merge (solve_congruences, which folds
    # the crt_stages/_merge_stage merge that light_reachable runs), the
    # mixed-radix codec and the residue runs (one turn of a phase circle,
    # and its repetition)
    assert sorted(name for name in imported if name.startswith("arithbilliards")) == [
        "arithbilliards.core"]
    assert from_package == {"arithbilliards.core.solve_congruences",
                            "arithbilliards.core.encode_digits",
                            "arithbilliards.core.decode_digits",
                            "arithbilliards.core._cycle",
                            "arithbilliards.core._repeat"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_each_package_function_defined_once():
    # a primitive two modules need lives in one and is imported by the other;
    # two definitions would drift apart
    homes = {}
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes.setdefault(node.name, []).append(name)
    forked = {function: modules for function, modules in homes.items() if len(modules) > 1}
    assert forked == {}, f"functions defined in more than one package module: {forked}"


def _sites(tree, match, where="<module>"):
    """Yield the enclosing function name of each node that ``match`` accepts."""
    for node in ast.iter_child_nodes(tree):
        if match(node):
            yield where
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _sites(node, match, inner)


def _raises_budget(node):
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "BudgetExceededError"
    return False


def _budget_raises(tree):
    """Yield the enclosing function name of each ``raise BudgetExceededError``."""
    return _sites(tree, _raises_budget)


def test_one_budget_gate():
    modules = _modules()
    sites = [f"{name}.{where}" for name, tree in modules.items() for where in _budget_raises(tree)]
    assert sites == ["core.check_budget"], f"budget raised outside the one gate: {sites}"
    # only the gate reads the limit; __init__ re-exports it
    readers = sorted(
        name for name, tree in modules.items()
        if any("DEFAULT_STATE_BUDGET" in (getattr(node, "id", None), getattr(node, "attr", None),
                                          getattr(node, "name", None))
               for node in ast.walk(tree))
    )
    assert readers == ["__init__", "core"]


def test_only_the_library_charges_work():
    # the CLI takes its answers from laws and its checks from library oracles,
    # and each oracle charges its own work before it starts
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert "check_budget" not in names, "cli.py charges the budget itself"


def _modular_pow(node):
    """A three-argument ``pow``: a modular power or inverse."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow"
            and len(node.args) + len(node.keywords) == 3)


def test_one_modular_inverse():
    # the one CRT merge takes its inverses once per stage, in crt_stages
    sites = [f"{name}.{where}" for name, tree in _modules().items()
             for where in _sites(tree, _modular_pow)]
    assert sites == ["core.crt_stages"], f"modular pow outside crt_stages: {sites}"


def _perfbench_names():
    """Dotted names that ``perfbench/*.py`` reads from the package: its
    imports, attribute chains on the names those bind, and the function
    tables ``tracing`` patches by name."""
    tables = {"KERNEL_FUNCS": "arithbilliards.kernels.", "CORE_FUNCS": "arithbilliards.core.",
              "LAYERS": "arithbilliards."}
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "arithbilliards":
                        names.add(alias.name)
                        # "import a.b" binds a; "import a.b as c" binds c to a.b
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["arithbilliards"] = "arithbilliards"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "arithbilliards"):
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    prefix = tables.get(getattr(target, "id", None))
                    if prefix is not None:
                        names.update(prefix + entry.value for entry in node.value.elts)
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def _resolves(dotted):
    """Whether ``dotted`` names an attribute or a submodule, imported as needed."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_perfbench_names_exist():
    # the benchmark is read, not imported: a package name it uses must not
    # vanish in a refactor that leaves perfbench/ untouched
    names = _perfbench_names()
    assert {"arithbilliards.kernels.reach_scan", "arithbilliards.kernels.BACKEND",
            "arithbilliards.walks.OrbitIndex", "arithbilliards.core.GridSpec",
            "arithbilliards.core.step_directed", "arithbilliards.cli.main"} <= names
    missing = sorted(name for name in names if not _resolves(name))
    assert missing == [], f"names perfbench reads that the package lacks: {missing}"


def test_no_per_call_budget_parameters():
    knobs = sorted(
        f"{name}.{node.name}({arg.arg})"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg.startswith("max_")
    )
    # the one budget is core.DEFAULT_STATE_BUDGET
    assert knobs == [], f"per-call budget overrides: {knobs}"


def _test_modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))}


def test_each_test_helper_defined_once():
    # a helper or constant that two modules need lives in support.py and is
    # imported from there; two definitions would drift apart
    homes = {}
    for name, tree in _test_modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                continue
            for helper in defined:
                if not helper.startswith("test_"):
                    homes.setdefault(helper, []).append(name)
    forked = {helper: files for helper, files in homes.items() if len(files) > 1}
    assert forked == {}, f"helpers defined in more than one test module: {forked}"


def test_one_memory_probe():
    probes = sorted(
        name for name, tree in _test_modules().items()
        if any(isinstance(node, ast.Import) and any(a.name == "tracemalloc" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "tracemalloc"
               for node in ast.walk(tree))
    )
    assert probes == ["support.py"], f"tracemalloc used outside support.peak_bytes: {probes}"
