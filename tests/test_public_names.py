"""Every public name, private helper and private constant of the package
has a reader, so a name that nothing calls is deleted rather than kept.
Read from the source alone: nothing here imports the package, SciPy or the
benchmark."""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "horomink"
# oracle.py is independent of the fast paths by design, and its test-side
# helpers are read by tests only
OWN = sorted(path for path in PACKAGE.glob("*.py") if path.name not in ("__init__.py", "oracle.py"))
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


@cache
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(private: bool) -> dict:
    """name -> (module path, definition node) of every module-level function
    and class outside oracle.py, public or private (a leading underscore)."""
    found = {}
    for path in OWN:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private:
                found[node.name] = (path, node)
    return found


def private_constants() -> dict:
    """name -> (module path, assignment node) of every module-level
    _UPPER_CASE assignment outside oracle.py."""
    found = {}
    for path in OWN:
        for node in parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                name = getattr(target, "id", "")
                if name.startswith("_") and name.isupper():
                    found[name] = (path, node)
    return found


def exported() -> list:
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    raise AssertionError("horomink/__init__.py sets no __all__")


def reads(tree: ast.AST) -> tuple[set, set, set]:
    """(names loaded, attributes loaded, names imported by from-imports) in tree."""
    names, attributes, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
    return names, attributes, imported


def read_names(defined: dict) -> set:
    """The names of defined that a reader (outside __init__.py) reads."""
    read = set()
    for path in READERS:
        if path == PACKAGE / "__init__.py":
            continue
        tree = parse(path)
        imported = reads(tree)[2]
        for statement in tree.body:
            names, attributes, _ = reads(statement)
            # a bare name counts in its own module, outside its own
            # definition, and elsewhere where it was imported under it
            read |= {
                name
                for name, (own, node) in defined.items()
                if node is not statement
                and (name in attributes or (name in names and (path == own or name in imported)))
            }
    return read


def test_every_public_name_has_a_reader():
    defined = definitions(private=False)
    wanted = set(defined) | set(exported())
    assert wanted <= set(defined), f"exported but not defined: {sorted(wanted - set(defined))}"
    unread = wanted - read_names(defined)
    assert not unread, f"public names that nothing reads: {sorted(unread)}"


def test_every_private_helper_has_a_reader():
    # a private helper left behind by a refactor, with no caller, fails
    # here; the ones only the benchmark's tracer reaches pass by its targets
    defined = definitions(private=True)
    unread = set(defined) - read_names(defined) - {name for _, name in tracer_targets()}
    assert not unread, f"private helpers that nothing reads: {sorted(unread)}"


def test_every_private_constant_has_a_reader():
    # a constant left behind by a refactor, read only where it is set,
    # fails here, with the same readers and tracer targets as a helper
    defined = private_constants()
    assert "_ARC_TOL" in defined
    unread = set(defined) - read_names(defined) - {name for _, name in tracer_targets()}
    assert not unread, f"private constants that nothing reads: {sorted(unread)}"


def tracer_targets() -> set:
    """(module, attribute) of every t.wrap / t.replace in bench/tracer.py."""
    targets = set()
    for node in ast.walk(parse(ROOT / "bench" / "tracer.py")):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("wrap", "replace")
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            targets.add((node.args[0].id, node.args[1].value))
    return targets


def test_unused_imports_are_the_tracers():
    # an import kept only for the benchmark's tracer is marked noqa: F401;
    # each must name an attribute that the tracer wraps or replaces
    kept = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            code, marked, _ = line.partition("# noqa: F401")
            if marked:
                kept.add((path.stem, code.strip().rstrip(",").split()[-1]))
    assert kept <= tracer_targets(), f"noqa: F401 imports the tracer never touches: {sorted(kept - tracer_targets())}"


def constructor_calls(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "HConvexPolytope"
        for node in ast.walk(tree)
    )


def test_one_body_constructor_and_one_template():
    # every body is made in polytope._body, and no module but polytope reads
    # the boundary builder or a spec's directions template, so a second
    # body constructor or a second template cannot come back unseen
    own = PACKAGE / "polytope.py"
    for path in READERS:
        tree = parse(path)
        allowed = 0
        if path == own:
            body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_body")
            allowed = constructor_calls(body)
            assert allowed > 0
        else:
            names, attributes, imported = reads(tree)
            private = {"_exact_boundary", "_template"} & (names | attributes | imported)
            assert not private, f"{path.name} reads {sorted(private)}"
        assert constructor_calls(tree) == allowed, f"{path.name} calls HConvexPolytope outside polytope._body"
