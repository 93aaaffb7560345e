"""`src/nsbox` holds only what its commands reach.

Every function, method and class defined in the package (dunders excepted)
must be referenced as code -- a name or an attribute -- somewhere in the
package outside its own definition, or be listed below with the reason it
stays.  A name in `__all__` or a docstring is not a reference.  The scan goes
by name, so a dead definition whose name another definition shares (the
several `mean`s, say) passes it.
"""

import ast
import pathlib
from collections import Counter

import nsbox

SRC = pathlib.Path(nsbox.__file__).parent

# definitions no command reaches, kept as reference implementations that the
# kernel tests compare against, or for the benchmark
ALLOWED = {
    "derivative": "reference for the physical gradients, the band restriction and the oracle "
                  "nonlinear term",
    "dealias": "reference for the band restriction and the oracle nonlinear term",
    "physical": "the benchmark's simulate set-up (bench/workloads.py) warms the inverse "
                "transform with it; snapshots no longer store samples",
}


def _references(node):
    """Names and attribute names read as code anywhere under `node`."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
    return refs


def unreached_definitions(src=SRC):
    """(module, name) of every definition referenced nowhere outside itself."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(src.glob("*.py"))}
    total = sum((_references(t) for t in trees.values()), Counter())
    out = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - _references(node)[name] <= 0:
                out.append((mod, name))
    return out


def test_every_definition_is_reached():
    unreached = [f"{mod}.{name}" for mod, name in unreached_definitions() if name not in ALLOWED]
    assert not unreached, f"defined in src/nsbox but referenced nowhere else: {unreached}"


def test_allowlist_is_current():
    # an allowlisted name that the package defines and does not reach
    unreached = {name for _, name in unreached_definitions()}
    assert set(ALLOWED) <= unreached
