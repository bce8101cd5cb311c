"""The package graph of ``repro`` is a layered DAG, checked on the source.

Every import inside ``src/repro`` — at module level or lazily, inside a
function — must point *down* this order; packages on one rung are siblings
and may not import each other either:

    errors < {engine, metrics, bounds, reliability} < storage < kernels < core
           < {baselines, approx, mutability, workload, cluster} < api < serving

``datasets``, ``experiments`` and ``instrumentation`` sit outside the order as
leaves: they may import any layer, and no layer may import them.  The root
``repro/__init__.py`` is the public facade above everything, so no module
below it may import ``repro`` itself.  A new package fails the test until it
is given a place here, which makes a new layer a reviewable decision.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"

LAYERS = (
    ("errors",),
    ("engine", "metrics", "bounds", "reliability"),
    ("storage",),
    ("kernels",),
    ("core",),
    # cluster runs core's shard searchers in worker processes.
    ("baselines", "approx", "mutability", "workload", "cluster"),
    ("api",),
    ("serving",),
)
RANK = {package: rank for rank, rung in enumerate(LAYERS) for package in rung}
LEAVES = frozenset({"datasets", "experiments", "instrumentation"})

#: Known upward imports, (importing file, imported module) -> occurrences.
#: ``ShardedBondSearcher`` imports its executors lazily from ``cluster``, one
#: rung up.  It goes when the executor and the shared-memory module move
#: beside ``core/parallel.py``; that move waits for a change that may also
#: update ``bench/layers.py`` and ``bench/tracing.py``, which import
#: ``repro.cluster``, ``repro.cluster.executor`` and ``repro.core.parallel``
#: by these paths.
ALLOWANCES = {("core/parallel.py", "repro.cluster.executor"): 2}


def package_of(path: Path) -> str:
    """``core`` for ``core/bond.py``, ``errors`` for ``errors.py``, and
    ``repro`` for the root ``__init__.py``."""
    parts = path.relative_to(SOURCE).parts
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else parts[0].removesuffix(".py")


def imported_modules(tree: ast.AST):
    """``(line, module)`` for every ``repro`` import in ``tree``, lazy ones
    included; ``from repro import x`` names the submodule ``x`` when there is
    one, the root package otherwise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            if node.module != "repro":
                yield node.lineno, node.module
                continue
            for alias in node.names:
                submodule = SOURCE / alias.name
                exists = submodule.is_dir() or submodule.with_suffix(".py").is_file()
                yield node.lineno, f"repro.{alias.name}" if exists else "repro"


def target_package(module: str) -> str | None:
    """The ``repro`` package a module lives in (``None`` outside ``repro``)."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


def is_upward(source: str, target: str) -> bool:
    """Whether an import from package ``source`` breaks the order."""
    if source == target or source in LEAVES | {"repro"}:
        return False
    if target == "repro" or target in LEAVES:
        return True
    return RANK[target] >= RANK[source]


def sources():
    return sorted(SOURCE.rglob("*.py"))


def test_every_package_has_a_place():
    packages = {package_of(path) for path in sources()} - {"repro"}
    assert packages == set(RANK) | LEAVES


def test_no_import_points_up_the_order():
    upward, allowed = [], Counter()
    for path in sources():
        source = package_of(path)
        relative = path.relative_to(SOURCE).as_posix()
        for line, module in imported_modules(ast.parse(path.read_text(), str(path))):
            target = target_package(module)
            if target is None or not is_upward(source, target):
                continue
            if (relative, module) in ALLOWANCES:
                allowed[relative, module] += 1
            else:
                upward.append(f"{relative}:{line} -> {module}")
    assert upward == []
    # An allowance that is no longer needed must go too.
    assert dict(allowed) == ALLOWANCES


def test_the_order_itself():
    assert is_upward("kernels", "core")
    assert is_upward("engine", "metrics")  # siblings
    assert is_upward("core", "datasets")  # a leaf
    assert is_upward("storage", "repro")  # the facade
    assert not is_upward("core", "kernels")
    assert not is_upward("experiments", "api")
