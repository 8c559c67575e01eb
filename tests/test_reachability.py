"""Every ``repro`` module is reachable from an entry point.

The walk follows ``import`` statements (including imports inside
functions) from the entry points: ``repro.cli``, ``repro.api``,
``repro.__main__`` and every non-test file under ``scripts/``,
``benchmarks/``, ``examples/`` and ``perfbench/``.  A package
``__init__``'s own imports confer no reachability -- re-exporting a
module does not make it used -- but ``from pkg import Name`` follows
``Name`` through the package's re-export chain to the module that
defines it.  A module nothing reaches is dead code: delete it, or call
it from an entry point.
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
ENTRY_MODULES = ("repro.cli", "repro.api", "repro.__main__")
ENTRY_DIRS = ("scripts", "benchmarks", "examples", "perfbench")


def module_index(src: Path) -> Dict[str, Path]:
    """Dotted name -> file for every module and package under src/repro."""
    index = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        index[".".join(parts)] = path
    return index


def is_package(path: Path) -> bool:
    return path.name == "__init__.py"


def import_nodes(path: Path) -> List[ast.AST]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def from_module(node: ast.ImportFrom, name: str, package: bool) -> str:
    """The absolute module an ``ImportFrom`` in module ``name`` reads."""
    if not node.level:
        return node.module or ""
    base = name.split(".")
    base = base[: len(base) - node.level + (1 if package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


class Walker:
    def __init__(self, index: Dict[str, Path]) -> None:
        self.index = index
        self.reached: Set[str] = set()

    def resolve(self, module: str, name: str) -> Set[str]:
        """Modules that ``from module import name`` reaches."""
        if f"{module}.{name}" in self.index:
            return {f"{module}.{name}"}
        path = self.index.get(module)
        if path is None:
            return set()
        if not is_package(path):
            return {module}
        tree = ast.parse(path.read_text(), filename=str(path))
        found: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                source = from_module(node, module, True)
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        found |= self.resolve(source, alias.name)
        return found

    def targets(self, path: Path, name: Optional[str]) -> Set[str]:
        """Modules the file at ``path`` (module ``name``, or ``None`` for
        an entry file outside src/repro) imports."""
        found: Set[str] = set()
        for node in import_nodes(path):
            if isinstance(node, ast.Import):
                found |= {alias.name for alias in node.names
                          if alias.name in self.index}
            elif node.level and name is None:
                continue  # relative import outside src/repro
            else:
                source = from_module(node, name or "", False)
                for alias in node.names:
                    found |= self.resolve(source, alias.name)
        return found

    def walk(self, starts: Set[str]) -> None:
        pending = list(starts)
        while pending:
            module = pending.pop()
            if module in self.reached:
                continue
            self.reached.add(module)
            path = self.index[module]
            if not is_package(path):
                pending.extend(self.targets(path, module) - self.reached)


def entry_files(root: Path) -> List[Path]:
    return sorted(
        path
        for folder in ENTRY_DIRS
        for path in (root / folder).rglob("*.py")
        if not path.name.startswith("test_") and path.name != "conftest.py"
    )


def unreached_modules(root: Path = ROOT) -> List[str]:
    walker = Walker(module_index(root / "src"))
    starts = set(ENTRY_MODULES)
    for path in entry_files(root):
        starts |= walker.targets(path, None)
    walker.walk(starts)
    return sorted(
        name for name, path in walker.index.items()
        if not is_package(path) and name not in walker.reached
    )


class TestReachability:
    def test_entry_points_exist(self):
        index = module_index(ROOT / "src")
        assert all(name in index for name in ENTRY_MODULES)
        assert entry_files(ROOT)

    def test_every_module_is_reached_from_an_entry_point(self):
        assert unreached_modules() == []

    def test_reexport_alone_does_not_reach(self, tmp_path):
        """A module only a package ``__init__`` imports stays unreached;
        ``from pkg import Name`` reaches the module that defines it."""
        pkg = tmp_path / "src" / "repro"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "sub" / "__init__.py").write_text(
            "from repro.sub.used import Used\n"
            "from repro.sub.dead import Dead\n"
        )
        (pkg / "sub" / "used.py").write_text("class Used: ...\n")
        (pkg / "sub" / "dead.py").write_text("class Dead: ...\n")
        (pkg / "cli.py").write_text(
            "def main():\n    from repro.sub import Used\n"
        )
        (pkg / "api.py").write_text("")
        (pkg / "__main__.py").write_text("import repro.cli\n")
        assert unreached_modules(tmp_path) == ["repro.sub.dead"]
