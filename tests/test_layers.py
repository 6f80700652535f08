"""The layer rules of ``src/arrayaudit``, read from the source with ``ast``:
the runner (``audit``) is the one module that builds a ``Finding``, the
command line (``cli``) is the one module that parses arguments, no module
depends on the command line, ingest is the one module that hands text to
numpy's text readers, and the kernels are the one module that calls the
all-pairs column scans."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arrayaudit"


def _modules_where(pred) -> set[str]:
    """File names of the package's modules with a node that satisfies ``pred``."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in PACKAGE.glob("*.py")}
    return {name for name, tree in trees.items() if any(pred(node) for node in ast.walk(tree))}


def _imported(node) -> list[str]:
    """Dotted names an import statement binds, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base}.{alias.name}" if node.module else base + alias.name for alias in node.names]
    return []


def test_only_the_runner_builds_findings():
    def builds(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "Finding" or getattr(node.func, "attr", None) == "Finding"
        )

    assert _modules_where(builds) == {"audit.py"}


def test_only_the_command_line_imports_argparse():
    def imports_argparse(node):
        return any(name.split(".")[0] == "argparse" for name in _imported(node))

    assert _modules_where(imports_argparse) == {"cli.py"}


def test_no_module_imports_the_command_line():
    def imports_cli(node):
        return any(name in (".cli", "arrayaudit.cli") for name in _imported(node))

    assert _modules_where(imports_cli) == set()


def test_only_ingest_calls_numpys_text_readers():
    # text-to-number conversion, and the grammar checks around it, stay in one place
    def reads_text(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in ("loadtxt", "genfromtxt")
            or getattr(node.func, "attr", None) in ("loadtxt", "genfromtxt")
        )

    assert _modules_where(reads_text) == {"ingest.py"}


def test_only_the_kernels_call_the_all_pairs_column_scans():
    # one correlation graph: detectors reach the scans through correlated_components
    scans = ("column_correlations", "pairwise_complete_column_correlations")

    def calls_a_scan(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in scans or getattr(node.func, "attr", None) in scans
        )

    assert _modules_where(calls_a_scan) == {"_kernels.py"}
