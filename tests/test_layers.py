"""The layer rules of ``src/arrayaudit``, read from the source with ``ast``:
the runner (``audit``) is the one module that builds a ``Finding``, the
command line (``cli``) is the one module that parses arguments, no module
depends on the command line, ingest is the one module that hands text to
numpy's text readers, the detectors reach correlations only through the
one scan of the kernels, rows are centered one way (``_kernels.center_rows``,
never numpy's NaN-aware moments), values are rounded one way (only
``transform`` calls ``round`` or ``around``), values are logged one way
(only ``transform`` calls numpy's ``log``), no module imports scipy
(numpy is the one runtime dependency), no ``def`` has a parameter
default that is a bare name (a function looked up at call time can be replaced by a
tracer), and every name the benchmark's tracer wraps still resolves but
for the five it has yet to retire."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arrayaudit"


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


def test_no_module_imports_scipy():
    def imports_scipy(node):
        return any(name.split(".")[0] == "scipy" for name in _imported(node))

    assert _modules_where(imports_scipy) == set()


def test_only_ingest_calls_numpys_text_readers():
    # text-to-number conversion, and the grammar checks around it, stay in one place
    def reads_text(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in ("loadtxt", "genfromtxt")
            or getattr(node.func, "attr", None) in ("loadtxt", "genfromtxt")
        )

    assert _modules_where(reads_text) == {"ingest.py"}


def test_detectors_reach_correlations_only_through_the_one_scan():
    # dup, blocks and match: one kernel, looked up by name at call time
    def kernel_names(name):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernels"
        }

    # and the transform layer centers rows by the scan's own row rule
    names = ("dupscan.py", "integrity.py", "matchscan.py", "transform.py")
    assert {name: kernel_names(name) for name in names} == {
        "dupscan.py": {"correlated_components"},
        "integrity.py": {"correlated_components"},
        "matchscan.py": {"cross_row_correlations"},
        "transform.py": {"center_rows"},
    }
    assert _modules_where(lambda node: any("_kernels." in name for name in _imported(node))) == set()


def test_no_module_calls_corrcoef():
    def calls_corrcoef(node):
        return isinstance(node, ast.Call) and "corrcoef" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )

    assert _modules_where(calls_corrcoef) <= {"_kernels.py"}


def test_no_module_calls_nan_aware_moments():
    # a row's moments over its finite cells come from _kernels.center_rows
    def calls_nan_moments(node):
        return isinstance(node, ast.Call) and bool(
            {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {"nanmean", "nanstd", "nanvar"}
        )

    assert _modules_where(calls_nan_moments) == set()


def test_only_transform_rounds():
    # the round step and the reuse check share transform.round_values
    def rounds(node):
        return isinstance(node, ast.Call) and bool(
            {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {"round", "around"}
        )

    assert _modules_where(rounds) == {"transform.py"}


def test_only_transform_takes_numpys_log():
    # the dup check's compare_on="log" goes through the log step
    def logs(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log"
            and getattr(node.func.value, "id", None) in ("np", "numpy")
        )

    assert _modules_where(logs) == {"transform.py"}


def test_no_parameter_default_is_a_bare_name():
    # a default such as ``generator=select_top_genes`` binds the function
    # when the module loads, out of reach of a tracer that replaces it; a
    # lambda may still capture a loop variable that way
    def bare_name_default(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(default, ast.Name) for default in node.args.defaults + node.args.kw_defaults
        )

    assert _modules_where(bare_name_default) == set()


def test_the_benchmark_tracer_wraps_names_that_resolve():
    # a target that no longer resolves is skipped and its metrics read 0:
    # a refactor that renames a traced function blinds that layer
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = {
        f"{module.__name__.rpartition('.')[2]}.{attr}" for module, attr, _, _ in tracing.targets() if not hasattr(module, attr)
    }
    assert unresolved == {
        "cli.validate",
        "_kernels.column_correlations",
        "_kernels.pairwise_complete_column_correlations",
        "integrity.confounding_findings",
        "integrity.sentinel_check",
    }
