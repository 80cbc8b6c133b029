"""Package surface and source hygiene: the export list, unused imports and private names."""

import ast
import importlib
from pathlib import Path

import pytest

import mfload

SOURCE = Path(mfload.__file__).parent

EXPORTED = {
    "CalibrationError", "ConfigError", "DegenerateSeriesError",
    "EstimationError", "InsufficientDataError",
    "DEFAULT_Q_GRID", "HurstEstimate", "MultifractalSpectrum",
    "estimate_hurst_dfa", "mfdfa",
    "ImbalanceReport", "ResourceUtilization", "ServerSpec", "WeightTriple",
    "composite_load", "full_report", "resource_imbalance", "score_windows",
    "sil_value",
    "CalibrationTarget", "ClusterState", "DemandParams", "Policy", "PolicyKind",
    "ScenarioConfig", "ServiceClass", "Task", "arrivals_from_traffic",
    "dispatch", "homogeneous_cluster", "rebalance", "reference_cluster",
    "run_scenario", "step",
    "GeneratorKind", "GeneratorMeta", "TrafficSeries", "calibrate",
    "generate_cascade", "generate_composite", "generate_fgn",
    "generate_from_meta", "measure_scaling", "read_series_csv",
    "write_series_csv",
    "__version__",
}


def test_export_list_is_pinned():
    assert len(mfload.__all__) == len(set(mfload.__all__))
    assert set(mfload.__all__) == EXPORTED
    for name in mfload.__all__:
        assert hasattr(mfload, name), name


@pytest.mark.parametrize("module", ["cli", "config", "fractal", "metrics", "simulation", "traffic"])
def test_submodule_all_names_exist(module):
    # a stale entry makes `from mfload.<module> import *` raise AttributeError
    mod = importlib.import_module(f"mfload.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads or lists in `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_unused_import_check_sees_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport sys\nfrom math import pi, tau\n"
                    "__all__ = ['tau']\nprint(sys.argv, pi)\n")
    assert _unused_imports(path) == ["mod.py:1: os"]


def _unused_private_names(paths) -> list[str]:
    """Private module-level names (functions, classes, constants) that no module in `paths` reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unused


def test_no_unused_private_names():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert _unused_private_names(modules) == []


def test_unused_private_name_check_sees_an_unread_name(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("_LIMIT = 3\n_SPARE = 4\n_WIDTH: int = 5\n\n\ndef _helper():\n    return 1\n\n\n"
                 "class _Signal(Exception):\n    pass\n")
    b = tmp_path / "b.py"
    # read as a name, as an attribute and through an import
    b.write_text("import a\nfrom a import _helper\n\n_TABLE = {}\nprint(_helper(), a._LIMIT, _TABLE)\n")
    assert _unused_private_names([a, b]) == ["a.py:2: _SPARE", "a.py:3: _WIDTH", "a.py:10: _Signal"]
