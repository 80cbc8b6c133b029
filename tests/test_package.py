"""Package surface and source hygiene: the export list and unused imports."""

import ast
from pathlib import Path

import mfload

SOURCE = Path(mfload.__file__).parent

EXPORTED = {
    "CalibrationError", "ConfigError", "DegenerateSeriesError", "DomainError",
    "EstimationError", "InsufficientDataError",
    "DEFAULT_Q_GRID", "HurstEstimate", "HurstMethod", "MultifractalSpectrum",
    "estimate_hurst_dfa", "estimate_hurst_rs", "mfdfa", "structure_function",
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
