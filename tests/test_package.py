"""Package surface and source hygiene: the export list, unused imports and private names."""

import ast
import importlib
from pathlib import Path

import pytest

import mfload

SOURCE = Path(mfload.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"

EXPORTED = {
    "CalibrationError", "ConfigError", "DegenerateSeriesError",
    "EstimationError", "InsufficientDataError",
    "DEFAULT_Q_GRID", "MultifractalSpectrum", "mfdfa",
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


def _package_imports(path: Path) -> list[str]:
    """Names a script imports with `from mfload import ...`, read from its syntax tree without running it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "mfload" for alias in node.names]


def test_demos_import_only_exported_names():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = [f"{path.name}: {name}" for path in demos for name in _package_imports(path)
               if name not in mfload.__all__]
    assert missing == []


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


def _key_path_messages(path: Path, sections) -> list[str]:
    """`ConfigError(...)` calls whose message starts with `<section>.`, an INI key path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    prefixes = tuple(f"{section}." for section in sections)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ConfigError"):
            continue
        head = node.args[0]
        if isinstance(head, ast.JoinedStr):
            head = head.values[0] if head.values else None
        if isinstance(head, ast.Constant) and isinstance(head.value, str) and head.value.startswith(prefixes):
            found.append(f"{path.name}:{node.lineno}: {head.value}")
    return found


def test_only_config_names_key_paths():
    # the library's rules name their own field; config maps it to its `section.key`
    from mfload.config import _KEYS
    paths = [SOURCE / f"{module}.py" for module in ("traffic", "simulation", "metrics", "fractal")]
    assert [entry for path in paths for entry in _key_path_messages(path, _KEYS)] == []


def test_key_path_check_sees_a_section_in_a_message(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('raise ConfigError(f"policy.kind: {kind}")\nraise ConfigError("depth: too deep")\n'
                    'raise errors.ConfigError("sim.seed: negative")\nraise ConfigError(f"{name}: bad")\n')
    assert _key_path_messages(path, ["policy", "sim"]) == ["mod.py:1: policy.kind: ", "mod.py:3: sim.seed: negative"]
