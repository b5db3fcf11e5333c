"""Import hygiene: the package runs on NumPy alone, numpy.polynomial loads
only where it is called, no import goes unused, no module-level
private helper is left without a user and no option field goes unset.

No module imports SciPy, no CLI subcommand loads it, and the package
works with SciPy blocked from import; SciPy is a test-only dependency,
an oracle for the tests.  Each SciPy case runs in a fresh interpreter,
because the test process itself has SciPy loaded already.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sobocurve as sc
from sobocurve.counterexample import CounterexampleParams
from sobocurve.paths import SolverOptions

PACKAGE_DIR = Path(sc.__file__).resolve().parent

CHILD = """
import json, sys
import sobocurve, sobocurve.cli
code = sobocurve.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
polynomial = "numpy.polynomial" in sys.modules
print(json.dumps({"code": code, "scipy": loaded, "numpy_polynomial": polynomial}))
"""


def child_run(argv=(), script=CHILD):
    """Import sobocurve.cli and run main(argv), if given, in a fresh interpreter.

    Returns the child's report: exit code (None without argv), the loaded
    scipy modules and whether numpy.polynomial was loaded.  Another
    `script` reports what it prints as JSON on its last line.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_modules_after(argv=()):
    """The exit code and the loaded scipy modules of child_run(argv)."""
    result = child_run(argv)
    return result["code"], result["scipy"]


@pytest.fixture
def power_metric(tmp_path):
    metric = tmp_path / "metric.json"
    metric.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0, "form": "power", "b": 1.0, "p": -3.0},
                    {"k": 2, "form": "power", "b": 1.0, "p": 1.0},
                ],
            }
        )
    )
    return metric


def test_package_import_loads_no_scipy():
    code, loaded = scipy_modules_after()
    assert code is None
    assert loaded == []


def test_package_import_loads_no_numpy_polynomial():
    assert child_run()["numpy_polynomial"] is False


def test_analyze_power_law_loads_no_scipy(power_metric, tmp_path):
    out = tmp_path / "report.json"
    code, loaded = scipy_modules_after(
        ["analyze", "--metric", str(power_metric), "--output", str(out)]
    )
    assert code == 0
    assert loaded == []
    assert "classification" in json.loads(out.read_text())


def test_counterexample_loads_no_scipy(tmp_path):
    out = tmp_path / "report.json"
    code, loaded = scipy_modules_after(
        ["counterexample", "--case", "grow", "--p", "0.0", "--alpha", "10.0",
         "--nmax", "2", "--output", str(out)]
    )
    assert code == 0
    assert loaded == []


def test_validation_exit_loads_no_scipy(tmp_path):
    code, loaded = scipy_modules_after(
        ["analyze", "--metric", str(tmp_path / "missing.json")]
    )
    assert code == 2
    assert loaded == []


def test_distance_loads_no_scipy(power_metric, tmp_path):
    grid = sc.Grid(32)
    c0, c1 = tmp_path / "c0.json", tmp_path / "c1.json"
    sc.save_curve(sc.make_circle(1.0, (0, 0), grid), c0)
    sc.save_curve(sc.make_circle(2.0, (0, 0), grid), c1)
    out = tmp_path / "result.json"
    code, loaded = scipy_modules_after(
        ["distance", "--metric", str(power_metric), "--from", str(c0), "--to", str(c1),
         "--T", "8", "--output", str(out)]
    )
    assert code == 0
    assert loaded == []


def test_radial_loads_no_scipy(power_metric, tmp_path):
    curve = tmp_path / "c0.json"
    sc.save_curve(sc.make_circle(1.0, (0, 0), sc.Grid(32)), curve)
    out = tmp_path / "radial.json"
    code, loaded = scipy_modules_after(
        ["radial", "--metric", str(power_metric), "--curve", str(curve),
         "--from-scale", "1.0", "--to-scale", "3.0", "--output", str(out)]
    )
    assert code == 0
    assert loaded == []
    assert json.loads(out.read_text())["radial_length"] > 0.0


def test_analyze_tabulated_loads_no_scipy(tmp_path):
    metric = tmp_path / "metric.json"
    knots = [0.25, 0.5, 1.0, 2.0, 4.0]
    metric.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0, "form": "const", "b": 1.0},
                    {"k": 2, "form": "table", "knots": knots, "values": [x**1.5 for x in knots]},
                ],
            }
        )
    )
    out = tmp_path / "report.json"
    code, loaded = scipy_modules_after(["analyze", "--metric", str(metric), "--output", str(out)])
    assert code == 0
    assert loaded == []
    assert "classification" in json.loads(out.read_text())


def test_verify_loads_no_scipy(tmp_path):
    code, loaded = scipy_modules_after(
        ["verify", "--seed", "0", "--output", str(tmp_path / "verify.txt")]
    )
    assert code == 0
    assert loaded == []


TABULATED_CHILD = """
import json, sys
import numpy as np
from sobocurve.metric import Tabulated, coefficient_deriv, coefficient_eval
table = Tabulated((0.25, 0.5, 1.0, 2.0, 4.0), (0.1, 0.4, 0.3, 2.0, 9.0))
coefficient_eval(table, np.geomspace(0.1, 8.0, 64)), coefficient_deriv(table, 1.5)
print(json.dumps({"scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def test_tabulated_loads_no_scipy():
    assert child_run(script=TABULATED_CHILD)["scipy"] == []


NO_SCIPY_CHILD = """
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import sobocurve, sobocurve.cli
grid = sobocurve.Grid(32)
circle = sobocurve.make_circle(1.0, (0, 0), grid)
sobocurve.reparametrize(circle, grid.theta + 0.5)
codes = [sobocurve.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes}))
"""


def test_runs_with_scipy_blocked(power_metric, tmp_path):
    grid = sc.Grid(32)
    c0, c1 = tmp_path / "c0.json", tmp_path / "c1.json"
    sc.save_curve(sc.make_circle(1.0, (0, 0), grid), c0)
    sc.save_curve(sc.make_circle(2.0, (0, 0), grid), c1)
    table = tmp_path / "table.json"
    knots = [0.25, 0.5, 1.0, 2.0, 4.0]
    table.write_text(
        json.dumps(
            {
                "n": 2,
                "terms": [
                    {"k": 0, "form": "const", "b": 1.0},
                    {"k": 2, "form": "table", "knots": knots, "values": [x**1.5 for x in knots]},
                ],
            }
        )
    )
    runs = [
        ["verify", "--seed", "0", "--output", str(tmp_path / "verify.txt")],
        ["analyze", "--metric", str(table), "--output", str(tmp_path / "report.json")],
        ["distance", "--metric", str(power_metric), "--from", str(c0), "--to", str(c1),
         "--T", "8", "--output", str(tmp_path / "result.json")],
    ]
    assert child_run([json.dumps(runs)], script=NO_SCIPY_CHILD)["codes"] == [0, 0, 0]


def scipy_imports(source: str, module: str) -> list[str]:
    """Each SciPy import of a module, named by the function whose body holds
    it (``module.function``), or ``module:line`` outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(owner or f"{module}:{child.lineno}")
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_no_module_imports_scipy():
    found = {
        where
        for path in PACKAGE_DIR.glob("*.py")
        for where in scipy_imports(path.read_text(), path.stem)
    }
    assert found == set()


def test_scipy_import_scan_flags_module_level_imports():
    source = (
        "import numpy\n"
        "from scipy.fft import fft\n"
        "if True:\n    import scipy\n"
        "def f():\n    from scipy.interpolate import CubicSpline\n    return CubicSpline\n"
        "def g():\n    import scipyx\n"
    )
    assert scipy_imports(source, "m") == ["m:2", "m:4", "m.f"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references (``__future__`` excluded)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"),
)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE_DIR / module).read_text()) == []


def test_unused_import_scan_flags_dead_names():
    source = "import os\nfrom math import pi, tau\nimport numpy as np\nprint(pi, np.e)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 2)"]


def dead_helpers(sources: dict) -> list[str]:
    """Module-level ``_private`` functions and constants that no source uses.

    `sources` maps module names to source text.  A name counts as used
    where any module loads it, reads it as an attribute or imports it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [
                f"{module}.{name}" for name in names
                if name.startswith("_") and not name.startswith("__") and name not in used
            ]
    return sorted(found)


def test_no_dead_helpers():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert dead_helpers(sources) == []


def test_dead_helper_scan_flags_unused_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n_SCALE: float = 2.0\n__all__ = []\n"
            "def _power(x):\n    return x ** _SCALE\n"
            "def _shared():\n    return 1\n"
            "def _by_attribute():\n    return 2\n"
            "def public():\n    _local = 0\n    return _local\n"
        ),
        "b": "from .a import _shared\nfrom . import a\nprint(_shared(), a._by_attribute())\n",
    }
    assert dead_helpers(sources) == ["a._LIMIT", "a._power"]


def unpassed_fields(sources: dict, fields: dict) -> list[str]:
    """Fields that no call in `sources` passes to their class by keyword.

    `fields` maps a class name to its field names; a call counts when it
    names the class directly, as in ``SolverOptions(T=8)``.
    """
    passed = {name: set() for name in fields}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in passed:
                passed[node.func.id].update(kw.arg for kw in node.keywords)
    return sorted(
        f"{name}.{field}" for name, names in fields.items()
        for field in names if field not in passed[name]
    )


def test_every_option_field_is_set_by_the_package():
    # A field that only tests set is an option no user of the package can reach.
    fields = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in (SolverOptions, CounterexampleParams)
    }
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert unpassed_fields(sources, fields) == []


def test_unpassed_field_scan_flags_fields_set_nowhere():
    sources = {
        "a": "opts = Options(T=8, gap_tol=1e-9)\nOptions(max_iters=3)\n",
        "b": "Other(seed=1)\nmodule.Options(start=None)\nOptions(8)\n",
    }
    fields = {"Options": ["T", "gap_tol", "max_iters", "start", "seed"]}
    assert unpassed_fields(sources, fields) == ["Options.seed", "Options.start"]
