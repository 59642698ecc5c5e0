import ast
import inspect
import pathlib
import re
import sys

import sigmaevo
from sigmaevo import cli

SRC = pathlib.Path(sigmaevo.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    # a private name is its module's own: no other module imports it or
    # reads it as an attribute of the imported module
    found = []
    for path in sorted(SRC.glob("*.py")):
        siblings = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "sigmaevo"):
                found += [f"{path.name} imports {alias.name}" for alias in node.names
                          if _private(alias.name)]
                siblings.update(alias.asname or alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and _private(node.attr)):
                found.append(f"{path.name} reads {node.value.id}.{node.attr}")
    assert found == []


def _top_level_imports(node) -> list:
    """The top-level modules an import statement loads; a relative one's is sigmaevo."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    return ["sigmaevo" if node.level else node.module.split(".")[0]]


def test_the_package_imports_only_the_standard_library_and_numpy():
    # every import, deferred ones included
    allowed = set(sys.stdlib_module_names) | {"numpy", "sigmaevo"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} imports {name}"
                          for name in _top_level_imports(node) if name not in allowed]
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', dependencies) == ["numpy"]


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "vecdot", "polyfit"}
LAPACK_NAMES = {"linalg", "polynomial", "leggauss"}


def test_no_reduction_goes_through_blas_or_lapack():
    # a BLAS dot splits long sums across threads, so its last bits change
    # with the thread count; LAPACK (polyfit, linalg, and leggauss in numpy's
    # polynomial package, an eigensolve) costs resident memory.
    # The package reduces with numpy's own fixed-order kernels: einsum
    # without optimize (which would hand the contraction to BLAS), sum, mean
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} uses @")
            elif isinstance(node, ast.Attribute) and node.attr in LAPACK_NAMES:
                found.append(f"{where} reads {node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                found += [f"{where} imports {name}" for name in names
                          if LAPACK_NAMES & set(name.split(".")) or name in BLAS_CALLS]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in BLAS_CALLS:
                    found.append(f"{where} calls {name}")
                elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                    found.append(f"{where} calls einsum with optimize")
    assert found == []


FFT_TRANSFORMS = {f"{inv}{kind}fft{dims}" for inv in ("", "i") for kind in ("", "r", "h")
                  for dims in ("", "2", "n")}


def test_every_transform_goes_through_the_grid_pair():
    # one spectral transform pair: GridSpec.fft and GridSpec.ifft make the
    # only numpy.fft transform calls, so every transform has their passes
    # (and their bits); numpy.fft's frequency helpers may be read anywhere
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        pair = {id(node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "GridSpec"
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name in ("fft", "ifft")
                for node in ast.walk(item)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
                    and id(node) not in pair):
                found.append(f"{where} reads fft.{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = [f"{module}.{a.name}" if module else a.name for a in node.names]
                found += [f"{where} imports {name}" for name in names
                          if name.startswith("numpy.fft")]
    assert found == []


def test_only_write_table_creates_a_csv_writer():
    # one place formats the numbers of every table the package writes
    counts = {path.name: path.read_text().count("csv.writer(") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}
    assert "csv.writer(" in inspect.getsource(cli.write_table)


def test_every_public_name_is_reached_outside_the_tests():
    # a public function, class or method of the package is referenced from
    # the package itself, from the benchmark (whose spans install wrappers by
    # name, so a string counts) or from the acceptance suite; one that only
    # the unit tests call belongs in those tests, as their oracle
    root = pathlib.Path(__file__).resolve().parent.parent
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    readers = ([(path, False) for path in SRC.glob("*.py")]
               + [(path, True) for path in (root / "bench").glob("*.py")]
               + [(root / "tests" / "test_acceptance.py", False)])
    referenced = set()
    for path, strings in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    assert [qualified for qualified, name in defined if name not in referenced] == []
