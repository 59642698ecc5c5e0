import ast
import inspect
import pathlib

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


def test_only_write_table_creates_a_csv_writer():
    # one place formats the numbers of every table the package writes
    counts = {path.name: path.read_text().count("csv.writer(") for path in SRC.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}
    assert "csv.writer(" in inspect.getsource(cli.write_table)
