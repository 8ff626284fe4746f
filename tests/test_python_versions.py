"""The package supports Python 3.10 (``requires-python``), and CI runs a 3.10 job.
Parsing every source file with the 3.10 grammar catches newer syntax, such as
``except*``, on any interpreter.  It checks syntax only: a standard-library
function or argument added after 3.10 still passes."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_parses_as_python_3_10():
    sources = sorted([*(ROOT / "src" / "mehybrid").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert ROOT / "src" / "mehybrid" / "cli.py" in sources and Path(__file__).resolve() in sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
