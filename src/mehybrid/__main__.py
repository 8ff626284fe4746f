"""``python -m mehybrid``: the command-line interface of `mehybrid.cli`."""
import sys

from .cli import main

if __name__ == "__main__":  # importing the module, as tests/test_exports.py does, runs nothing
    sys.exit(main())
