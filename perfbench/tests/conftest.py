"""perfbench's modules are scripts beside run.py, not a package: put
their directory on the import path for the tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
