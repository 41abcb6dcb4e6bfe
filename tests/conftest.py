"""
Some tests start ``python -m lensq.cli`` in a subprocess; put the source
tree the tests import on its path too, so a bare ``python -m pytest``
in a fresh checkout runs them against that tree.
"""

import os
from pathlib import Path

import lensq

_SRC = str(Path(lensq.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
