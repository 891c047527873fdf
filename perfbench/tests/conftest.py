"""Make ``repro`` (src/) and the benchmark's modules importable."""

from pathlib import Path
import sys

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
