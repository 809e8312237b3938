import sys
from pathlib import Path

# the benchmark imports causalbox from the checkout it runs in
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
