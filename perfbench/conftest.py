"""Make the program's sources importable when pytest collects perfbench."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
