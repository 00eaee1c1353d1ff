import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent
ROOT = HARNESS.parent.parent

for entry in (str(ROOT / "src"), str(HARNESS)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
