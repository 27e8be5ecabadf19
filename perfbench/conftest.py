import sys
from pathlib import Path

# the tests import the library from this checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
