"""Entry point: ``python -m benchmarks.bench`` or ``python3 benchmarks/bench/__main__.py``.

Either form works from the repository root without ``PYTHONPATH``: the
root (for this package) and ``src`` (for ``repro``) are put on the
import path here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to some other installed copy of the program.
    sys.exit(f"benchmarks.bench: no src/repro under {ROOT} to benchmark")
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.bench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
