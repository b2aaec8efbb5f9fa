"""Entry point: ``python3 sdxbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs from the root of a source checkout: the controller under test is
imported from ``src/`` next to this directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"sdxbench: no controller source under {ROOT / 'src'}; "
            "run from the root of a repository checkout\n"
        )
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from sdxbench.harness import main

    sys.exit(main())
