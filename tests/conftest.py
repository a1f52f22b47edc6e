"""Put the checkout's `src` first on PYTHONPATH.

pytest finds `igc` through `pythonpath` in pyproject.toml, and every other
command line runs in process through `cli_lines.run_igc`; only the `python`
processes of the tests in `cli_lines.LAUNCH_TESTS` read this variable, so
they import the same sources, with or without an installed igc.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
