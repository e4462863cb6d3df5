"""Set-up probe: a fresh interpreter up to the first trial being ready.

Usage: probe.py SRC_DIR SPACE_FILE OBJECTIVE_SPEC.  Imports ``wrsopt.cli``,
loads the space, builds the objective, then prints ``ready`` and exits.
``run.py`` times it from process start to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import wrsopt.cli  # noqa: E402,F401
from wrsopt.objectives import make_objective  # noqa: E402
from wrsopt.space import load_space  # noqa: E402

make_objective(sys.argv[3], load_space(sys.argv[2]))
print("ready", flush=True)
