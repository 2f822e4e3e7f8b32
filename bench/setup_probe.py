"""Import leggett_lab, parse the argv given, print "ready" and exit.

``run.py`` times this process from its spawn to the "ready" line: the set-up
a user pays before the first command starts.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from leggett_lab import cli  # noqa: E402

cli.parse_args(sys.argv[1:])
print("ready", flush=True)
