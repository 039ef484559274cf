"""``python -m leibniz``: the ``leibniz`` command, runnable from a source checkout."""

import sys

from .cli import main

sys.exit(main())
