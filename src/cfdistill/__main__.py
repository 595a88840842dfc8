"""``python -m cfdistill``: the same command as the ``cfdistill`` script."""

import sys

from .cli import main

sys.exit(main())
