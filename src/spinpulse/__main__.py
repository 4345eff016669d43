"""``python -m spinpulse``: the command-line runner (see ``spinpulse.cli``)."""

import sys

from .cli import main

sys.exit(main())
