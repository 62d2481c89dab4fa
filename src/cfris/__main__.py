"""``python -m cfris``: the command line of cfris.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
