"""``python -m multibody``: the command line of multibody.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
