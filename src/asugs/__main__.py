"""``python -m asugs``: the command-line driver, as the ``asugs`` script."""

import sys

from asugs.cli import main

if __name__ == "__main__":
    sys.exit(main())
