"""``python -m scpsolver``: the same command line as the ``scpsolver`` script."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
