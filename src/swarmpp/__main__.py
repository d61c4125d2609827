"""`python3 -m swarmpp ...` runs the command line, as the installed `swarmpp` does."""

import sys

from .cli import main

sys.exit(main())
