"""``python -m benchmarks.bench`` — see ``cli.py``."""

import sys

from .cli import main

sys.exit(main())
