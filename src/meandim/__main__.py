"""``python3 -m meandim``: the command-line interface."""

from .cli import main

raise SystemExit(main())
