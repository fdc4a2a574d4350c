"""``python -m qskein``: the qskein command line."""
from .cli import main

raise SystemExit(main())
