"""`python -m strathom`: the `strathom` command."""
from .cli import main

raise SystemExit(main())
