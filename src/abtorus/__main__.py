"""Entry point for `python -m abtorus`."""
from .cli import main

main()
