"""``python -m ucc``: the same command line as the ``ucc`` console script."""

from .cli import main

main()
