"""Entry point for ``python -m varsep``; the same commands as ``varsep``."""

from .cli import main

main()
