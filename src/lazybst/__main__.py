"""``python -m lazybst``: the same command line as the ``lazybst`` script."""

from .cli import entry

entry()
