"""``python -m signcorr``: the ``signcorr`` command line."""

from .cli import run

run()
