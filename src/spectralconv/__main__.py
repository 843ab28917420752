"""``python -m spectralconv``: the ``spectral`` command line."""
from .cli import main

main(prog_name="spectral")
