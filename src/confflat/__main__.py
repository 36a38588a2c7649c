"""`python -m confflat`: the command line front end, as the `confflat`
script runs it (`PYTHONPATH=src python -m confflat verify s3xs1` from a
checkout)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
