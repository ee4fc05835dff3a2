"""``python -m currentgpd``: the same command line as ``currentgpd``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
