"""``python -m crashcast``: the same command line as the crashcast script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
