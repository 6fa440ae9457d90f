"""``python -m movingsearch``: the same command line as ``movingsearch``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
