"""The process entry of `python -m metrotrade` and of the `metrotrade`
console script (pyproject.toml's [project.scripts] names `main` here)."""

import gc
import sys

from . import cli


def main() -> int:
    """Run the CLI on sys.argv and return its exit code.

    The heap is frozen on the way out: the interpreter's shutdown runs
    several full collections, and each would walk every object the
    imports left behind, while frozen objects sit in the permanent
    generation, which collections skip.  Only a process that is about
    to exit calls this; cli.main, the library call, leaves the
    collector as it found it.
    """
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
