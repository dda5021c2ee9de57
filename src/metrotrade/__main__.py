"""The process entry of `python -m metrotrade` and of the `metrotrade`
console script (pyproject.toml's [project.scripts] names `main` here)."""

import gc
import sys

# The imports below allocate tens of thousands of objects that live until
# exit.  The collector is held off while they run, which it would
# otherwise interrupt some thirty times, and they are then frozen, so that
# the first collection after it is back (it stays off if it was off)
# does not walk them all.
_collecting = gc.isenabled()
gc.disable()
try:
    from . import cli
finally:
    gc.freeze()
    if _collecting:
        gc.enable()


def main() -> int:
    """Run the CLI on sys.argv and return its exit code.

    The heap is frozen again on the way out: the interpreter's shutdown
    runs several full collections, and each would walk every object the
    run left behind, while frozen objects sit in the permanent
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
