"""The process entry of `python -m metrotrade` and of the `metrotrade`
console script (pyproject.toml's [project.scripts] names `main` here)."""

import gc
import sys

# The imports below allocate tens of thousands of objects that live until
# exit.  The collector is held off while they run, which it would
# otherwise interrupt some thirty times, and they are then frozen, so that
# neither the first collection after it is back (it stays off if it was
# off) nor the interpreter's shutdown collections walk them all.
_collecting = gc.isenabled()
gc.disable()
try:
    from .cli import main
finally:
    gc.freeze()
    if _collecting:
        gc.enable()

if __name__ == "__main__":
    sys.exit(main())
