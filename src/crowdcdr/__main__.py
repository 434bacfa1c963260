"""The ``crowdcdr`` console script, also run by ``python -m crowdcdr``.

Its process runs the command as ``python -m crowdcdr.cli`` does: the
cyclic collector off before numpy loads, which ``crowdcdr.cli`` does
only where it is ``__main__`` itself, and frozen at exit.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    from .cli import command
    return command()


if __name__ == "__main__":
    sys.exit(main())
