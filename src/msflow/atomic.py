"""The one way this package writes a file: whole, through a temporary file."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kwargs):
    """Write path + ".tmp" in the block, then rename it onto path.  On any
    failure remove it and leave an old file at path as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
