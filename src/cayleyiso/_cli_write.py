"""The CLI's file writer, which ``cli.main`` loads only for ``--out`` or
``--emit-set``."""

from __future__ import annotations

import os
import stat


def _write_all(targets: list) -> None:
    """Write the text of every ``(path, text)`` target.

    A target that is a regular file, or does not exist yet, is written to a
    temporary beside it, after symlinks are followed; the temporaries are
    renamed onto their targets only after every write has succeeded, and
    are removed if one fails. An existing file keeps its permission bits.
    Other targets (``/dev/null``, a FIFO, a terminal) cannot be replaced and
    are written directly, after the temporaries and before the renames.
    """
    staged, direct = [], []
    for n, (path, text) in enumerate(targets):
        if os.path.exists(path) and not os.path.isfile(path):
            direct.append((path, text))
        else:
            real = os.path.realpath(path)
            staged.append((path, real, f"{real}.{os.getpid()}.{n}.tmp", text))
    try:
        for path, real, tmp, text in staged:
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(text)
                if os.path.exists(real):
                    os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
            except OSError as exc:  # name the target, not the temporary
                raise OSError(exc.errno, exc.strerror, path) from None
        for path, text in direct:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, real, tmp, _ in staged:
            try:
                os.replace(tmp, real)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for _, _, tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
