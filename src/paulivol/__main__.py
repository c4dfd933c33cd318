"""``python -m paulivol`` and the ``paulivol`` script: one CLI run per process.

``run`` first restores SIGINT's default action, so an interrupt ends the
process by that signal wherever it lands, with no traceback and no exception
for numpy or any library to catch; text still in stdout's buffer is lost.  It
turns the cyclic garbage collector off before the CLI or numpy is imported,
runs ``cli.main``, flushes stdout and stderr (a stream closed before the run
is None, and is skipped), and ends the process with ``os._exit``: no module
teardown, final collection or freeing of the run's rows takes place.  A run
makes no reference cycles that grow with its size (``tests/test_entry.py``
checks each command at two sizes), so the collector would only walk live
objects.  argparse's own exits and any exception ``main`` does not handle
leave the normal way.  ``main`` touches neither the signal nor the collector
and does not exit, so in process a SIGINT stays a ``KeyboardInterrupt``.
"""

import _signal
import gc
import os
import sys


def run():
    # _signal, the builtin that signal wraps, is loaded at start-up, while
    # importing signal costs about 1 ms of every run
    _signal.signal(_signal.SIGINT, _signal.SIG_DFL)
    gc.disable()
    from .cli import main
    code = main()
    # main has written and flushed stdout, or reported that it could not; a
    # failed write stays buffered, and flushing it again fails the same way
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
