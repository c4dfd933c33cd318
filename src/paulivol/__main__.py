"""``python -m paulivol`` and the ``paulivol`` script: one CLI run per process.

``run`` turns the cyclic garbage collector off before the CLI or numpy is
imported, runs ``cli.main``, flushes stdout and stderr (a stream closed
before the run is None, and is skipped), and ends the process with
``os._exit``, or after a SIGINT by that signal, with no traceback: no module
teardown, final collection or freeing of the run's rows takes place.  A run
makes no reference cycles that grow with its size (``tests/test_entry.py``
checks each command at two sizes), so the collector would only walk live
objects.  argparse's own exits (``--help``, ``--version``, usage errors) and
any exception ``main`` does not handle leave the normal way.  ``main`` itself
neither touches the collector nor exits, so it can be called in process.
"""

import gc
import os
import sys


def run():
    gc.disable()
    try:
        from .cli import main
        code = main()
    except KeyboardInterrupt:  # ended below by the signal itself, not by a traceback
        code = None
    # main has written and flushed stdout, or reported that it could not; a
    # failed write stays buffered, and flushing it again fails the same way
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            pass
    if code is None:
        import signal
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    os._exit(code)


if __name__ == "__main__":
    run()
