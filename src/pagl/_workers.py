"""The one runner of pagl's independent seeded loops: bootstrap refits,
multiplicity samples and batches of generated graphs.  Each caller turns
its own seeds into generators, so one round may carry tasks of any
shape."""

import os
import signal

import numpy as np

peak_ru_maxrss = 0  # the largest ru_maxrss of the workers this process reaped


def map_seeds(one, seeds, threads):
    """``one(s)`` for every item of ``seeds``, stacked in item order.

    The items (a SeedSequence each, or a task that holds one) are cut into
    ``min(threads, len(seeds))`` contiguous chunks, so the results do not
    depend on ``threads``.  This process runs the
    first chunk and takes the results' dtype and shape from it; ``os.fork``
    children run the others and send raw bytes back through pipes.  Every
    child is reaped before this returns or raises; one that fails or sends
    short data raises ChildProcessError.  Forking is safe: pagl starts no
    thread, and numpy's BLAS pool resets itself in a forked child.
    """
    global peak_ru_maxrss
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got threads={threads}")
    if not seeds:
        return np.empty(0)

    def run(chunk):
        return np.array([one(s) for s in chunk])

    parts = min(threads, len(seeds)) if hasattr(os, "fork") else 1
    cuts = [len(seeds) * w // parts for w in range(parts + 1)]
    running, pipes = [], []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # send the chunk's bytes; exit 1 on any error
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(run(seeds[lo:hi]).tobytes())
                    status = 0
                finally:
                    os._exit(status)
            running.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        first = run(seeds[:cuts[1]])
        out = np.empty((len(seeds),) + first.shape[1:], first.dtype)
        out[:cuts[1]] = first
        item = first.nbytes // cuts[1]
        for lo, hi, pipe in zip(cuts[1:], cuts[2:], pipes):
            # read straight into the output; any excess counts as well
            got = (pipe.readinto(memoryview(out[lo:hi]).cast("B"))
                   + len(pipe.read()))
            _, status, usage = os.wait4(running.pop(0), 0)
            peak_ru_maxrss = max(peak_ru_maxrss, usage.ru_maxrss)
            status = os.waitstatus_to_exitcode(status)
            if status != 0 or got != item * (hi - lo):
                raise ChildProcessError(
                    f"worker for iterations {lo}..{hi - 1} exited with "
                    f"status {status} after sending {got // item} of "
                    f"{hi - lo} estimates")
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return out
