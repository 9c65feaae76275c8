"""tracemalloc measurement shared by the memory tests."""

import tracemalloc


def traced(fn, *args, **kwargs):
    """Call fn(*args, **kwargs) with tracemalloc running.

    Returns (result, kept, peak): fn's result, the bytes still allocated
    when it returned and the highest allocation during the call, both
    above what was live when it started.
    """
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        kept, peak = (m - live for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, kept, peak
