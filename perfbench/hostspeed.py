"""How fast the host is at a given moment.

On a shared host the same work can take twice as long from one minute to
the next.  reference() is fixed pure-Python work (calls, tuples, dict
updates, small strings) that is the same for every version of relmeta;
timing it next to a measurement gauges the host's speed at that moment,
and scale() turns that into the factor that brings the measurement to
the nominal speed.  This module imports nothing beyond the interpreter's
built-ins, so that a set-up probe can use it without timing extra imports.
"""

from time import perf_counter

# what one reference() run takes on the host the benchmark was tuned on
# when its neighbours leave it alone
REF_NOMINAL_S = 125e-6


def reference():
    d = {}
    for i in range(400):
        k = (i % 17, i % 5)
        d[k] = d.get(k, 0) + len(str(i))
    return d


def time_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor for a measurement bracketed by reference runs of `before`
    and `after` seconds."""
    return 2 * REF_NOMINAL_S / (before + after)


def median_reference(runs: int) -> float:
    ts = sorted(time_reference() for _ in range(runs))
    return ts[len(ts) // 2]
