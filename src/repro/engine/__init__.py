"""Execution record — how the library runs its independent solves.

The paper's eq.-(18) decoupling splits the H2 machinery into
independent LTI subsystems whose Krylov chains could run in parallel.
Here they do not: every Krylov chain, tile copy and moment block runs
as a plain call, in one fixed order, on the calling thread.  On two
cores neither a thread nor a process pool sped up any fan-out, whose
tasks take milliseconds.  A traced n = 8192 pipeline pass spends
0.52 s of its 1.15 s in the eq.-(18) Π solve and 0.16 s in all
H1/H2/H3 chains together (README, "Execution").

:func:`worker_stats` reports ``{"backend": "serial", "workers": 1}``
for run records.  Shared caches stay thread-safe: the serve daemon's
handler threads call into them concurrently.
"""

__all__ = ["worker_stats"]


def worker_stats():
    """How solves execute: always ``{"backend": "serial", "workers": 1}``."""
    return {"backend": "serial", "workers": 1}
