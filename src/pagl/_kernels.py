"""The Holme-Kim growth loop, compiled by numba when it is installed.

The kernel consumes pre-drawn uniform blocks instead of calling an RNG, so
the compiled and pure-Python variants walk the exact same random stream
and produce bit-identical graphs.  numba is optional; without it the same
function runs as plain Python.
"""

from __future__ import annotations

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False


def _hk_place_py(edges, ep, deg, head, tail, nxt, adst,
                 pending, v_start, n, m, p_t, buf, ec0):
    """Grow a Holme-Kim graph from vertex v_start until done or out of draws.

    Per new vertex v, m distinct targets are chosen: the first by a
    degree-preferential draw (uniform index into the committed endpoint
    list ``ep``), each later one with probability p_t by a triad step (a
    uniformly drawn eligible neighbor of the previous target, realized by
    rejection) and otherwise preferentially.  Ineligible candidates (equal
    to v or already chosen this round) are redrawn; an eligible neighbor
    always exists because every committed vertex has degree >= m while at
    most m-1 targets are pending.

    Nothing is committed until all m targets of a vertex are known, so
    running out of buffered draws mid-vertex just returns
    (v, draws_used_by_committed_vertices, edge_count); the caller refills
    the buffer with the unread tail plus fresh draws and re-enters, which
    keeps the consumed stream independent of the buffer size.

    Adjacency is a forward-linked edge-slot list (head/tail/nxt/adst) so
    both implementations enumerate neighbors in insertion order.
    """
    pos = 0
    ec = ec0
    for v in range(v_start, n):
        committed_pos = pos
        for k in range(m):
            if k > 0:
                if pos >= buf.shape[0]:
                    return v, committed_pos, ec
                coin = buf[pos]
                pos += 1
            else:
                coin = 1.0  # first edge is always preferential
            u = -1
            if coin < p_t:
                prev = pending[k - 1]
                dprev = deg[prev]
                for _attempt in range(64 * m + 64):
                    if pos >= buf.shape[0]:
                        return v, committed_pos, ec
                    idx = int(buf[pos] * dprev)
                    pos += 1
                    if idx >= dprev:
                        idx = dprev - 1
                    slot = head[prev]
                    for _ in range(idx):
                        slot = nxt[slot]
                    w = adst[slot]
                    ok = w != v
                    for j in range(k):
                        if pending[j] == w:
                            ok = False
                            break
                    if ok:
                        u = w
                        break
            if u < 0:
                ep_len = 2 * ec
                while True:
                    if pos >= buf.shape[0]:
                        return v, committed_pos, ec
                    idx = int(buf[pos] * ep_len)
                    pos += 1
                    if idx >= ep_len:
                        idx = ep_len - 1
                    w = ep[idx]
                    ok = w != v
                    for j in range(k):
                        if pending[j] == w:
                            ok = False
                            break
                    if ok:
                        u = w
                        break
            pending[k] = u
        for k in range(m):
            u = pending[k]
            edges[ec, 0] = v
            edges[ec, 1] = u
            ep[2 * ec] = v
            ep[2 * ec + 1] = u
            slot = 2 * ec
            if head[v] < 0:
                head[v] = slot
            else:
                nxt[tail[v]] = slot
            tail[v] = slot
            adst[slot] = u
            nxt[slot] = -1
            slot = 2 * ec + 1
            if head[u] < 0:
                head[u] = slot
            else:
                nxt[tail[u]] = slot
            tail[u] = slot
            adst[slot] = v
            nxt[slot] = -1
            deg[v] += 1
            deg[u] += 1
            ec += 1
    return n, pos, ec


if HAVE_NUMBA:
    hk_place = numba.njit(cache=True, nogil=True)(_hk_place_py)
else:  # pragma: no cover
    hk_place = _hk_place_py

hk_place_py = _hk_place_py
