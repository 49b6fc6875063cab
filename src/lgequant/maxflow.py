"""s/t maximum flow on sparse graphs by augmenting paths with tree reuse.

The solver grows a source tree and a sink tree simultaneously, augments along
the path found whenever the trees touch through a residual arc, and re-adopts
orphaned subtrees instead of rebuilding the search trees from scratch, which
suits grid graphs with short paths. After termination the minimum cut is read
off as the set of nodes reachable from the source in the residual graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DegenerateInputError, ParameterError

FREE, SOURCE_TREE, SINK_TREE = 0, 1, 2


class MaxFlowGraph:
    """Directed flow network with paired reverse arcs and two terminals."""

    def __init__(self, n_nodes: int, tails, heads, caps, rev_caps):
        """Edge k is arc 2k ``tails[k] -> heads[k]`` with capacity ``caps[k]``
        paired with arc 2k+1 back with ``rev_caps[k]``. Nodes are numbered
        0..n_nodes-1; ``n_nodes`` is the source and ``n_nodes + 1`` the sink.
        Each node lists its arcs in arc-id order.
        """
        if n_nodes < 1:
            raise ParameterError("graph needs at least one node")
        self.n = n_nodes
        self.source = n_nodes
        self.sink = n_nodes + 1
        owner = np.stack([tails, heads], axis=1).ravel().astype(np.int64)
        if owner.size and not (owner.min() >= 0 and owner.max() <= self.sink):
            raise ParameterError("arc endpoint outside the graph")
        cap = np.stack([caps, rev_caps], axis=1).ravel().astype(float)
        if not np.all((cap >= 0) & (cap < np.inf)):
            raise ParameterError("capacities must be finite and non-negative")
        self._to: list = np.stack([heads, tails], axis=1).ravel().tolist()
        self._cap: list = cap.tolist()
        order = np.argsort(owner, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(owner, minlength=self.sink + 1)).tolist()
        self._adj: list = [order[lo:hi] for lo, hi in zip([0] + bounds, bounds)]

    def solve(self) -> tuple:
        """Run max flow; returns (flow_value, source_side bool array of nodes)."""
        to, cap, adj = self._to, self._cap, self._adj
        s, t = self.source, self.sink
        n_total = self.n + 2
        tree = [FREE] * n_total
        parent_arc = [-1] * n_total
        dist = [0] * n_total
        stamp = [0] * n_total
        tree[s], tree[t] = SOURCE_TREE, SINK_TREE
        time = 1
        stamp[s] = stamp[t] = time
        active = deque([s, t])
        orphans = deque()
        flow = 0.0

        def parent_of(x: int) -> int:
            pa = parent_arc[x]
            if pa < 0:
                return -1
            return to[pa ^ 1] if tree[x] == SOURCE_TREE else to[pa]

        def has_valid_root(v: int) -> bool:
            path = []
            x = v
            while True:
                if x == s or x == t:
                    base = 0
                    break
                if stamp[x] == time:
                    base = dist[x]
                    break
                if parent_arc[x] < 0:
                    return False
                path.append(x)
                x = parent_of(x)
            for i, node in enumerate(reversed(path), 1):
                dist[node] = base + i
                stamp[node] = time
            return True

        def grow() -> int:
            while active:
                u = active[0]
                if tree[u] == FREE:
                    active.popleft()
                    continue
                u_tree = tree[u]
                for arc in adj[u]:
                    residual = cap[arc] if u_tree == SOURCE_TREE else cap[arc ^ 1]
                    if residual <= 0.0:
                        continue
                    v = to[arc]
                    if tree[v] == FREE:
                        tree[v] = u_tree
                        parent_arc[v] = arc if u_tree == SOURCE_TREE else arc ^ 1
                        dist[v] = dist[u] + 1
                        stamp[v] = stamp[u]
                        active.append(v)
                    elif tree[v] != u_tree:
                        return arc if u_tree == SOURCE_TREE else arc ^ 1
                active.popleft()
            return -1

        def augment(connect: int) -> float:
            # (node, parent arc) up the source tree, then up the sink tree.
            path = []
            for x in (to[connect ^ 1], to[connect]):
                while parent_arc[x] >= 0:
                    path.append((x, parent_arc[x]))
                    x = parent_of(x)
            bottleneck = min([cap[connect]] + [cap[arc] for _, arc in path])
            cap[connect] -= bottleneck
            cap[connect ^ 1] += bottleneck
            for x, arc in path:
                cap[arc] -= bottleneck
                cap[arc ^ 1] += bottleneck
                if cap[arc] <= 0.0:
                    parent_arc[x] = -1
                    orphans.append(x)
            return bottleneck

        def adopt():
            while orphans:
                u = orphans.popleft()
                u_tree = tree[u]
                best_arc = -1
                best_dist = None
                for arc in adj[u]:
                    v = to[arc]
                    if tree[v] != u_tree:
                        continue
                    residual = cap[arc ^ 1] if u_tree == SOURCE_TREE else cap[arc]
                    if residual <= 0.0:
                        continue
                    if not has_valid_root(v):
                        continue
                    if best_dist is None or dist[v] < best_dist:
                        best_dist = dist[v]
                        best_arc = arc
                if best_arc >= 0:
                    parent_arc[u] = best_arc ^ 1 if u_tree == SOURCE_TREE else best_arc
                    v = to[best_arc]
                    dist[u] = dist[v] + 1
                    stamp[u] = time
                    continue
                # no parent available: release u and destabilize its neighbors
                for arc in adj[u]:
                    v = to[arc]
                    if tree[v] != u_tree:
                        continue
                    residual = cap[arc ^ 1] if u_tree == SOURCE_TREE else cap[arc]
                    if residual > 0.0:
                        active.append(v)
                    if parent_arc[v] >= 0 and parent_of(v) == u:
                        parent_arc[v] = -1
                        orphans.append(v)
                tree[u] = FREE

        guard = 50 * len(self._to) + 10_000
        while True:
            connect = grow()
            if connect < 0:
                break
            time += 1
            flow += augment(connect)
            adopt()
            guard -= 1
            if guard <= 0:
                raise DegenerateInputError("max-flow did not terminate; capacities degenerate")

        seen = bytearray(n_total)
        seen[s] = 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in adj[u]:
                v = to[arc]
                if cap[arc] > 0.0 and not seen[v]:
                    seen[v] = 1
                    queue.append(v)
        return flow, np.frombuffer(seen, dtype=bool, count=self.n).copy()
