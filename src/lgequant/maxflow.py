"""s/t maximum flow on sparse graphs by augmenting paths with tree reuse.

The solver (Boykov and Kolmogorov, IEEE TPAMI 2004) grows a source tree and a
sink tree simultaneously, augments along the path found whenever the trees
touch through a residual arc, and re-adopts orphaned subtrees instead of
rebuilding the search trees from scratch, which suits grid graphs with short
paths. When it stops, its source tree is the cut: the nodes reachable from the
source in the residual graph, the least source side of any minimum cut. Every
tree arc keeps residual capacity (a saturated one orphans its child, and
adoption runs to completion), and a source-tree node with a residual arc into
a node that leaves the tree is made active again, so once no active node is
left no residual arc leaves the source tree.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DegenerateInputError, ParameterError

FREE, SOURCE_TREE, SINK_TREE = 0, 1, 2
# By tree, the xor that turns an arc a node of that tree lists into the arc flow
# would cross: out of a source-tree node, into a sink-tree node. An arc seen
# from its other end takes a further ``^ 1``; a free node turns no arcs.
FLIP = (None, 0, 1)


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
        parent_arc = [-1] * n_total     # the arc that carries flow between a node and its parent
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
            return -1 if pa < 0 else to[pa ^ FLIP[tree[x]] ^ 1]

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
                u_tree, flip = tree[u], FLIP[tree[u]]
                for arc in adj[u]:
                    if cap[arc ^ flip] <= 0.0:
                        continue
                    v = to[arc]
                    if tree[v] == FREE:
                        tree[v] = u_tree
                        parent_arc[v] = arc ^ flip
                        dist[v] = dist[u] + 1
                        stamp[v] = stamp[u]
                        active.append(v)
                    elif tree[v] != u_tree:
                        return arc ^ flip
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
                u_tree, back = tree[u], FLIP[tree[u]] ^ 1   # for arcs u lists toward a parent
                best_arc = -1
                best_dist = None
                for arc in adj[u]:
                    v = to[arc]
                    if tree[v] != u_tree or cap[arc ^ back] <= 0.0 or not has_valid_root(v):
                        continue
                    if best_dist is None or dist[v] < best_dist:
                        best_dist = dist[v]
                        best_arc = arc
                if best_arc >= 0:
                    parent_arc[u] = best_arc ^ back
                    dist[u] = dist[to[best_arc]] + 1
                    stamp[u] = time
                    continue
                # no parent available: release u and destabilize its neighbors
                for arc in adj[u]:
                    v = to[arc]
                    if tree[v] != u_tree:
                        continue
                    if cap[arc ^ back] > 0.0:
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
        return flow, np.array(tree[:self.n]) == SOURCE_TREE
