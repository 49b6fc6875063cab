import numpy as np
import pytest

from lgequant.errors import DegenerateInputError, ParameterError
from lgequant.maxflow import MaxFlowGraph


def per_edge_arrays(n_nodes, tails, heads, caps, rev_caps):
    """The per-edge builder the array constructor replaced, kept as its oracle.

    Edge k appends arc u->v to u's list, then the paired arc v->u to v's list.
    """
    to, cap, adj = [], [], [[] for _ in range(n_nodes + 2)]
    for u, v, c, r in zip(tails, heads, caps, rev_caps):
        adj[int(u)].append(len(to))
        to.append(int(v))
        cap.append(float(c))
        adj[int(v)].append(len(to))
        to.append(int(u))
        cap.append(float(r))
    return to, cap, adj


def random_graph(rng, n_nodes, n_edges):
    """Arcs between all nodes and both terminals, with zero, duplicate and self arcs."""
    tails = rng.integers(0, n_nodes + 2, size=n_edges)
    heads = rng.integers(0, n_nodes + 2, size=n_edges)
    pool = np.array([0.0, 0.5, 1.0, 2.5])                # repeats and zeros
    caps = np.where(rng.random(n_edges) < 0.5, rng.choice(pool, n_edges),
                    rng.uniform(0.0, 3.0, n_edges))
    rev_caps = np.where(rng.random(n_edges) < 0.5, caps, rng.choice(pool, n_edges))
    if n_edges >= 4:                                      # a repeated edge
        tails[1], heads[1], caps[1], rev_caps[1] = tails[0], heads[0], caps[0], rev_caps[0]
    return tails, heads, caps, rev_caps


def graph_from(n_nodes, to, cap, adj):
    graph = MaxFlowGraph(n_nodes, [], [], [], [])
    graph._to, graph._cap, graph._adj = to, cap, adj
    return graph


class TestArrayConstructor:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_edge_builder(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 40))
        edges = random_graph(rng, n_nodes, int(rng.integers(0, 200)))
        graph = MaxFlowGraph(n_nodes, *edges)
        to, cap, adj = per_edge_arrays(n_nodes, *edges)
        assert graph._to == to
        assert graph._cap == cap
        assert graph._adj == adj
        assert len(graph._to) // 2 == len(edges[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_solve_equals_solve_on_per_edge_lists(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_nodes = int(rng.integers(1, 60))
        edges = random_graph(rng, n_nodes, int(rng.integers(1, 300)))
        flow, side = MaxFlowGraph(n_nodes, *edges).solve()
        flow_o, side_o = graph_from(n_nodes, *per_edge_arrays(n_nodes, *edges)).solve()
        assert flow == flow_o
        assert np.array_equal(side, side_o)

    def test_empty_graph(self):
        graph = MaxFlowGraph(3, np.zeros(0, dtype=int), np.zeros(0, dtype=int), [], [])
        assert graph._adj == [[], [], [], [], []]
        flow, side = graph.solve()
        assert flow == 0.0 and not side.any()

    def test_two_terminal_path(self):
        graph = MaxFlowGraph(1, [1, 0], [0, 2], [2.0, 1.5], [0.0, 0.0])
        flow, side = graph.solve()
        assert flow == 1.5 and side.tolist() == [True]


class TestConstructorRejects:
    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -1.0])
    def test_bad_capacity(self, cap):
        with pytest.raises(ParameterError):
            MaxFlowGraph(2, [0, 1], [1, 3], [1.0, cap], [0.0, 0.0])
        with pytest.raises(ParameterError):
            MaxFlowGraph(2, [0, 1], [1, 3], [1.0, 1.0], [cap, 0.0])

    @pytest.mark.parametrize("tails, heads", [([0, -1], [1, 2]), ([0, 1], [4, 2])])
    def test_endpoint_outside_graph(self, tails, heads):
        with pytest.raises(ParameterError):
            MaxFlowGraph(2, tails, heads, [1.0, 1.0], [0.0, 0.0])

    def test_no_nodes(self):
        with pytest.raises(ParameterError):
            MaxFlowGraph(0, [], [], [], [])


def test_non_terminating_solve_is_a_typed_error():
    graph = MaxFlowGraph(1, [1, 0], [0, 2], [1.0, 1.0], [0.0, 0.0])
    graph._cap = [float("nan")] * len(graph._cap)   # NaN residuals never saturate
    with pytest.raises(DegenerateInputError):
        graph.solve()
