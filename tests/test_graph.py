"""Tests for the provenance DAG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CycleError, UnknownNodeError
from repro.provenance.graph import EdgeType, NodeRef, NodeType, ProvenanceGraph


def _graph_with(*refs):
    graph = ProvenanceGraph()
    for ref in refs:
        graph.add_node(ref, NodeType.FILE, name=ref.uuid)
    return graph


A = NodeRef("a", 0)
B = NodeRef("b", 0)
C = NodeRef("c", 0)


class TestNodeRef:
    def test_str_matches_paper_item_naming(self):
        assert str(NodeRef("uuid1", 2)) == "uuid1_2"

    def test_parse_roundtrip(self):
        ref = NodeRef("f-000123", 7)
        assert NodeRef.parse(str(ref)) == ref

    def test_parse_uuid_with_underscores(self):
        assert NodeRef.parse("a_b_3") == NodeRef("a_b", 3)

    def test_parse_malformed(self):
        for bad in ("nounderscore", "_5", "x_notanint"):
            with pytest.raises(ValueError):
                NodeRef.parse(bad)

    @given(
        st.from_regex(r"[a-z][a-z0-9\-]{0,12}", fullmatch=True),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_parse_inverts_str(self, uuid, version):
        ref = NodeRef(uuid, version)
        assert NodeRef.parse(str(ref)) == ref


class TestGraphConstruction:
    def test_add_node_idempotent(self):
        graph = ProvenanceGraph()
        first = graph.add_node(A, NodeType.FILE, name="a")
        second = graph.add_node(A, NodeType.PROC, name="other")
        assert first is second
        assert graph.node(A).node_type is NodeType.FILE

    def test_add_edge(self):
        graph = _graph_with(A, B)
        graph.add_edge(A, B, EdgeType.INPUT)
        assert [e.dst for e in graph.out_edges(A)] == [B]
        assert [e.src for e in graph.in_edges(B)] == [A]

    def test_last_out_edge(self):
        graph = _graph_with(A, B, C)
        assert graph.last_out_edge(A) is None
        graph.add_edge(A, B, EdgeType.VERSION)
        graph.add_edge(A, C, EdgeType.INPUT)
        assert graph.last_out_edge(A) == graph.out_edges(A)[-1]
        assert graph.last_out_edge(A).dst == C
        with pytest.raises(UnknownNodeError):
            graph.last_out_edge(NodeRef("z", 0))

    def test_edge_to_unknown_node(self):
        graph = _graph_with(A)
        with pytest.raises(UnknownNodeError):
            graph.add_edge(A, B, EdgeType.INPUT)
        with pytest.raises(UnknownNodeError):
            graph.add_edge(B, A, EdgeType.INPUT)

    def test_self_edge_rejected(self):
        graph = _graph_with(A)
        with pytest.raises(CycleError):
            graph.add_edge(A, A, EdgeType.INPUT)

    def test_two_cycle_rejected(self):
        graph = _graph_with(A, B)
        graph.add_edge(A, B, EdgeType.INPUT)
        with pytest.raises(CycleError):
            graph.add_edge(B, A, EdgeType.INPUT)

    def test_long_cycle_rejected(self):
        graph = _graph_with(A, B, C)
        graph.add_edge(A, B, EdgeType.INPUT)
        graph.add_edge(B, C, EdgeType.INPUT)
        with pytest.raises(CycleError):
            graph.add_edge(C, A, EdgeType.INPUT)

    def test_diamond_allowed(self):
        d = NodeRef("d", 0)
        graph = _graph_with(A, B, C, d)
        graph.add_edge(A, B, EdgeType.INPUT)
        graph.add_edge(A, C, EdgeType.INPUT)
        graph.add_edge(B, d, EdgeType.INPUT)
        graph.add_edge(C, d, EdgeType.INPUT)
        assert graph.ancestors(A) == {B, C, d}


class TestTraversal:
    def _chain(self, length):
        refs = [NodeRef(f"n{i}", 0) for i in range(length)]
        graph = _graph_with(*refs)
        for src, dst in zip(refs, refs[1:]):
            graph.add_edge(src, dst, EdgeType.INPUT)
        return graph, refs

    def test_ancestors_descendants(self):
        graph, refs = self._chain(5)
        assert graph.ancestors(refs[0]) == set(refs[1:])
        assert graph.descendants(refs[-1]) == set(refs[:-1])
        assert graph.ancestors(refs[-1]) == set()

    def test_max_depth(self):
        graph, _ = self._chain(5)
        assert graph.max_depth() == 4

    def test_max_depth_empty(self):
        assert ProvenanceGraph().max_depth() == 0

    def test_roots(self):
        graph, refs = self._chain(3)
        assert graph.roots() == [refs[-1]]

    def test_versions_of(self):
        graph = _graph_with(NodeRef("x", 2), NodeRef("x", 0), NodeRef("y", 1))
        assert graph.versions_of("x") == [NodeRef("x", 0), NodeRef("x", 2)]

    def test_counts(self):
        graph, _ = self._chain(4)
        assert len(graph) == 4
        assert graph.edge_count() == 3


class TestAcyclicityProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=60,
        )
    )
    def test_graph_never_admits_a_cycle(self, edges):
        """Whatever edge sequence is attempted, accepted edges never form
        a cycle: every node's ancestor set excludes itself."""
        graph = ProvenanceGraph()
        refs = [NodeRef(f"n{i}", 0) for i in range(16)]
        for ref in refs:
            graph.add_node(ref, NodeType.FILE)
        for src_index, dst_index in edges:
            try:
                graph.add_edge(refs[src_index], refs[dst_index], EdgeType.INPUT)
            except CycleError:
                continue
        for ref in refs:
            assert ref not in graph.ancestors(ref)
