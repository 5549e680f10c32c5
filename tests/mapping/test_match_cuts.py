"""Tests for cluster enumeration and Boolean matching."""

import pytest

from repro.boolean.expr import parse
from repro.burstmode.benchmarks import synthesize_benchmark
from repro.library import minimal_teaching_library
from repro.mapping.cuts import cluster_expression, enumerate_clusters
from repro.mapping.match import expression_truth_table, match_cluster
from repro.network.decompose import async_tech_decomp
from repro.network.netlist import Netlist
from repro.network.partition import Cone, partition


def decomposed_single_cone(equations):
    net = Netlist.from_equations(equations)
    decomposed = async_tech_decomp(net)
    cones = partition(decomposed)
    return decomposed, cones


class TestClusterEnumeration:
    def test_trivial_cluster_always_present(self):
        decomposed, cones = decomposed_single_cone({"f": "a*b + c"})
        clusters = enumerate_clusters(decomposed, cones[0])
        for node, group in clusters.items():
            fanins = tuple(decomposed.nodes[node].fanins)
            assert any(set(c.leaves) == set(fanins) for c in group)

    def test_depth_limit_respected(self):
        decomposed, cones = decomposed_single_cone(
            {"f": "a*b*c*d + a'*b'*c'*d'"}
        )
        for cone in cones:
            clusters = enumerate_clusters(decomposed, cone, max_depth=2)
            for group in clusters.values():
                for cluster in group:
                    assert cluster.depth <= 2

    def test_input_limit_respected(self):
        decomposed, cones = decomposed_single_cone(
            {"f": "a*b*c*d + a'*b'*c'*d'"}
        )
        for cone in cones:
            clusters = enumerate_clusters(decomposed, cone, max_inputs=3)
            for group in clusters.values():
                for cluster in group:
                    assert cluster.num_inputs <= 3

    def test_cluster_expression_matches_network(self):
        decomposed, cones = decomposed_single_cone({"f": "a*b + c'"})
        cone = cones[0]
        clusters = enumerate_clusters(decomposed, cone)
        for cluster in clusters[cone.root]:
            expr = cluster_expression(decomposed, cluster)
            # evaluate both on a few points
            for point in range(8):
                env = {"a": bool(point & 1), "b": bool(point >> 1 & 1),
                       "c": bool(point >> 2 & 1)}
                full = decomposed.evaluate(env)
                cluster_env = {leaf: full[leaf] for leaf in cluster.leaves}
                assert expr.evaluate(cluster_env) == full[cluster.root]


def assert_expressions_equal_collapse(netlist, clusters):
    """Every cluster's part-built expression is node for node the
    reference ``collapse`` at its leaves; returns the cluster count."""
    count = 0
    for group in clusters.values():
        for cluster in group:
            expected = netlist.collapse(cluster.root, stop_at=set(cluster.leaves))
            assert cluster_expression(netlist, cluster) == expected, cluster
            count += 1
    return count


class TestClusterExpressionFromParts:
    @pytest.mark.parametrize("design", ["dme-fast", "pe-send-ifc", "oscsi-ctrl", "abcs"])
    @pytest.mark.parametrize("max_inputs", [6, 8])  # ACTEL's widest cell; default
    def test_equals_collapse_on_catalog_cones(self, design, max_inputs):
        decomposed = async_tech_decomp(synthesize_benchmark(design).netlist(design))
        count = 0
        for cone in partition(decomposed):
            clusters = enumerate_clusters(decomposed, cone, max_inputs=max_inputs)
            count += assert_expressions_equal_collapse(decomposed, clusters)
        assert count > 100

    def test_gate_reading_one_fanin_twice(self):
        # g reads x at fanin positions 0 and 2.  x (two clusters: cut t,
        # or absorb it) is a cone member here, so g's clusters cut x at
        # one position and absorb it at the other, or absorb two
        # different clusters of x; ``collapse`` makes x a leaf at both
        # positions as soon as one cuts it.
        net = Netlist()
        for name in "abcd":
            net.add_input(name)
        net.add_gate("t", parse("a*b"))
        net.add_gate("x", parse("t + c"))
        net.add_gate("g", parse("x*d + x'"), fanins=["x", "d", "x"])
        cone = Cone(root="g", members=["g", "x", "t"], leaves=list("abcd"))
        clusters = enumerate_clusters(net, cone)
        assert len(clusters["x"]) == 2
        assert len(clusters["g"]) == 9
        assert assert_expressions_equal_collapse(net, clusters) == 12
        # The clusters that cut x at one position and absorb it at the
        # other see x as a leaf at both.
        mixed = [
            c for c in clusters["g"]
            if "x" in c.leaves and "t" in c.members | set(c.leaves)
        ]
        assert mixed
        for cluster in mixed:
            assert cluster_expression(net, cluster) == parse("x*d + x'")


class TestMatching:
    def test_and2_matches(self, mini_library):
        matches = match_cluster(mini_library, parse("x*y"), ["x", "y"])
        assert any(m.cell.name == "AND2" for m in matches)

    def test_nand_matches_inverted_and(self, mini_library):
        matches = match_cluster(mini_library, parse("(x*y)'"), ["x", "y"])
        assert any(m.cell.name == "NAND2" for m in matches)

    def test_aoi_matches_three_gate_cluster(self, mini_library):
        matches = match_cluster(
            mini_library, parse("(x*y + z)'"), ["x", "y", "z"]
        )
        assert any(m.cell.name == "AOI21" for m in matches)

    def test_binding_transports_pins(self, mini_library):
        # OAI21 is ((a+b)*c)': cluster ((y+z)*x)' must bind c -> x.
        matches = match_cluster(
            mini_library, parse("((y + z)*x)'"), ["x", "y", "z"]
        )
        oai = next(m for m in matches if m.cell.name == "OAI21")
        fanins = oai.fanin_names(["x", "y", "z"])
        assert fanins[oai.cell.pins.index("c")] == "x"

    def test_degenerate_cluster_skipped(self, mini_library):
        # function ignores one leaf: no match.
        assert not match_cluster(mini_library, parse("x*y + x"), ["x", "y", "z"])

    def test_constant_cluster_skipped(self, mini_library):
        assert not match_cluster(mini_library, parse("x + x'"), ["x"])

    def test_truth_table_helper(self):
        table = expression_truth_table(parse("x*y"), ["x", "y"])
        assert table == 0b1000
