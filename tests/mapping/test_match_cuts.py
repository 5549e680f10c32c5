"""Tests for cluster enumeration and Boolean matching."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.boolean.expr import parse
from repro.burstmode.benchmarks import TABLE5_ORDER, synthesize_benchmark
from repro.library import minimal_teaching_library
from repro.mapping.cuts import cluster_expression, enumerate_clusters
from repro.mapping.match import expression_truth_table, match_cluster
from repro.network.decompose import async_tech_decomp, tech_decomp
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


@dataclass
class ReferenceCluster:
    root: str
    leaves: tuple
    members: frozenset
    depth: int
    parts: tuple


def reference_clusters(
    netlist, cone, max_depth=5, max_inputs=8, max_clusters_per_node=4000,
    capped=None,
):
    """The set-based recursive enumeration ``enumerate_clusters`` is
    checked against: each partial cluster carries a leaf list and a
    member set, and every step rebuilds their unions."""
    members = set(cone.members)
    leaves = set(cone.leaves)
    clusters: dict[str, list[ReferenceCluster]] = {}

    def node_clusters(name):
        if name in clusters:
            return clusters[name]
        node = netlist.nodes[name]
        result = []
        truncated = False
        options = []
        for fanin in node.fanins:
            opts: list[Optional[ReferenceCluster]] = [None]
            if fanin in members and fanin not in leaves:
                opts.extend(node_clusters(fanin))
            options.append(opts)
        chosen = [None] * len(options)

        def combine(index, leaf_acc, member_acc, depth_acc):
            nonlocal truncated
            if truncated:
                return
            if index == len(options):
                ordered = tuple(dict.fromkeys(leaf_acc))
                if len(ordered) > max_inputs:
                    return
                if (
                    max_clusters_per_node is not None
                    and len(result) >= max_clusters_per_node
                ):
                    truncated = True
                    return
                result.append(
                    ReferenceCluster(
                        name, ordered, frozenset(member_acc), depth_acc + 1,
                        tuple(chosen),
                    )
                )
                return
            fanin = node.fanins[index]
            for option in options[index]:
                chosen[index] = option
                if option is None:
                    if len(set(leaf_acc) | {fanin}) > max_inputs:
                        continue
                    combine(index + 1, leaf_acc + [fanin], member_acc, depth_acc)
                else:
                    if option.depth + 1 > max_depth:
                        continue
                    if len(set(leaf_acc) | set(option.leaves)) > max_inputs:
                        continue
                    combine(
                        index + 1,
                        leaf_acc + list(option.leaves),
                        member_acc | option.members,
                        max(depth_acc, option.depth),
                    )

        combine(0, [], {name}, 0)
        if truncated and capped is not None:
            capped.append(name)
        clusters[name] = result
        return result

    for member in cone.members:
        node_clusters(member)
    return clusters


def cluster_records(clusters):
    """Per node, in order, each cluster's root, leaves, depth, members
    and parts, a part named by its root and its index there."""
    index = {
        id(cluster): (node, position)
        for node, group in clusters.items()
        for position, cluster in enumerate(group)
    }
    return [
        (
            node,
            [
                (
                    c.root,
                    c.leaves,
                    c.depth,
                    c.members,
                    tuple(None if p is None else index[id(p)] for p in c.parts),
                )
                for c in group
            ],
        )
        for node, group in clusters.items()
    ]


def assert_enumeration_matches_reference(netlist, cone, **bounds):
    """Same clusters, in the same order, and the same capped nodes;
    returns the cluster count."""
    capped, reference_capped = [], []
    clusters = enumerate_clusters(netlist, cone, capped=capped, **bounds)
    reference = reference_clusters(
        netlist, cone, capped=reference_capped, **bounds
    )
    assert cluster_records(clusters) == cluster_records(reference)
    assert capped == reference_capped
    return sum(len(group) for group in clusters.values())


def fanout_leaf_cone():
    """``g = p*q`` with ``p = x + y`` and ``q = x + z``: leaf ``x``
    feeds both branches, so absorbing both overlaps their leaves."""
    net = Netlist()
    for name in "xyz":
        net.add_input(name)
    net.add_gate("p", parse("x + y"))
    net.add_gate("q", parse("x + z"))
    net.add_gate("g", parse("p*q"))
    return net, Cone(root="g", members=["g", "p", "q"], leaves=list("xyz"))


def repeated_fanin_cone():
    """``g`` reads ``x`` at fanin positions 0 and 2; ``x`` is a cone
    member with two clusters (cut ``t``, or absorb it)."""
    net = Netlist()
    for name in "abcd":
        net.add_input(name)
    net.add_gate("t", parse("a*b"))
    net.add_gate("x", parse("t + c"))
    net.add_gate("g", parse("x*d + x'"), fanins=["x", "d", "x"])
    return net, Cone(root="g", members=["g", "x", "t"], leaves=list("abcd"))


class TestEnumerationAgainstReference:
    @pytest.mark.parametrize("decompose", [async_tech_decomp, tech_decomp])
    @pytest.mark.parametrize(
        "max_depth,max_inputs", [(5, 6), (5, 8), (2, 8), (3, 4)]
    )
    def test_every_catalog_cone(self, decompose, max_depth, max_inputs):
        count = 0
        for design in TABLE5_ORDER:
            decomposed = decompose(synthesize_benchmark(design).netlist(design))
            for cone in partition(decomposed):
                count += assert_enumeration_matches_reference(
                    decomposed, cone, max_depth=max_depth, max_inputs=max_inputs
                )
        assert count > 1000

    @pytest.mark.parametrize("max_inputs", [2, 3, 8])
    def test_leaf_feeding_two_branches(self, max_inputs):
        net, cone = fanout_leaf_cone()
        assert_enumeration_matches_reference(net, cone, max_inputs=max_inputs)
        clusters = enumerate_clusters(net, cone, max_inputs=3)
        # Absorbing p and q reads x twice but lists it once, so the
        # cluster fits three inputs.
        whole = [c for c in clusters["g"] if c.members == {"g", "p", "q"}]
        assert [c.leaves for c in whole] == [("x", "y", "z")]

    @pytest.mark.parametrize("max_inputs", [3, 8])
    def test_gate_reading_one_fanin_twice(self, max_inputs):
        net, cone = repeated_fanin_cone()
        assert_enumeration_matches_reference(net, cone, max_inputs=max_inputs)

    def test_per_node_cap(self):
        net, cone = repeated_fanin_cone()
        capped = []
        clusters = enumerate_clusters(
            net, cone, max_clusters_per_node=2, capped=capped
        )
        assert capped == ["g"]
        assert len(clusters["g"]) == 2
        assert_enumeration_matches_reference(net, cone, max_clusters_per_node=2)
        count = 0
        for design in ("dme-fast", "oscsi-ctrl"):
            decomposed = async_tech_decomp(synthesize_benchmark(design).netlist(design))
            for cone in partition(decomposed):
                count += assert_enumeration_matches_reference(
                    decomposed, cone, max_clusters_per_node=2
                )
        assert count > 100


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
        # g's clusters cut x at one position and absorb it at the
        # other, or absorb two different clusters of x; ``collapse``
        # makes x a leaf at both positions as soon as one cuts it.
        net, cone = repeated_fanin_cone()
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
