"""Cluster (cut) enumeration over decomposed cones.

CERES-style Boolean matching considers, for every gate of a cone, the
single-output subnetworks ("clusters") rooted there, bounded by a
maximum depth and a maximum number of cluster inputs.  The paper runs
all experiments with a depth bound of 5 (Tables 3–5).

Cones are fanout-free trees of base gates, so cluster enumeration is
the classical recursive cut enumeration on a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..network.netlist import Netlist
from ..network.partition import Cone


@dataclass(frozen=True)
class Cluster:
    """A candidate match region.

    ``root`` is the cluster output node; ``leaves`` the ordered input
    signals; ``members`` the gate nodes replaced when the cluster is
    chosen; ``depth`` the gate depth between leaves and root.
    """

    root: str
    leaves: tuple[str, ...]
    members: frozenset[str]
    depth: int

    @property
    def num_inputs(self) -> int:
        return len(self.leaves)


def enumerate_clusters(
    netlist: Netlist,
    cone: Cone,
    max_depth: int = 5,
    max_inputs: int = 8,
    max_clusters_per_node: Optional[int] = 4000,
    capped: Optional[list[str]] = None,
) -> dict[str, list[Cluster]]:
    """All clusters rooted at each cone member, bounded by depth/inputs.

    Returns a map node → clusters.  The trivial cluster (the node's own
    base gate with its fanins as leaves) is always present, so a cover
    exists whenever the library can realize the base functions.

    A node keeps its first ``max_clusters_per_node`` clusters; the name
    of each node that had more is appended to ``capped`` when a list is
    given.
    """
    members = set(cone.members)
    leaves = set(cone.leaves)
    clusters: dict[str, list[Cluster]] = {}

    def node_clusters(name: str) -> list[Cluster]:
        if name in clusters:
            return clusters[name]
        node = netlist.nodes[name]
        result: list[Cluster] = []
        truncated = False
        # Choice per fanin: stop (leaf) or absorb the fanin's clusters.
        options: list[list[Optional[Cluster]]] = []
        for fanin in node.fanins:
            opts: list[Optional[Cluster]] = [None]  # None = cut here
            if fanin in members and fanin not in leaves:
                opts.extend(node_clusters(fanin))
            options.append(opts)

        def combine(index: int, leaf_acc: list[str], member_acc: set[str], depth_acc: int) -> None:
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
                    # A cluster past the cap: stop the whole node here.
                    truncated = True
                    return
                result.append(
                    Cluster(
                        root=name,
                        leaves=ordered,
                        members=frozenset(member_acc),
                        depth=depth_acc + 1,
                    )
                )
                return
            fanin = node.fanins[index]
            for option in options[index]:
                if option is None:
                    if len(set(leaf_acc) | {fanin}) > max_inputs:
                        continue
                    combine(index + 1, leaf_acc + [fanin], member_acc, depth_acc)
                else:
                    if option.depth + 1 > max_depth:
                        continue
                    merged = set(leaf_acc) | set(option.leaves)
                    if len(merged) > max_inputs:
                        continue
                    combine(
                        index + 1,
                        leaf_acc + list(option.leaves),
                        member_acc | set(option.members),
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


def cluster_expression(netlist: Netlist, cluster: Cluster):
    """The cluster's structural expression over its leaf names.

    Pure substitution of the member gates' functions — the expression
    mirrors the subnetwork being replaced, which is what both matching
    (function) and the async filter (structure) need.
    """
    return netlist.collapse(cluster.root, stop_at=set(cluster.leaves))
