"""Cluster (cut) enumeration over decomposed cones.

CERES-style Boolean matching considers, for every gate of a cone, the
single-output subnetworks ("clusters") rooted there, bounded by a
maximum depth and a maximum number of cluster inputs.  The paper runs
all experiments with a depth bound of 5 (Tables 3–5).

Cones are fanout-free trees of base gates, so cluster enumeration is
the classical recursive cut enumeration on a tree.
"""

from __future__ import annotations

from typing import Optional

from ..boolean.expr import Expr, Var
from ..network.netlist import Netlist
from ..network.partition import Cone


class Cluster:
    """A candidate match region.

    ``root`` is the cluster output node; ``leaves`` the ordered input
    signals; ``depth`` the gate depth between leaves and root.

    ``parts`` holds, per fanin of the root gate, the absorbed child
    cluster, or ``None`` where the cluster cuts (the fanin is a leaf);
    :func:`cluster_expression` builds the expression from them, and
    :attr:`members` is derived from them.  Parts and the cached
    expression take no part in equality or hashing.

    Plain and slotted, not a frozen dataclass, whose ``__init__`` costs
    several times as much: covering builds thousands per cone.  Treat
    it as immutable all the same.
    """

    __slots__ = ("root", "leaves", "depth", "parts", "_expression")

    def __init__(
        self,
        root: str,
        leaves: tuple[str, ...],
        depth: int,
        parts: tuple[Optional["Cluster"], ...] = (),
    ) -> None:
        self.root = root
        self.leaves = leaves
        self.depth = depth
        self.parts = parts
        #: Set by :func:`cluster_expression`.
        self._expression: Optional[Expr] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cluster):
            return NotImplemented
        return (self.root, self.leaves, self.depth) == (
            other.root, other.leaves, other.depth
        )

    def __hash__(self) -> int:
        return hash((self.root, self.leaves, self.depth))

    def __repr__(self) -> str:
        return (
            f"Cluster(root={self.root!r}, leaves={self.leaves!r}, "
            f"depth={self.depth!r})"
        )

    @property
    def num_inputs(self) -> int:
        return len(self.leaves)

    @property
    def members(self) -> frozenset[str]:
        """The gate nodes replaced when the cluster is chosen: the root
        and the members of every absorbed part."""
        members = {self.root}
        for part in self.parts:
            if part is not None:
                members |= part.members
        return frozenset(members)


#: What a parent gate may take at one fanin: the absorbed cluster (or
#: ``None`` for a cut there), its ordered leaves, their bitmask over the
#: cone-local leaf index, and its depth.  A partial cluster has the same
#: shape, with the tuple of parts chosen so far in the first place.
_Option = tuple[Optional[Cluster], tuple[str, ...], int, int]


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

    A node's clusters are the product of its fanins' options — cut
    there, or absorb one of the fanin's clusters of depth below
    ``max_depth``, in that order — taken one fanin at a time, in
    lexicographic order.  A partial cluster carries its leaf set as a
    bitmask over a cone-local index, so a union is one ``|`` and the
    input bound one ``bit_count``; leaf tuples are concatenated, and
    filtered only where the masks overlap.  The product is lazy, so a
    capped node stops as soon as its cap is passed.

    A node keeps its first ``max_clusters_per_node`` clusters; the name
    of each node that had more is appended to ``capped`` when a list is
    given.
    """
    absorbable = set(cone.members).difference(cone.leaves)
    bits: dict[str, int] = {}
    clusters: dict[str, list[Cluster]] = {}
    # Per node, each of its clusters as a parent's option.
    options: dict[str, list[_Option]] = {}

    def node_clusters(name: str) -> None:
        if name in clusters:
            return
        partials = iter([((), (), 0, 0)])
        for fanin in netlist.nodes[name].fanins:
            bit = bits.get(fanin)
            if bit is None:
                bit = bits[fanin] = 1 << len(bits)
            fanin_options: list[_Option] = [(None, (fanin,), bit, 0)]
            if fanin in absorbable:
                node_clusters(fanin)
                fanin_options.extend(
                    option for option in options[fanin] if option[3] < max_depth
                )
            partials = _extend(partials, fanin_options, bits, max_inputs)
        result: list[Cluster] = []
        own: list[_Option] = []
        for parts, leaves, mask, depth in partials:
            if len(result) == max_clusters_per_node:
                # A cluster past the cap: stop the whole node here.
                if capped is not None:
                    capped.append(name)
                break
            cluster = Cluster(name, leaves, depth + 1, parts)
            result.append(cluster)
            own.append((cluster, leaves, mask, depth + 1))
        clusters[name] = result
        options[name] = own

    for member in cone.members:
        node_clusters(member)
    return clusters


def _extend(
    partials, fanin_options: list[_Option], bits: dict[str, int], max_inputs: int
):
    """Each partial cluster extended by each option of the next fanin,
    in order, skipping those past ``max_inputs`` leaves."""
    for parts, leaves, mask, depth in partials:
        for part, part_leaves, part_mask, part_depth in fanin_options:
            union = mask | part_mask
            if union.bit_count() > max_inputs:
                continue
            if mask & part_mask:
                part_leaves = tuple(
                    leaf for leaf in part_leaves if not bits[leaf] & mask
                )
            yield (
                parts + (part,),
                leaves + part_leaves,
                union,
                depth if depth >= part_depth else part_depth,
            )


def cluster_expression(netlist: Netlist, cluster: Cluster) -> Expr:
    """The cluster's structural expression over its leaf names.

    Pure substitution of the member gates' functions — the expression
    mirrors the subnetwork being replaced, which is what both matching
    (function) and the async filter (structure) need.  It equals
    ``netlist.collapse(cluster.root, stop_at=set(cluster.leaves))``
    node for node, but is built from the cluster's parts: the root
    gate's function with each absorbed fanin replaced by its part's
    expression.  Each expression is built once and kept on its cluster,
    so a part absorbed by many clusters of a cone is built once.
    """
    # Parts recurse through ``_expression``, so a timer wrapped around
    # this function sees one call per cluster covering asks for.
    return _expression(netlist, cluster)


def _expression(netlist: Netlist, cluster: Cluster) -> Expr:
    expr = cluster._expression
    if expr is None:
        expr = _substitute_parts(netlist, cluster)
        if expr is None:
            expr = netlist.collapse(cluster.root, stop_at=set(cluster.leaves))
        cluster._expression = expr
    return expr


def _substitute_parts(netlist: Netlist, cluster: Cluster) -> Optional[Expr]:
    """The root gate's function over its parts' expressions.

    ``None`` when the parts do not define the structure: a cluster
    built by hand (no parts), or a fanin the gate reads twice through
    two different child clusters, where only the stop set ``collapse``
    shares between them does.
    """
    node = netlist.nodes[cluster.root]
    if len(cluster.parts) != len(node.fanins):
        return None
    mapping: dict[str, Expr] = {}
    for fanin, part in zip(node.fanins, cluster.parts):
        # A fanin the gate reads twice and the cluster cuts at one
        # position is a leaf at both, as in ``collapse``.
        if fanin in cluster.leaves:
            mapping[fanin] = Var(fanin)
            continue
        sub = _expression(netlist, part)
        if mapping.setdefault(fanin, sub) is not sub:
            return None
    return node.func.substitute(mapping)
