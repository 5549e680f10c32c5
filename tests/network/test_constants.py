"""Tests for constant (tie) nodes through the whole network stack."""

import pytest

from repro.boolean.expr import Const, parse
from repro.conformance import certify_mapping
from repro.library import minimal_teaching_library
from repro.mapping.mapper import async_tmap, tmap
from repro.network.decompose import async_tech_decomp, tech_decomp
from repro.network.netlist import Netlist, NetlistError
from repro.network.partition import partition


def const_net():
    net = Netlist("c")
    net.add_input("a")
    net.add_input("b")
    tie = net.add_constant("lo", False)
    gate = net.add_gate("g", parse("a*b"))
    net.add_output("z", tie)
    net.add_output("f", gate)
    return net


class TestConstantNodes:
    def test_add_and_evaluate(self):
        net = const_net()
        values = net.evaluate({"a": 1, "b": 1})
        assert values["z"] is False
        assert values["f"] is True

    def test_duplicate_name_rejected(self):
        net = const_net()
        with pytest.raises(NetlistError):
            net.add_constant("lo", True)

    def test_collapse_yields_const(self):
        net = const_net()
        expr = net.collapse("z")
        assert isinstance(expr, Const)
        assert expr.value is False

    def test_decompose_keeps_constants(self):
        decomposed = async_tech_decomp(const_net())
        assert decomposed.equivalent(const_net())
        consts = [n for n in decomposed.nodes.values() if n.is_constant()]
        assert len(consts) == 1

    def test_constant_folding_gate(self):
        # a gate whose function is constant after construction
        net = Netlist("cf")
        net.add_input("a")
        gate = net.add_gate("g", Const(True))
        net.add_output("f", gate)
        decomposed = tech_decomp(net)
        assert decomposed.evaluate({"a": 0})["f"] is True

    def test_partition_skips_constants(self):
        decomposed = async_tech_decomp(const_net())
        cones = partition(decomposed)
        for cone in cones:
            for member in cone.members:
                assert not decomposed.nodes[member].is_constant()

    def test_mapping_with_constant_output(self, mini_library):
        net = const_net()
        for mapper in (tmap, async_tmap):
            result = mapper(net, mini_library)
            assert result.mapped.equivalent(net)
            certificate = certify_mapping(net, result.mapped, mini_library)
            assert certificate.equivalent

    def test_ternary_simulation_with_constants(self):
        from repro.network.simulate import ONE, X, ZERO, simulate_ternary

        net = const_net()
        values = simulate_ternary(net, {"a": X, "b": ONE})
        assert values["z"] == ZERO
        assert values["f"] == X
