"""Tests for the equations/BLIF interchange formats."""

import io

import pytest

from repro.burstmode.benchmarks import synthesize_benchmark
from repro.io import (
    FormatError,
    read_blif,
    read_equations,
    write_blif,
    write_equations,
)
from repro.mapping.mapper import async_tmap
from repro.network.netlist import Netlist


def round_trip(writer, reader, payload):
    buffer = io.StringIO()
    writer(payload, buffer)
    buffer.seek(0)
    return reader(buffer)


class TestEquations:
    def test_round_trip_simple(self):
        net = Netlist.from_equations({"f": "a*b + c'"})
        back = round_trip(write_equations, read_equations, net)
        assert back.equivalent(net)

    def test_round_trip_benchmark(self):
        net = synthesize_benchmark("dme").netlist("dme")
        back = round_trip(write_equations, read_equations, net)
        assert back.equivalent(net)

    def test_unused_declared_input_preserved(self):
        net = Netlist.from_equations({"f": "a"}, inputs=["a", "b"])
        back = round_trip(write_equations, read_equations, net)
        assert set(back.inputs) == {"a", "b"}

    def test_multiline_statement(self):
        text = ".inputs a b c\nf = a*b\n    + c;\n"
        net = read_equations(io.StringIO(text))
        assert net.evaluate({"a": 0, "b": 0, "c": 1})["f"]

    def test_missing_semicolon_rejected(self):
        with pytest.raises(FormatError):
            read_equations(io.StringIO("f = a*b"))

    def test_duplicate_target_rejected(self):
        with pytest.raises(FormatError):
            read_equations(io.StringIO("f = a; f = b;"))

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            read_equations(io.StringIO("# nothing\n"))


class TestBlif:
    def test_round_trip_unmapped(self):
        net = Netlist.from_equations({"f": "a*b + c", "g": "a'*c"})
        back = round_trip(write_blif, read_blif, net)
        assert back.equivalent(net)

    def test_round_trip_mapped_network(self, mini_library):
        net = Netlist.from_equations({"f": "s*a + s'*b + a*b"})
        mapped = async_tmap(net, mini_library).mapped
        back = round_trip(write_blif, read_blif, mapped)
        assert back.equivalent(mapped)

    def test_dont_care_rows(self):
        text = (
            ".model t\n.inputs a b\n.outputs f\n"
            ".names a b f\n1- 1\n-1 1\n.end\n"
        )
        net = read_blif(io.StringIO(text))
        assert net.evaluate({"a": 1, "b": 0})["f"]
        assert not net.evaluate({"a": 0, "b": 0})["f"]

    def test_undriven_output_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.end\n"
        with pytest.raises(FormatError):
            read_blif(io.StringIO(text))

    def test_bad_row_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.names a f\n2 1\n.end\n"
        with pytest.raises(FormatError):
            read_blif(io.StringIO(text))

    def test_buffer_to_output(self):
        text = (
            ".model t\n.inputs a b\n.outputs f\n"
            ".names a b x\n11 1\n.names x f\n1 1\n.end\n"
        )
        net = read_blif(io.StringIO(text))
        assert net.evaluate({"a": 1, "b": 1})["f"]
