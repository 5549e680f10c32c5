"""A "hand-style" reference cover for Table 3's comparison.

The paper compares the asynchronous mapper's output against manual
mappings that were never published.  As a stand-in we use the mapping a
careful engineer produces quickly with simple cells: one library cell
per base gate (a depth-1 cover, no cluster optimization), which is how
the ABCS/SCSI controllers of the era were hand-translated before
complex-gate absorption.  The paper's claim — automatic mapping lands
within ~13 % of (there, below) hand quality — is evaluated against this
reference.
"""

from __future__ import annotations

from typing import Optional

from ..library.library import Library
from ..network.netlist import Netlist
from .mapper import MappingOptions, MappingResult, async_tmap


def hand_style_reference(
    network: Netlist,
    library: Library,
    options: Optional[MappingOptions] = None,
) -> MappingResult:
    """Gate-per-gate asynchronous mapping (depth bound 1)."""
    base = options or MappingOptions()
    reference_options = MappingOptions(
        max_depth=1,
        max_inputs=base.max_inputs,
        objective=base.objective,
        filter_mode=base.filter_mode,
    )
    result = async_tmap(network, library, reference_options)
    result.mode = "hand-style"
    return result
