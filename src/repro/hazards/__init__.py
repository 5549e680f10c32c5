"""Hazard analysis algorithms (paper section 4)."""

from .analyzer import (
    HazardAnalysis,
    SubsetViolation,
    analyze_cover,
    analyze_expression,
    find_subset_violation,
    hazards_subset,
    static1_census,
)
from .dynamic import (
    exhibits_mic_dynamic,
    find_mic_dyn_haz_2level,
    has_mic_dynamic_hazard,
    theorem41_condition,
)
from .multilevel import find_mic_dyn_haz_multilevel, transition_has_hazard
from .oracle import (
    TransitionKind,
    TransitionVerdict,
    classify_all,
    classify_transition,
    enumerate_hazards,
    hazard_subset,
    is_logic_hazard_free,
)
from .removal import (
    RemovalReport,
    make_hazard_free_for,
    remove_static1,
    remove_vacuous,
    repair_summary,
)
from .sic import find_sic_dynamic_hazards
from .static0 import find_static0_hazards
from .static1 import (
    exhibits_static1,
    find_sic_static1_hazards,
    find_static1_hazards,
    find_static1_hazards_complete,
    has_static1_hazard,
    static1_subset,
)
from .transition import dynamic_fhf, is_fhf, static_fhf, transition_space
from .types import (
    HazardSummary,
    MicDynamicHazard,
    SicDynamicHazard,
    Static0Hazard,
    Static1Hazard,
)
from .witness import (
    ALL_KINDS,
    HazardWitness,
    WitnessReplay,
    analysis_witnesses,
    glitch_schedule,
    replay_witness,
    verify_witness,
    witness_for_record,
    witness_for_verdict,
    witness_netlist,
)

__all__ = [
    "ALL_KINDS",
    "HazardAnalysis",
    "HazardSummary",
    "HazardWitness",
    "MicDynamicHazard",
    "RemovalReport",
    "SicDynamicHazard",
    "Static0Hazard",
    "Static1Hazard",
    "SubsetViolation",
    "TransitionKind",
    "TransitionVerdict",
    "WitnessReplay",
    "analysis_witnesses",
    "analyze_cover",
    "analyze_expression",
    "classify_all",
    "classify_transition",
    "find_subset_violation",
    "glitch_schedule",
    "dynamic_fhf",
    "enumerate_hazards",
    "exhibits_mic_dynamic",
    "exhibits_static1",
    "find_mic_dyn_haz_2level",
    "find_mic_dyn_haz_multilevel",
    "find_sic_dynamic_hazards",
    "find_sic_static1_hazards",
    "find_static0_hazards",
    "find_static1_hazards",
    "find_static1_hazards_complete",
    "has_mic_dynamic_hazard",
    "has_static1_hazard",
    "hazard_subset",
    "hazards_subset",
    "is_fhf",
    "is_logic_hazard_free",
    "make_hazard_free_for",
    "remove_static1",
    "remove_vacuous",
    "repair_summary",
    "replay_witness",
    "static1_census",
    "static1_subset",
    "static_fhf",
    "theorem41_condition",
    "transition_has_hazard",
    "transition_space",
    "verify_witness",
    "witness_for_record",
    "witness_for_verdict",
    "witness_netlist",
]
