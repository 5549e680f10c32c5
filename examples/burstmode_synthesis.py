"""Figure 1 end to end: burst-mode spec → hazard-free logic → mapped gates.

Builds the paper's Figure-1-style flow for a small handshake
controller:

1. write a burst-mode specification (states, input/output bursts);
2. synthesize hazard-free two-level equations with the exact
   Nowick–Dill minimizer (the paper's reference [12]);
3. map the combinational cloud with ``async_tmap`` onto a real library;
4. prove the specified input bursts are still glitch-free in gates.

Run:  python examples/burstmode_synthesis.py
"""

from repro import BurstModeSpec, async_tmap, load_library, synthesize
from repro.boolean.paths import label_expression
from repro.conformance import certify_mapping
from repro.hazards.oracle import classify_transition


def build_spec() -> BurstModeSpec:
    """A DMA-engine handshake: request/acknowledge plus a data strobe."""
    spec = BurstModeSpec(
        name="dma-ctrl",
        inputs=["req", "din"],
        outputs=["ack", "load"],
        initial_state="idle",
    )
    spec.add_transition("idle", ["req"], ["ack"], "armed")
    spec.add_transition("armed", ["req", "din"], ["ack", "load"], "draining")
    spec.add_transition("draining", ["din"], ["load"], "idle")
    spec.validate()
    return spec


def main() -> None:
    spec = build_spec()
    print(f"specification {spec.name}: {spec.stats()}")

    synthesis = synthesize(spec)
    print("\nhazard-free equations (inputs + state lines "
          f"{synthesis.state_bits}):")
    for target, cover in synthesis.equations.items():
        engine = "exact" if synthesis.details[target].exact else "heuristic"
        print(f"  {target:8s} = {cover.to_string(synthesis.variables):30s}"
              f" [{engine}]")

    network = synthesis.netlist()
    library = load_library("CMOS3")
    result = async_tmap(network, library)
    print(f"\nmapped onto {library.name}: area={result.area:.0f} "
          f"delay={result.delay:.2f}ns cells={result.cell_usage()}")

    certificate = certify_mapping(network, result.mapped, library)
    print(f"functional equivalence: {certificate.equivalent}, "
          f"hazard-safe: {certificate.hazard_safe}")

    print("\nspecified input bursts, replayed on the mapped gates:")
    for target in synthesis.equations:
        mapped_structure = label_expression(
            result.mapped.collapse(target), synthesis.variables
        )
        for transition in synthesis.transitions[target]:
            verdict = classify_transition(
                mapped_structure, transition.start, transition.end
            )
            status = "HAZARD" if verdict.logic_hazard else "clean"
            width = len(synthesis.variables)
            print(f"  {target:8s} {transition.start:0{width}b} -> "
                  f"{transition.end:0{width}b}: {status}")
            assert not verdict.logic_hazard


if __name__ == "__main__":
    main()
