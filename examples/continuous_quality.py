"""Continuous data quality: incremental detection + automatic repair.

Extensions built on the paper's machinery (the future-work items of its
Section 8): an :class:`IncrementalValidator` keeps
``Vio(Σ, G)`` current while the graph is edited — re-validating only the
affected data blocks, by the same locality argument that powers the
parallel algorithms — and ``apply_repairs`` proposes and applies minimal
value fixes.

Run:  python examples/continuous_quality.py
"""

from repro import PropertyGraph, det_vio, parse_gfd
from repro.core import IncrementalValidator
from repro.quality import apply_repairs, repair_plan


def main() -> None:
    graph = PropertyGraph()
    graph.add_node("au", "country", {"val": "Australia"})
    graph.add_node("canberra", "city", {"val": "Canberra"})
    graph.add_edge("au", "canberra", "capital")

    phi2 = parse_gfd(
        "x:country -capital-> y:city; x -capital-> z:city",
        " => y.val = z.val",
        name="unique-capital",
    )

    print("— live monitoring —")
    validator = IncrementalValidator([phi2], graph)
    print(f"initial violations: {len(validator.violations)}")

    validator.add_node("melbourne", "city", {"val": "Melbourne"})
    added = validator.add_edge("au", "melbourne", "capital")
    print(f"after inserting a second capital edge: +{len(added)} violations")

    removed_then = validator.set_attr("melbourne", "val", "Canberra")
    print(
        f"after renaming the city to agree: {len(validator.violations)} "
        f"violations remain"
    )
    validator.set_attr("melbourne", "val", "Melbourne")
    assert validator.violations == det_vio([phi2], graph)

    print("\n— automatic repair —")
    plan = repair_plan([phi2], graph)
    for fix in plan.fixes:
        print(f"  plan [{fix.kind}]: " +
              "; ".join(w.describe() for w in fix.writes))
    rounds, remaining = apply_repairs([phi2], graph)
    print(f"repaired in {rounds} round(s); remaining violations: "
          f"{len(remaining)}")
    print(f"capitals now: "
          f"{[graph.get_attr(n, 'val') for n in graph.nodes_with_label('city')]}")


if __name__ == "__main__":
    main()
