"""Stage records: every solve's report splits its query totals over its steps."""

import pytest

from sdhsp.acceptance import MODULAR_GRID_QUICK, VECTOR_GRID_QUICK, RunConfig, run_grid

MODULAR_CONFIGS = [
    (RunConfig(seed=7), (0,)),
    (RunConfig(seed=7, salts=4, salt_policy="fresh", generator_policy="scrambled"), (1,)),
]
VECTOR_CONFIGS = [
    (RunConfig(seed=7), (0,)),
    (RunConfig(seed=7, generator_policy="scrambled"), (1,)),
]
INNER_FAILED = "corrected generator's p-th power is outside H"


def expected_names(cell, stages) -> list[str]:
    """The documented order; the involution record follows a failed inner gate at p = 2."""
    if len(cell) == 3:
        return ["minimal_generating_set", "reduce", "pullback"]
    inner = next(s for s in stages if s["name"] == "inner")
    involution = ["involution"] if cell[0] == 2 and inner["note"] == INNER_FAILED else []
    return ["special_pair", "shift", "quotient", "inner", *involution, "filter"]


@pytest.mark.parametrize(
    "grid, configs",
    [(MODULAR_GRID_QUICK, MODULAR_CONFIGS), (VECTOR_GRID_QUICK, VECTOR_CONFIGS)],
    ids=["rank-one", "vector"],
)
def test_stage_queries_sum_to_the_report_totals(grid, configs):
    runs = 0
    for cell, _, label, _, cfg, res in run_grid(grid, configs):
        report = res.outcome.report
        stages = report["stages"]
        assert [s["name"] for s in stages] == expected_names(cell, stages), (cell, label)
        for key, total in report["queries"].items():
            assert sum(s["queries"][key] for s in stages) == total, (cell, label, cfg, key)
        assert report["confident"] == all(s["confident"] is not False for s in stages)
        assert res.match and res.outcome.confident
        runs += 1
    assert runs == 2 * (10 + 11)  # two configs over 10 and 11 subgroups, in both families
