"""Tests for the batched design-space runner: grid expansion, memoization,
strategy selection and deterministic reporting."""

import pytest

from repro.explore import (
    AUTO,
    DesignPoint,
    ExplorationRunner,
    best_by,
    comparison_report,
    coverage_summary,
    expand_grid,
    is_valid_point,
    resolve_strategy,
    results_table,
)
from repro.rtl import COMPILED, FIXPOINT

SMALL_GRID = dict(designs=("saa2vga",), pixel_formats=("gray8",),
                  frame_sizes=((8, 4),), capacities=(8, 16))


# -- grid expansion -------------------------------------------------------------


def test_expand_grid_cartesian_product_and_order():
    points = expand_grid(designs=("saa2vga",), pixel_formats=("gray8", "rgb24"),
                         frame_sizes=((8, 4), (12, 6)), capacities=(8, 16))
    # 2 bindings x 2 formats x 2 sizes x 2 capacities.
    assert len(points) == 16
    assert points == expand_grid(
        designs=("saa2vga",), pixel_formats=("gray8", "rgb24"),
        frame_sizes=((8, 4), (12, 6)), capacities=(8, 16)), \
        "expansion must be deterministic"
    # Nesting order: binding varies slowest among the non-design axes.
    assert [p.binding for p in points[:8]] == ["fifo"] * 8
    assert [p.binding for p in points[8:]] == ["sram"] * 8


def test_expand_grid_fills_in_supported_bindings():
    points = expand_grid(designs=("saa2vga", "blur"), frame_sizes=((8, 4),),
                         capacities=(8,))
    bindings = {(p.design, p.binding) for p in points}
    assert bindings == {("saa2vga", "fifo"), ("saa2vga", "sram"),
                        ("blur", "linebuffer")}


def test_expand_grid_drops_invalid_combinations():
    # blur never supports rgb24 pixels or the fifo binding.
    points = expand_grid(designs=("blur",), bindings=("fifo", "linebuffer"),
                         pixel_formats=("gray8", "rgb24"),
                         frame_sizes=((8, 4),), capacities=(8,))
    assert len(points) == 1
    assert points[0].binding == "linebuffer"
    assert points[0].pixel_format == "gray8"
    # A frame too small for the 3x3 window is dropped too.
    assert expand_grid(designs=("blur",), frame_sizes=((2, 2),),
                       capacities=(8,)) == []


def test_is_valid_point_reasons():
    ok, reason = is_valid_point(DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8))
    assert ok and reason is None
    for point, fragment in [
        (DesignPoint("nosuch", "fifo", "gray8", 8, 4, 8), "unknown design"),
        (DesignPoint("saa2vga", "linebuffer", "gray8", 8, 4, 8), "binding"),
        (DesignPoint("blur", "linebuffer", "rgb24", 8, 4, 8), "pixel"),
        (DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 1), "capacity"),
    ]:
        ok, reason = is_valid_point(point)
        assert not ok and fragment in reason


def test_design_hash_is_stable_and_distinct():
    a = DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8)
    b = DesignPoint("saa2vga", "fifo", "gray8", 8, 4, 8)
    c = DesignPoint("saa2vga", "sram", "gray8", 8, 4, 8)
    assert a.design_hash() == b.design_hash()
    assert a.design_hash() != c.design_hash()


# -- runner ---------------------------------------------------------------------


def test_runner_simulates_and_verifies_each_point():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    results = runner.run(points)
    assert len(results) == len(points)
    for result in results:
        assert result.verified
        assert result.cycles > 0
        assert result.outputs == 8 * 4
        assert result.luts > 0


def test_runner_memoizes_repeated_points():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    first = runner.run(points)
    assert runner.evaluations == len(points)
    assert runner.cache_hits == 0

    # Same grid again: all hits, same objects, no new simulations.
    second = runner.run(points)
    assert runner.evaluations == len(points)
    assert runner.cache_hits == len(points)
    assert [id(res) for res in second] == [id(res) for res in first]

    # Duplicates inside one call also hit the memo (after one evaluation).
    runner2 = ExplorationRunner()
    doubled = runner2.run(points + points)
    assert runner2.evaluations == len(points)
    assert runner2.cache_hits == len(points)
    assert doubled[:len(points)] == doubled[len(points):]


def test_runner_results_keep_input_order():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    reversed_results = runner.run(list(reversed(points)))
    assert [res.point for res in reversed_results] == list(reversed(points))


# -- reporting ------------------------------------------------------------------


def test_report_ordering_is_deterministic():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner()
    forward = runner.run(points)
    backward = runner.run(list(reversed(points)))
    # Same rows, same order, regardless of evaluation/result order.
    assert results_table(forward) == results_table(backward)
    assert comparison_report(forward) == comparison_report(backward)
    report = comparison_report(forward)
    assert report.splitlines()[0] == "Design-space exploration."
    assert report.count("saa2vga") == len(points)


def test_best_by_selects_verified_extremes():
    points = expand_grid(designs=("saa2vga",), pixel_formats=("gray8",),
                         frame_sizes=((8, 4),), capacities=(8,))
    runner = ExplorationRunner()
    results = runner.run(points)
    fastest = best_by(results, lambda res: res.throughput, lowest=False)
    assert fastest.point.binding == "fifo", "FIFO binding is the fast one"
    cheapest = best_by(results, lambda res: res.luts + res.ffs)
    assert cheapest.verified


def test_best_by_rejects_empty():
    with pytest.raises(ValueError):
        best_by([], lambda res: 0)


def test_runner_rejects_bad_processes():
    with pytest.raises(ValueError):
        ExplorationRunner(processes=0)


# -- strategy selection ----------------------------------------------------------


def test_auto_strategy_resolves_to_fastest_backend():
    assert resolve_strategy(AUTO) == COMPILED
    assert resolve_strategy(FIXPOINT) == FIXPOINT
    with pytest.raises(ValueError):
        resolve_strategy("levelized")
    with pytest.raises(ValueError):
        ExplorationRunner(strategy="levelized")


def test_runner_default_strategy_is_auto_and_agrees_with_fixpoint():
    points = expand_grid(**SMALL_GRID)
    auto_results = ExplorationRunner().run(points)
    oracle_results = ExplorationRunner(strategy=FIXPOINT).run(points)
    for auto_res, oracle_res in zip(auto_results, oracle_results):
        assert auto_res.verified and oracle_res.verified
        assert auto_res.cycles == oracle_res.cycles
        assert auto_res.throughput == oracle_res.throughput


def test_memo_keys_include_strategy():
    """Switching strategy on a live runner must re-simulate, not reuse the
    other strategy's cached results."""
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner(strategy=FIXPOINT)
    oracle_results = runner.run(points)
    assert runner.evaluations == len(points)

    runner.strategy = COMPILED
    compiled_results = runner.run(points)
    assert runner.evaluations == 2 * len(points), \
        "compiled results must not be served from the fixpoint cache"
    assert runner.cache_hits == 0
    # Results agree (the strategies are equivalent), but are distinct objects
    # because each was simulated under its own strategy.
    for fp, cp in zip(oracle_results, compiled_results):
        assert fp is not cp
        assert fp.cycles == cp.cycles

    # Flipping back serves the original fixpoint results from the memo.
    runner.strategy = FIXPOINT
    again = runner.run(points)
    assert runner.cache_hits == len(points)
    assert [id(res) for res in again] == [id(res) for res in oracle_results]


def test_memo_treats_auto_and_compiled_as_the_same_key():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner(strategy=AUTO)
    runner.run(points)
    runner.strategy = COMPILED
    runner.run(points)
    assert runner.evaluations == len(points)
    assert runner.cache_hits == len(points)


# -- constrained-random verification in sweeps --------------------------------


def test_sweep_with_verify_reports_coverage():
    points = expand_grid(**SMALL_GRID)
    runner = ExplorationRunner(verify=True, verify_cycles=1200)
    results = runner.run(points)
    for res in results:
        assert res.coverage_pct is not None
        assert res.coverage_pct > 0
        assert res.coverage_violations == 0, \
            f"{res.point}: constrained-random session flagged violations"
        assert "cov%" in res.row()
        assert res.row()["cr_ok"] == "yes"
    report = comparison_report(results)
    assert "cov%" in report
    assert "functional coverage" in report


def test_verify_flag_partitions_the_memo():
    points = expand_grid(**SMALL_GRID)[:1]
    plain = ExplorationRunner()
    checked = ExplorationRunner(verify=True, verify_cycles=800)
    assert plain.run(points)[0].coverage_pct is None
    assert checked.run(points)[0].coverage_pct is not None
    # Same runner, same config: second run is served from the memo.
    checked.run(points)
    assert checked.evaluations == 1
    assert checked.cache_hits == 1
    # Different seed means a different memo key, hence a re-evaluation.
    reseeded = ExplorationRunner(verify=True, verify_cycles=800,
                                 verify_seed=5)
    reseeded.run(points)
    assert reseeded.evaluations == 1


def test_plain_sweep_rows_omit_coverage_columns():
    points = expand_grid(**SMALL_GRID)[:1]
    res = ExplorationRunner().run(points)[0]
    assert "cov%" not in res.row()
    assert "functional coverage: not collected" in coverage_summary([res])


# -- batched lane-packed sweeps ------------------------------------------------


from repro.explore.runner import evaluate_point  # noqa: E402
from repro.rtl import COMPILED_BATCHED  # noqa: E402

#: 16 points sharing one batched-program signature (only the frame shape —
#: pure stimulus — varies), so the whole grid packs into one lane batch.
BATCH_GRID = dict(
    designs=("saa2vga",), bindings=("fifo",), pixel_formats=("gray8",),
    frame_sizes=tuple((w, h) for w in (6, 8, 10, 12) for h in (4, 5, 6, 7)),
    capacities=(8,))


def test_batched_sweep_runs_one_loop_and_matches_scalar_reports():
    points = expand_grid(**BATCH_GRID)
    assert len(points) == 16
    scalar = ExplorationRunner(strategy=COMPILED).run(points)
    runner = ExplorationRunner(strategy=COMPILED_BATCHED)
    batched = runner.run(points)
    assert batched == scalar, \
        "batched sweep reports must be byte-identical to scalar compiled"
    assert runner.batch_runs == 1, \
        "16 compatible points at lanes=16 must share one simulation loop"
    assert runner.evaluations == 16


def test_batched_sweep_respects_lane_budget_and_signature_groups():
    # 8 compatible frame-shape variants x 2 capacities: two signature
    # groups; lanes=4 cuts each group of 8 into two loops -> 4 in total.
    points = expand_grid(
        designs=("saa2vga",), bindings=("fifo",), pixel_formats=("gray8",),
        frame_sizes=tuple((w, 4) for w in (5, 6, 7, 8, 9, 10, 11, 12)),
        capacities=(8, 16))
    assert len(points) == 16
    runner = ExplorationRunner(strategy=COMPILED_BATCHED, lanes=4)
    batched = runner.run(points)
    assert runner.batch_runs == 4
    assert batched == ExplorationRunner(strategy=COMPILED).run(points)


def test_memo_shares_cache_between_compiled_and_batched():
    """Regression (lane batching vs memoization): batched lanes are proven
    trace-identical to scalar compiled, so the two strategies share one
    memo key — toggling between them must serve cache hits, and the cached
    reports must be the identical objects either way."""
    points = expand_grid(**BATCH_GRID)
    runner = ExplorationRunner(strategy=COMPILED)
    scalar = runner.run(points)
    assert runner.evaluations == len(points)

    runner.strategy = COMPILED_BATCHED
    batched = runner.run(points)
    assert runner.evaluations == len(points), \
        "switching to compiled-batched must not re-simulate cached points"
    assert runner.cache_hits == len(points)
    assert runner.batch_runs == 0
    assert [id(res) for res in batched] == [id(res) for res in scalar]

    # And the other direction: batched-first, scalar served from cache.
    other = ExplorationRunner(strategy=COMPILED_BATCHED)
    first = other.run(points)
    other.strategy = COMPILED
    second = other.run(points)
    assert other.evaluations == len(points)
    assert other.cache_hits == len(points)
    assert [id(res) for res in second] == [id(res) for res in first]


def test_evaluate_point_accepts_batched_strategy():
    point = expand_grid(**BATCH_GRID)[0]
    assert evaluate_point(point, strategy=COMPILED_BATCHED) == \
        evaluate_point(point, strategy=COMPILED)


def test_batched_strategy_resolution_and_validation():
    assert resolve_strategy(COMPILED_BATCHED) == COMPILED_BATCHED
    ExplorationRunner(strategy=COMPILED_BATCHED)  # accepted eagerly
    with pytest.raises(ValueError):
        ExplorationRunner(lanes=0)


def test_batched_sweep_with_verify_matches_scalar_coverage():
    points = expand_grid(**BATCH_GRID)[:2]
    scalar = ExplorationRunner(strategy=COMPILED, verify=True,
                               verify_cycles=800).run(points)
    batched = ExplorationRunner(strategy=COMPILED_BATCHED, verify=True,
                                verify_cycles=800).run(points)
    assert batched == scalar
    for res in batched:
        assert res.coverage_pct is not None
