"""The experiment table is the one place a figure and its claims live.

* **Integrity** — unique rows, one ``benchmarks/`` script per row and
  one row per script, every row claimed about, every band well-formed.
* **The checker names what broke** — experiment, claim, measured value
  and band.
* **One geometry** — the CLI command with no flags, the ``benchmarks/``
  test and the table agree, and the figures the CLI used to get wrong
  are pinned.
* **The runner** — every sweep row runs through it at toy scale; the
  fast rows run at paper scale, their claims hold, and their rendered
  sections are the committed EXPERIMENTS.md's, byte for byte.
"""

import math
from pathlib import Path

import pytest

from repro.bench import cli, experiments
from repro.bench.experiments import CLAIMS, EXPERIMENTS, Claim, geometry

REPO = Path(__file__).resolve().parents[2]
ALL_ROWS = experiments.all_rows()
SWEEPS = [row for row in EXPERIMENTS.values() if row.kind]
FAST = ("calibration", "motivation", "fig1", "fig2")


class TestIntegrity:
    def test_names_are_unique_and_scripts_pair_off_with_rows(self):
        scripts = sorted(REPO.glob("benchmarks/bench_*.py"))
        by_script = {path: row for row, _claims, path in ALL_ROWS if path}
        assert sorted(by_script) == scripts and len(scripts) == 16
        names = [row.name for row, _claims, _path in ALL_ROWS]
        assert len(set(names)) == len(names) == len(scripts) + 1
        # the one row without a script is run by repro.bench.calibration
        assert [row.name for row, _claims, path in ALL_ROWS
                if path is None] == ["calibration"]
        for name, row in EXPERIMENTS.items():
            assert row.name == name

    def test_a_figure_script_refers_to_the_table_and_redeclares_nothing(self):
        for row, _claims, path in ALL_ROWS:
            if row.name not in EXPERIMENTS or path is None:
                continue
            assert row is EXPERIMENTS[row.name]
            text = path.read_text()
            assert f'EXPERIMENTS["{row.name}"]' in text
            for redeclared in ("CLIENTS =", "SYSTEMS =", "N_KEYS =",
                               "ZIPFS =", "assert "):
                assert redeclared not in text, (path.name, redeclared)

    def test_every_row_has_claims_and_every_claim_a_row_and_a_band(self):
        assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)
        for row, claims, _path in ALL_ROWS:
            assert claims, row.name
            assert len({claim.name for claim in claims}) == len(claims)
            for claim in claims:
                assert claim.experiment == row.name
                assert claim.lo <= claim.hi, claim.name
                assert (claim.lo, claim.hi) != (-math.inf, math.inf)
                assert callable(claim.value) and claim.source
                assert not claim.deviation or claim.note, claim.name

    def test_the_recorded_deviation_is_a_checked_row(self):
        marked = [claim for _row, claims, _path in ALL_ROWS
                  for claim in claims if claim.deviation]
        assert [(c.experiment, c.lo) for c in marked] == [("fig4", 0.75)]
        assert EXPERIMENTS["fig4"].diagnose == "prism-sw"


def test_a_violated_claim_is_named_with_measured_value_and_band(capsys):
    row = EXPERIMENTS["motivation"]
    doctored = {"one-sided READ": 9.87, "two-sided eRPC": 5.5,
                "two dependent READs": 6.4}
    verdicts = experiments.check(doctored, experiments.claims_of(row))
    violated = experiments.conclude(row, verdicts)
    assert len(violated) == 2        # the READ band, and READ < RPC
    assert "motivation" in violated[0]
    assert "one-sided READ (µs)" in violated[0]
    assert "9.87" in violated[0] and "[2.4, 4]" in violated[0]
    assert "(0, ∞)" in violated[1] and "-4.37" in violated[1]
    assert "VIOLATED" in capsys.readouterr().out
    assert experiments.exit_status(row, doctored) == 1
    assert "one-sided READ (µs)" in capsys.readouterr().err


def test_bands_close_or_exclude_their_ends():
    closed = Claim("x", "s", "c", None, lo=1.0, hi=2.0)
    assert closed.holds(1.0) and closed.holds(2.0) and not closed.holds(2.01)
    ordering = Claim("x", "s", "o", None, lo=0, exclusive=True)
    assert ordering.holds(1e-9) and not ordering.holds(0.0)
    assert (closed.band, ordering.band) == ("[1, 2]", "(0, ∞)")
    assert Claim("x", "s", "h", None, hi=1.35).band == "[-∞, 1.35]"


# -- one geometry -------------------------------------------------------------


@pytest.mark.parametrize("row", SWEEPS, ids=lambda row: row.name)
def test_cli_without_flags_and_benchmarks_test_run_the_same_geometry(row):
    from_cli = geometry(row, cli.build_parser().parse_args([row.name]))
    # the benchmarks/ test is run(row): no flags at all
    assert from_cli == geometry(row) == (
        row.keys, row.clients, row.zipfs, row.warmup_us, row.measure_us)


def test_the_geometries_the_cli_used_to_get_wrong_are_pinned():
    assert geometry(EXPERIMENTS["fig7"]) == (
        4000, (100,), (0.0, 0.5, 0.9, 1.2), 300.0, 2500.0)
    assert geometry(EXPERIMENTS["fig10"]) == (
        4000, (24, 96, 176), (0.0, 0.6, 0.9, 1.2), 300.0, 1200.0)
    assert geometry(EXPERIMENTS["fig9"])[1] == (1, 8, 32, 96, 176, 288)


def test_flags_rescale_a_row_and_help_renders_the_rows_defaults():
    parse = cli.build_parser().parse_args
    assert geometry(EXPERIMENTS["fig10"], parse(
        ["fig10", "--clients", "2,4", "--keys", "200", "--zipfs", "0.9",
         "--measure-us", "600"])) == (200, (2, 4), (0.9,), 300.0, 600.0)
    assert geometry(EXPERIMENTS["fig3"], parse(
        ["fig3", "--zipf", "0.9"]))[2] == (0.9,)
    usage = " ".join(cli.build_parser().format_help().split())
    for rendered in ("fig7: 100", "fig10: 24,96,176", "fig7 fig10: 4000",
                     "fig7: 2500", "fig10: 0,0.6,0.9,1.2"):
        assert rendered in usage, rendered


# -- the runner ---------------------------------------------------------------


@pytest.mark.parametrize("row", SWEEPS, ids=lambda row: row.name)
def test_every_sweep_row_runs_through_the_runner_at_toy_scale(row, capsys):
    argv = [row.name, "--clients", "2", "--keys", "200"]
    if row.versus_zipf:
        argv += ["--zipfs", "0.9"]
    results = experiments.run(row, cli.build_parser().parse_args(argv))
    assert row.title in capsys.readouterr().out
    assert list(results) == list(row.systems)
    assert all(len(points) == 1 and points[0].clients == 2
               for points in results.values())
    headers, rows = experiments.summary(row, results, zipfs=(0.9,))
    assert len(rows) == (1 if row.versus_zipf else len(row.systems))
    assert all(len(cells) == len(headers) for cells in rows)
    if row.diagnose:
        peak, = results[row.diagnose]
        assert peak.extra["bottleneck"]["resource"]


@pytest.mark.parametrize("name", FAST)
def test_fast_rows_hold_their_claims_and_render_the_committed_section(
        name, capsys):
    row, claims, path = next(found for found in ALL_ROWS
                             if found[0].name == name)
    sections = {}
    experiments.record(row, experiments.run(row), sections, claims,
                       path and path.name)     # raises on a violated claim
    committed = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert sections[row] in committed


def test_the_committed_document_is_the_generated_one():
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert text.startswith("<!-- Generated by `" + experiments.COMMAND)
    for row, claims, _path in ALL_ROWS:
        section = text.split(f"## {row.section} — {row.caption}\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        for claim in claims:
            assert f"| {claim.name} | {claim.source} |" in section
        assert ("### Deviations" in section) == any(
            claim.deviation for claim in claims)
    assert "VIOLATED" not in text
