"""The observer table is the one place observers are named and wired.

* **Source scans** — exactly one module under ``repro.bench`` names a
  collector class, and no module defines an observer flag by hand.
* **Table shape** — every row has a flag, every row that rides a
  ``run_point`` keyword has a factory and a printer, the harness
  installs exactly the keywords the table fills, and both parsers take
  their observer flags (spelling and help) from the rows.
* **Row x command** — arming any row on ``point``, a client sweep and a
  contention sweep prints its block and, where it has record sections,
  ``--json`` carries them.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.bench import cli, harness
from repro.bench.experiments import EXPERIMENTS, geometry, script_main
from repro.bench.observers import FLIGHT, ROWS

REPO = Path(__file__).resolve().parents[2]
BENCH_SRC = REPO / "src" / "repro" / "bench"

COLLECTOR_CLASSES = {"Tracer", "UtilizationCollector", "HostProfiler",
                     "PrimitiveCollector", "FlightRecorder",
                     "SeriesCollector", "ViewCollector"}


def _bench_modules():
    for path in sorted(BENCH_SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _names_in_code(tree):
    """Identifiers imported or referenced (docstrings do not count)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


class TestSourceScans:
    def test_one_module_names_the_collector_classes(self):
        naming = {name: sorted(_names_in_code(tree) & COLLECTOR_CLASSES)
                  for name, tree in _bench_modules()}
        naming = {name: found for name, found in naming.items() if found}
        assert naming == {"observers.py": sorted(COLLECTOR_CLASSES)}

    def test_no_observer_flag_is_defined_by_hand(self):
        flags = {row.flag for row in ROWS}
        by_hand = [
            (name, node.args[0].value)
            for name, tree in _bench_modules() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in flags]
        assert by_hand == []


class TestTableShape:
    def test_every_row_has_a_flag_and_collector_rows_the_rest(self):
        assert len({row.flag for row in ROWS}) == len(ROWS)
        for row in ROWS:
            assert row.flag.startswith("--") and row.help
            if row.keyword is not None:
                assert callable(row.factory), row.flag
                assert callable(row.report), row.flag
                assert callable(row.lines) or callable(row.show), row.flag
            for implied in row.implies:
                assert implied in {other.dest for other in ROWS}

    def test_harness_installs_exactly_the_keywords_the_table_fills(self):
        keywords = [row.keyword for row in ROWS if row.keyword is not None]
        assert sorted(keywords) == sorted(harness.INSTALL_ORDER)
        assert len(keywords) == len(COLLECTOR_CLASSES) + 1   # + faults

    def test_cli_parser_takes_its_observer_flags_from_the_rows(self):
        actions = {option: action
                   for action in cli.build_parser()._actions
                   for option in action.option_strings}
        for row in ROWS:
            assert actions[row.flag].help == row.help
        assert "--host" not in actions

    def test_bench_script_parser_takes_its_flags_from_the_rows(self, capsys):
        traced = [row for row in EXPERIMENTS.values() if row.traced]
        assert [row.name for row in traced] == ["fig3", "fig4", "fig6", "fig9"]
        for experiment in traced:
            with pytest.raises(SystemExit):
                script_main(experiment, argv=["--help"])
            usage = capsys.readouterr().out
            for row in ROWS:
                assert (f"{row.flag} " in usage) == (row is not FLIGHT), \
                    (experiment.name, row.flag)
            for flag in ("--clients", "--clients-aggregated", "--arrival-rate",
                         "--source-window", "--keys", "--profile-stride"):
                assert f"{flag} " in usage, (experiment.name, flag)
        # a row without a traced point takes --profile and nothing else
        with pytest.raises(SystemExit):
            script_main(EXPERIMENTS["fig7"], argv=["--help"])
        usage = capsys.readouterr().out
        assert "--profile " in usage and "--trace " not in usage

    def test_docs_arming_section_covers_every_row(self):
        text = (REPO / "docs" / "observability.md").read_text()
        section = text.split("## Arming observers", 1)[1].split("\n## ", 1)[0]
        for row in ROWS:
            assert f"`{row.flag}" in section, row.flag


# -- row x command ----------------------------------------------------------

COMMANDS = {
    "point": ["point", "--kind", "rs", "--flavor", "prism-sw",
              "--clients", "2", "--keys", "200"],
    "fig3": ["fig3", "--clients", "2", "--keys", "200"],
    "fig7": ["fig7", "--clients", "2", "--keys", "200", "--zipfs", "0.9"],
}

#: row flag -> (arguments, text its block prints)
ARMED = {
    "--trace": (["--trace", "trace.json"], "chrome trace written to"),
    "--faults": (["--faults", "seed=3,drop=0.01"], "goodput under faults"),
    "--profile": (["--profile"], "host self-profile =="),
    "--series": (["--series"], "time series =="),
    "--views": (["--views"], "online views =="),
    "--flight": (["--flight"], "flight recorder =="),
    "--primitives": (["--primitives"], "primitive telemetry =="),
    "--util": (["--util"], "resource utilization"),
    "--json": ([], "result record written to"),
}


def test_every_row_is_exercised():
    assert set(ARMED) == {row.flag for row in ROWS}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.dest)
def test_arming_a_row_prints_its_block_and_fills_its_sections(
        row, command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    arguments, block = ARMED[row.flag]
    record = tmp_path / "record.json"
    assert cli.main(COMMANDS[command] + arguments
                    + ["--json", str(record)]) == 0
    assert block in capsys.readouterr().out
    points = json.loads(record.read_text())["points"]
    assert points
    # The phase breakdown is a single-point front end's; sweeps trace
    # one designated point and record no phases.
    sections = [] if row.dest == "trace" and command != "point" \
        else row.sections
    for point in points:
        for section in sections:
            assert point[section], (point["id"], section)


# -- the contention figures run the figure ---------------------------------


def test_contention_figures_default_to_the_papers_client_counts():
    def clients(argv):
        args = cli.build_parser().parse_args(argv)
        return list(geometry(EXPERIMENTS[args.command], args)[1])

    assert clients(["fig7"]) == [100]
    assert clients(["fig10"]) == [24, 96, 176]
    assert clients(["fig3"]) == [1, 8, 32, 96, 176]
    assert clients(["fig7", "--clients", "16"]) == [16]
    assert clients(["fig10", "--clients", "1,8,32,96,176"]) == \
        [1, 8, 32, 96, 176]


def test_fig10_reports_the_peak_over_the_client_list(tmp_path, capsys):
    record = tmp_path / "fig10.json"
    assert cli.main(["fig10", "--clients", "2,4", "--keys", "200",
                     "--zipfs", "0.9", "--json", str(record)]) == 0
    out = capsys.readouterr().out
    summary = out.split(f"== {EXPERIMENTS['fig10'].title} ==")[1]
    reported = [float(cell) for cell in summary.split()[-4:-2]]
    points = json.loads(record.read_text())["points"]
    for flavor, cell in zip(("prism-sw", "farm-hw"), reported):
        by_clients = {point["config"]["clients"]:
                      point["metrics"]["throughput_ops_per_sec"]
                      for point in points if point["flavor"] == flavor}
        assert set(by_clients) == {2, 4}
        assert by_clients[4] > by_clients[2]
        assert cell == pytest.approx(by_clients[4] / 1e6, abs=0.005)
    # one record point per (zipf, flavor, client count), ids distinct
    assert len({point["id"] for point in points}) == len(points) == 4


def test_flags_are_refused_not_ignored_off_point_commands(capsys, tmp_path):
    record = tmp_path / "never.json"
    for flag in (["--faults", "seed=1,drop=0.5"], ["--json", str(record)],
                 ["--util"], ["--primitives"]):
        assert cli.main(["fig1"] + flag) == 2
        assert f"{flag[0]} is not supported by 'fig1'" in \
            capsys.readouterr().err
    assert not record.exists()
