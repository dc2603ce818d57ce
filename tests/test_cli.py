"""Command-line behavior: exit codes, error payloads, piping, goldens."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gpdflow import cli
from gpdflow.algebra import preset_group
from gpdflow.amenability import fixed_points
from gpdflow.cli import COMMANDS, emit_report, fixture_models, main, \
    run_command
from gpdflow.fixtures import named_bundles
from gpdflow.groupoid import RowTable
from gpdflow.serialize import bundle_to_json, canonical_dumps, \
    group_to_json, parse_model

GOLDEN = Path(__file__).parent / "golden"
REGOLD = os.environ.get("GPDFLOW_REGOLD") == "1"


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def write_bundle(tmp_path, key, filename="bundle.json"):
    path = tmp_path / filename
    path.write_text(canonical_dumps(bundle_to_json(named_bundles()[key])))
    return str(path)


# --- golden corpus --------------------------------------------------------------


@pytest.mark.parametrize("command", COMMANDS)
def test_fixture_corpus_matches_golden(command, capsys):
    code, out = run_cli(capsys, [command, "--fixtures"])
    assert code == 0
    path = GOLDEN / f"{command}.json"
    if REGOLD:
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(out)
    assert out == path.read_text()


@pytest.mark.parametrize("command", COMMANDS)
def test_fixture_corpus_is_deterministic(command, capsys):
    _, first = run_cli(capsys, [command, "--fixtures"])
    _, second = run_cli(capsys, [command, "--fixtures"])
    assert first == second


def _contract_models() -> dict[str, dict]:
    """One valid model of each kind, plus five that fail a gating verdict:
    a group table, a bundle on a disconnected graph, a groupoid with the
    results of two ``comp`` entries swapped, and a groupoid of two objects
    with no arrow between them and its base action."""
    from gpdflow.dynamics import base_action, build_ambit
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import action_to_json, ambit_to_json, \
        build_groupoid, transport_to_json
    tg = groupoid_of_bundle(named_bundles()["triangle-z2-twisted"])
    with_connection = transport_to_json(tg)
    plain = {k: v for k, v in with_connection.items() if k != "connection"}
    swapped = dict(with_connection, comp=with_connection["comp"].triples())
    swapped["comp"][0][2], swapped["comp"][1][2] = \
        swapped["comp"][1][2], swapped["comp"][0][2]
    two_objects = {"kind": "groupoid", "objects": 2, "arrows": 2,
                   "src": [0, 1], "tgt": [0, 1], "unit": [0, 1],
                   "inv": [0, 1], "comp": [[0, 0, 0], [1, 1, 1]]}
    return {
        "group.json": {"kind": "group", "preset": "S3"},
        "graph.json": {"kind": "graph", "vertices": 3,
                       "edges": [[0, 1], [1, 2], [2, 0]]},
        "bundle.json": bundle_to_json(named_bundles()["triangle-z2-twisted"]),
        "groupoid-connection.json": with_connection,
        "groupoid.json": plain,
        "action.json": action_to_json(base_action(tg.groupoid)),
        "ambit.json": ambit_to_json(build_ambit(tg.groupoid, 0)),
        "bad-group.json": {"kind": "group", "order": 2, "identity": 0,
                           "mult": [[0, 1], [1, 1]]},
        "disconnected-bundle.json": {
            "kind": "bundle", "graph": {"vertices": 2, "edges": [[0, 0]]},
            "group": {"preset": "Z2"}, "labels": [1]},
        "swapped-comp.json": swapped,
        "two-objects.json": two_objects,
        "two-objects-action.json": action_to_json(base_action(
            build_groupoid(parse_model(two_objects).data)[0])),
    }


def test_cli_contract_matches_golden(tmp_path, capsys, monkeypatch):
    """Exit code and stdout of every command on every contract input, at an
    in-range and an out-of-range basepoint: the wrong-kind and basepoint
    usage errors and the runs that stop at a failed verdict included."""
    monkeypatch.chdir(tmp_path)
    models = _contract_models()
    for name, model in models.items():
        Path(name).write_text(canonical_dumps(model))
    runs = {}
    for command in COMMANDS:
        for name in models:
            for basepoint in ("0", "9"):
                code, out = run_cli(capsys, [command, name,
                                             "--basepoint", basepoint])
                runs[f"{command} {name} --basepoint {basepoint}"] = \
                    {"exit": code, "stdout": out}
    text = json.dumps(runs, indent=1, sort_keys=True) + "\n"
    path = GOLDEN / "contract.json"
    if REGOLD:
        path.write_text(text)
    assert text == path.read_text()


# --- exit codes and error payloads ------------------------------------------------


def test_verify_failing_group_exits_1(tmp_path, capsys):
    path = tmp_path / "badgroup.json"
    path.write_text(json.dumps({"kind": "group", "order": 2, "identity": 0,
                                "mult": [[0, 1], [1, 1]]}))
    code, out = run_cli(capsys, ["verify", str(path)])
    report = json.loads(out)
    assert code == 1
    assert report["ok"] is False
    verdict = report["runs"][0]["verdicts"][0]
    assert verdict["ok"] is False
    assert verdict["witness"] is not None


@pytest.mark.parametrize("text,code", [
    ("{not json", 10),
    ('{"kind":"nope"}', 11),
    ('{"kind":"bundle","graph":{"vertices":2,"edges":[[0,1]]},'
     '"group":{"preset":"Z2"},"labels":[7]}', 12),
    ('{"kind":"bundle","graph":{"vertices":2,"edges":[[0,1]]},'
     '"group":{"preset":"Z2"},"labels":null}', 12),
])
def test_load_errors_exit_2_with_payload_code(tmp_path, capsys, text, code):
    path = tmp_path / "model.json"
    path.write_text(text)
    exit_code, out = run_cli(capsys, ["verify", str(path)])
    report = json.loads(out)
    assert exit_code == 2
    assert report["error"]["code"] == code


def test_bad_label_error_names_the_edge(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "bundle",
                                "graph": {"vertices": 2, "edges": [[0, 1]]},
                                "group": {"preset": "Z2"}, "labels": [7]}))
    _, out = run_cli(capsys, ["verify", str(path)])
    assert "edge 0" in json.loads(out)["error"]["message"]


def test_wrong_kind_for_command_exits_2(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-twisted")
    code, out = run_cli(capsys, ["ea", path])
    assert code == 2
    assert "group model" in json.loads(out)["error"]["message"]


def test_no_files_without_fixtures_exits_2(capsys):
    code, out = run_cli(capsys, ["verify"])
    assert code == 2


def test_files_and_fixtures_together_exit_2(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z1")
    code, _ = run_cli(capsys, ["verify", path, "--fixtures"])
    assert code == 2


def test_basepoint_out_of_range_exits_2(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z1")
    code, out = run_cli(capsys, ["holonomy", path, "--basepoint", "9"])
    assert code == 2
    assert "out of range" in json.loads(out)["error"]["message"]


def _usage_report(capsys, argv) -> dict:
    """The one canonical code-2 line, and nothing on stderr, that a command
    line that does not parse gets."""
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert captured.err == ""
    assert captured.out == canonical_dumps(report) + "\n"
    assert report["ok"] is False and report["error"]["code"] == 2
    assert len(report["error"]["message"]) <= 200
    return report


def test_unknown_command_exits_2(capsys):
    report = _usage_report(capsys, ["frobnicate", "x.json"])
    assert report["command"] is None
    assert "invalid choice: 'frobnicate'" in report["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["ambit", "--fixtures", "--basepoint", "abc"],
    ["ambit", "--fixtures", "--basepoint", "1234567890"],
    ["ambit", "--fixtures", "--basepoint", "+1"],
    ["ambit", "--fixtures", "--format", "text", "--basepoint", "abc"],
    ["ambit", "--fixtures", "--format", "xml"],
    ["ambit", "--fixtures", "--bogus"],
    [],
    ["x" * 5000, "x.json"],
    ["ambit", "--fixtures", "--" + "b" * 4998],
    ["ambit", "--fixtures", "--format", "t" * 5000],
], ids=["basepoint-abc", "basepoint-10-digits", "basepoint-plus",
        "basepoint-abc-text", "format-xml", "unknown-flag", "empty",
        "long-command", "long-flag", "long-format"])
def test_command_line_that_does_not_parse_is_a_json_report(capsys, argv):
    assert _usage_report(capsys, argv)["command"] is None


def test_long_basepoint_reads_the_same_whatever_the_digit_limit(capsys):
    """A 5,000-digit basepoint gets the same short report with the
    interpreter's digit limit as it is, switched off and set to 640."""
    before = sys.get_int_max_str_digits()
    outs = []
    try:
        for limit in (before, 0, 640):
            sys.set_int_max_str_digits(limit)
            report = _usage_report(capsys, ["ambit", "--fixtures",
                                            "--basepoint", "9" * 5000])
            outs.append(canonical_dumps(report))
    finally:
        sys.set_int_max_str_digits(before)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["error"]["message"] == \
        "argument --basepoint: expected an integer of at most 9 digits"


@pytest.mark.parametrize("basepoint,code", [
    ("2", 0), ("-1", 2), ("123456789", 2)])
def test_basepoint_of_at_most_9_digits_reaches_the_run(tmp_path, capsys,
                                                        basepoint, code):
    path = write_bundle(tmp_path, "triangle-z1")
    assert main(["holonomy", path, "--basepoint", basepoint]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "holonomy"
    if code == 2:
        assert report["error"]["message"] == (
            f"basepoint {basepoint} out of range for 3 vertices")


def test_help_prints_usage_on_stdout_and_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    captured = capsys.readouterr()
    assert err.value.code == 0
    assert captured.out.startswith("usage: gpdflow") and captured.err == ""


# --- individual commands -----------------------------------------------------------


def test_trivial_answers_no_with_witness_but_exits_0(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-twisted")
    code, out = run_cli(capsys, ["trivial", path])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0
    assert facts["trivial"] is False
    assert facts["witness_cycles"]
    assert facts["section"] is None


def test_trivial_answers_yes_with_section(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-trivial")
    code, out = run_cli(capsys, ["trivial", path])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0
    assert facts["trivial"] is True
    assert facts["section"] is not None
    assert facts["witness_cycles"] == []


def test_roundtrip_reports_iso_witness(tmp_path, capsys):
    path = write_bundle(tmp_path, "wedge2-z3")
    code, out = run_cli(capsys, ["roundtrip", path])
    run = json.loads(out)["runs"][0]
    assert code == 0
    assert run["facts"]["witness_gauge"] is not None
    assert {"property": "triviality agreement", "ok": True,
            "failure": None, "witness": [False, False], "notes": {}} \
        in run["verdicts"]


def test_groupoidify_reports_arrow_count_law(tmp_path, capsys):
    path = write_bundle(tmp_path, "edge-s3")
    code, out = run_cli(capsys, ["groupoidify", path])
    run = json.loads(out)["runs"][0]
    assert code == 0
    assert run["facts"]["arrows"] == 2 * 2 * 6
    assert run["model"]["kind"] == "groupoid"
    assert "connection" in run["model"]


def test_pipe_groupoidify_bundleize_holonomy_conjugate(tmp_path, capsys,
                                                       monkeypatch):
    """groupoidify | bundleize | holonomy gives a subgroup conjugate to
    the holonomy of the original bundle."""
    import io
    path = write_bundle(tmp_path, "edge-s3")
    code, out = run_cli(capsys, ["groupoidify", path])
    gpd_model = json.loads(out)["runs"][0]["model"]

    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps({"model": gpd_model})))
    code, out = run_cli(capsys, ["bundleize", "-", "--basepoint", "0"])
    assert code == 0
    bundle_model = json.loads(out)["runs"][0]["model"]

    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps({"model": bundle_model})))
    code, out = run_cli(capsys, ["holonomy", "-"])
    assert code == 0
    piped = set(json.loads(out)["runs"][0]["facts"]["subgroup"])

    code, out = run_cli(capsys, ["holonomy", path])
    original = set(json.loads(out)["runs"][0]["facts"]["subgroup"])

    grp = preset_group("S3")
    conjugates = [{grp.conjugate(g, h) for g in original}
                  for h in grp.elements]
    assert piped in conjugates


def test_orbits_on_action_file(tmp_path, capsys):
    from gpdflow.dynamics import base_action
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import action_to_json
    action = base_action(
        groupoid_of_bundle(named_bundles()["triangle-z2-twisted"]).groupoid)
    path = tmp_path / "action.json"
    path.write_text(canonical_dumps(action_to_json(action)))
    code, out = run_cli(capsys, ["orbits", str(path)])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0
    assert facts["orbits"] == [[0, 1, 2]]


def test_sections_counts_match_at_other_basepoint(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z1")
    for basepoint in ("0", "1", "2"):
        code, out = run_cli(capsys,
                            ["sections", path, "--basepoint", basepoint])
        facts = json.loads(out)["runs"][0]["facts"]
        assert code == 0
        assert facts["count"] == 1


def test_universal_on_ambit_self_maps(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-twisted")
    code, out = run_cli(capsys, ["universal", path])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0
    assert facts["count"] == 2
    for entry in facts["maps"]:
        assert sorted(entry["values"]) == list(range(6))


def test_ea_verdicts(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "group", "preset": "Z1"}))
    code, out = run_cli(capsys, ["ea", str(path)])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0 and facts["extremely_amenable"] is True

    path.write_text(json.dumps({"kind": "group", "preset": "S3"}))
    code, out = run_cli(capsys, ["ea", str(path)])
    facts = json.loads(out)["runs"][0]["facts"]
    assert code == 0 and facts["extremely_amenable"] is False
    assert facts["free"] is True and facts["fixed"] == []


# --- report formats ------------------------------------------------------------------


def test_json_report_is_canonical(tmp_path, capsys):
    path = write_bundle(tmp_path, "wedge2-z3")
    _, out = run_cli(capsys, ["holonomy", path])
    parsed = json.loads(out)
    assert out == canonical_dumps(parsed) + "\n"


def test_text_report_carries_the_same_verdicts(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-twisted")
    _, json_out = run_cli(capsys, ["semigroup", path])
    _, text_out = run_cli(capsys, ["semigroup", path, "--format", "text"])
    report = json.loads(json_out)
    for run in report["runs"]:
        for verdict in run["verdicts"]:
            assert verdict["property"] in text_out
        for key in run["facts"]:
            assert f"fact {key}:" in text_out
    assert text_out.strip().endswith("result: pass")
    digest = report["inputs"][0]["digest"]
    assert f"sha256:{digest}" in text_out


def test_text_report_names_a_failing_verdict(tmp_path, capsys):
    path = tmp_path / "badgroup.json"
    path.write_text(json.dumps({"kind": "group", "order": 2, "identity": 0,
                                "mult": [[0, 1], [1, 1]]}))
    code, out = run_cli(capsys, ["verify", str(path), "--format", "text"])
    assert code == 1
    assert "  [FAIL] group axioms: row 1 not a permutation witness=[1]\n" \
        in out
    assert out.strip().endswith("result: fail")


def test_text_report_carries_the_emitted_model(tmp_path, capsys):
    path = write_bundle(tmp_path, "triangle-z2-twisted")
    _, json_out = run_cli(capsys, ["groupoidify", path])
    _, text_out = run_cli(capsys, ["groupoidify", path, "--format", "text"])
    models = [line.removeprefix("  model: ")
              for line in text_out.splitlines() if line.startswith("  model: ")]
    assert len(models) == 1
    assert json.loads(models[0]) == json.loads(json_out)["runs"][0]["model"]


def test_text_report_for_errors(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"kind":"nope"}')
    code, out = run_cli(capsys, ["verify", str(path), "--format", "text"])
    assert code == 2
    assert "error 11:" in out
    assert out.strip().endswith("result: error")


def test_run_command_over_parsed_models():
    models = fixture_models("ea")
    report = run_command("ea", models)
    assert report["ok"] is True
    assert [entry["name"] for entry in report["inputs"]] == \
        ["Z1", "Z2", "Z3", "S3", "S4"]
    emitted = emit_report(report, "json")
    assert json.loads(emitted)["command"] == "ea"


@pytest.mark.parametrize("call", [lambda: run_command("nope", []),
                                  lambda: fixture_models("nope")],
                         ids=["run_command", "fixture_models"])
def test_a_library_caller_naming_no_command_is_refused(call):
    """The parser refuses a command it does not know; a library caller that
    names one gets the same usage error, code 2, not a ``KeyError``."""
    with pytest.raises(cli.UsageError) as refused:
        call()
    assert (refused.value.code, refused.value.message) == \
        (cli.USAGE_ERROR, "unknown command 'nope'")


def test_stdin_without_envelope(capsys, monkeypatch):
    import io
    model = bundle_to_json(named_bundles()["triangle-z1"])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(model)))
    code, out = run_cli(capsys, ["verify", "-"])
    assert code == 0
    assert json.loads(out)["inputs"][0]["name"] == "stdin"


def test_stdin_twice_from_a_file_reads_as_from_a_stream(tmp_path, capsys,
                                                       monkeypatch):
    """``verify - -`` with stdin a regular file, which is read back from the
    file, gives the report it gives with stdin a stream of the same bytes:
    the first ``-`` reads the model and leaves stdin at its end, so the
    second reads nothing, which is unreadable JSON."""
    import io
    path = tmp_path / "report.json"
    path.write_text(canonical_dumps(run_command(
        "groupoidify", fixture_models("groupoidify")[:1])))
    runs = []
    for stream in (io.TextIOWrapper(io.BytesIO(path.read_bytes())),
                   open(path)):
        with stream:
            monkeypatch.setattr("sys.stdin", stream)
            runs.append(run_cli(capsys, ["verify", "-", "-"]))
    assert runs[0] == runs[1]
    code, out = runs[0]
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": 10, "message": "-: invalid JSON: Expecting value: line 1 "
        "column 1 (char 0)"}


def test_a_full_disk_under_the_copy_of_stdin_is_unreadable_json(capsys,
                                                               monkeypatch):
    """A stream on stdin is copied to a temporary file before it is read;
    a write that fails there, as on a full disk, is a load error with code
    10 and the error's message, never a traceback, and the temporary file
    is closed."""
    import errno
    import io
    import tempfile
    spools = []

    class Full(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_disk(*args, **kwargs):
        spools.append(Full())
        return spools[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", full_disk)
    model = bundle_to_json(named_bundles()["triangle-z1"])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(model)))
    code, out = run_cli(capsys, ["verify", "-"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": 10, "message": f"-: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}"}
    assert len(spools) == 1 and spools[0].closed


def test_a_closed_stdin_is_unreadable_json(capsys, monkeypatch):
    """A process started with its stdin closed has ``sys.stdin`` None:
    reading ``-`` from it is a load error with code 10, not a
    traceback."""
    monkeypatch.setattr("sys.stdin", None)
    code, out = run_cli(capsys, ["verify", "-"])
    assert code == 2
    assert json.loads(out)["error"] == {"code": 10,
                                        "message": "-: stdin is closed"}


def test_whole_report_pipes_into_next_command(tmp_path, capsys, monkeypatch):
    """The unmodified output of groupoidify feeds bundleize directly."""
    import io
    path = write_bundle(tmp_path, "wedge2-z3")
    code, report_out = run_cli(capsys, ["groupoidify", path])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(report_out))
    code, out = run_cli(capsys, ["bundleize", "-", "--basepoint", "0"])
    assert code == 0
    rebuilt = json.loads(out)["runs"][0]["model"]
    assert rebuilt["kind"] == "bundle"
    assert rebuilt["labels"] == [1, 0]


# --- known-defect regressions ---------------------------------------------------------


def test_bundleize_disconnected_connection_fails_with_witness(tmp_path, capsys):
    """Every dart's connection arrow set to the unit of object 0: the
    recovered base graph has loops at 0 only, so bundleize must fail the
    connection verdict with the first unreachable vertex, not crash."""
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import transport_to_json
    model = transport_to_json(
        groupoid_of_bundle(named_bundles()["triangle-z2-twisted"]))
    model["connection"] = [[d, 0] for d, _ in model["connection"]]
    path = tmp_path / "groupoid.json"
    path.write_text(canonical_dumps(model))
    code = main(["bundleize", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    verdict = json.loads(captured.out)["runs"][0]["verdicts"][-1]
    assert verdict["property"] == "connection transport"
    assert verdict["failure"] == "connection base connectivity"
    assert verdict["witness"] == [1]


def test_verify_rejects_conflicting_duplicate_act_entry(tmp_path, capsys):
    from gpdflow.dynamics import build_ambit, verify_action
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import ambit_to_json, build_action
    ambit = build_ambit(
        groupoid_of_bundle(named_bundles()["point-s3"]).groupoid, 0)
    model = ambit_to_json(ambit)
    model["act"] = model["act"].triples()
    y, g, z = model["act"][8]
    model["act"].insert(0, [y, g, (z + 1) % model["space"]])
    path = tmp_path / "ambit.json"
    path.write_text(canonical_dumps(model))
    code, out = run_cli(capsys, ["verify", str(path)])
    verdict = json.loads(out)["runs"][0]["verdicts"][0]
    assert code == 1
    assert verdict["failure"] == "duplicate act pair"
    assert verdict["witness"] == [y, g]
    assert verdict["ok"] is False
    # the report has no structural flag; the verdict behind it does
    action = build_action(parse_model(model).data)
    assert verify_action(action).structural


ZERO_OBJECTS = {"kind": "groupoid", "objects": 0, "arrows": 0, "src": [],
                "tgt": [], "unit": [], "inv": [], "comp": [], "connection": []}


@pytest.mark.parametrize("command", ["verify", "bundleize", "ambit"])
def test_zero_object_connection_is_a_load_error(tmp_path, capsys, command):
    path = tmp_path / "zero.json"
    path.write_text(canonical_dumps(ZERO_OBJECTS))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == 12
    assert error["message"].startswith("groupoid.connection: ")


def test_zero_object_connection_in_an_action_is_a_load_error(tmp_path,
                                                              capsys):
    path = tmp_path / "zero-action.json"
    path.write_text(canonical_dumps({"kind": "action", "groupoid": ZERO_OBJECTS,
                                     "space": 0, "anchor": [], "act": []}))
    code, out = run_cli(capsys, ["verify", str(path)])
    error = json.loads(out)["error"]
    assert code == 2
    assert error["code"] == 12
    assert error["message"].startswith("action.groupoid.connection: ")


def _dart_0_twice() -> dict:
    """The edge-s3 groupoid with a connection that names dart 0 twice."""
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import transport_to_json
    model = transport_to_json(groupoid_of_bundle(named_bundles()["edge-s3"]))
    model["connection"] = [[0, arrow] for _, arrow in model["connection"]]
    return model


IDENTITY_1 = {"kind": "bundle", "graph": {"vertices": 2, "edges": [[0, 1]]},
              "group": {"order": 2, "identity": 1, "mult": [[1, 0], [0, 1]]},
              "labels": [0]}


@pytest.mark.parametrize("case", ["missing", "groupoid", "action", "identity"])
def test_error_path_is_one_canonical_line(tmp_path, capsys, case):
    """A missing file, a connection that names a dart twice (alone and
    under an action), and a round trip on a group whose identity is not 0."""
    path = tmp_path / "model.json"
    command, code, message = "verify", 12, \
        "groupoid.connection: darts must cover 0..1 exactly once"
    if case == "missing":
        code, message = 10, \
            f"{path}: [Errno 2] No such file or directory: '{path}'"
    elif case == "groupoid":
        path.write_text(canonical_dumps(_dart_0_twice()))
    elif case == "action":
        path.write_text(canonical_dumps({
            "kind": "action", "groupoid": _dart_0_twice(), "space": 0,
            "anchor": [], "act": []}))
        message = "action." + message
    else:
        path.write_text(canonical_dumps(IDENTITY_1))
        command, code = "roundtrip", 2
        message = "round trip needs the group identity at index 0"
    exit_code = main([command, str(path)])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.err == ""
    assert captured.out == canonical_dumps(json.loads(captured.out)) + "\n"
    assert json.loads(captured.out)["error"] == {"code": code,
                                                 "message": message}



def _models_with_nested_fields() -> dict:
    from gpdflow.dynamics import base_action
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import action_to_json
    bundle = named_bundles()["triangle-z2-twisted"]
    return {"bundle": bundle_to_json(bundle),
            "action": action_to_json(base_action(
                groupoid_of_bundle(bundle).groupoid))}


def _load_error(tmp_path, capsys, field: str, value) -> tuple[int, dict]:
    kind, key = field.split(".")
    model = dict(_models_with_nested_fields()[kind], **{key: value})
    path = tmp_path / "model.json"
    path.write_text(canonical_dumps(model))
    code, out = run_cli(capsys, ["verify", str(path)])
    return code, json.loads(out).get("error")


NESTED_FIELDS = ("bundle.graph", "bundle.group", "action.groupoid")


@pytest.mark.parametrize("value", [None, True, False, 7], ids=str)
@pytest.mark.parametrize("field", NESTED_FIELDS)
def test_nested_scalar_field_is_a_load_error(tmp_path, capsys, field, value):
    assert _load_error(tmp_path, capsys, field, value) == \
        (2, {"code": 12, "message": f"{field}: expected an object"})


@pytest.mark.parametrize("value", [
    "", "preset vertices order objects", [],
    ["preset", "vertices", "order", "objects"]], ids=repr)
@pytest.mark.parametrize("field,first", zip(NESTED_FIELDS, (
    "vertices", "order", "objects")))
def test_nested_string_or_list_field_misses_its_first_field(
        tmp_path, capsys, field, first, value):
    """Also when the string or list holds the names of the fields."""
    assert _load_error(tmp_path, capsys, field, value) == \
        (2, {"code": 12, "message": f"{field}: missing field {first!r}"})


def _not_utf8(table: bool) -> bytes:
    """A model with a byte that is not UTF-8 in a string field; with a
    canonical table the load decodes from the bytes, or without one."""
    model = _models_with_nested_fields()["action"] if table \
        else {"kind": "group", "preset": "S3"}
    return canonical_dumps(model)[:-1].encode() + b',"name":"\xff"}'


def _utf8_error(name: str, raw: bytes) -> dict:
    return {"code": 10, "message": (
        f"{name}: not UTF-8: 'utf-8' codec can't decode byte 0xff in "
        f"position {raw.index(bytes([0xff]))}: invalid start byte")}


@pytest.mark.parametrize("table", [False, True], ids=["group", "action"])
def test_model_file_not_utf8_is_unreadable_json(tmp_path, capsys, table):
    raw = _not_utf8(table)
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    code, out = run_cli(capsys, ["verify", str(path)])
    assert (code, json.loads(out)["error"]) == (2, _utf8_error(str(path), raw))


@pytest.mark.parametrize("table", [False, True], ids=["group", "action"])
def test_stdin_not_utf8_is_unreadable_json(table):
    """The same bytes on the process's stdin, however it decodes text."""
    raw = _not_utf8(table)
    proc = _python("-m", "gpdflow.cli", "verify", "-", stdin=subprocess.PIPE,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(raw, timeout=120)
    assert err == b""
    assert proc.returncode == 2
    assert json.loads(out)["error"] == _utf8_error("-", raw)


def test_text_stdin_with_a_lone_surrogate_is_unreadable_json(capsys,
                                                             monkeypatch):
    """A text stream put in place of stdin holds a character UTF-8 cannot
    encode."""
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"kind":"group","preset":"S3","name":"\udcff"}'))
    code, out = run_cli(capsys, ["verify", "-"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == 10


def _nested(depth: int, table: bool) -> str:
    """A model with a field ``depth`` lists deep: a group table, or a
    groupoid whose canonical ``comp`` is decoded from the bytes."""
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import transport_to_json
    model = transport_to_json(groupoid_of_bundle(
        named_bundles()["point-z2"])) if table else \
        {"kind": "group", "order": 1, "identity": 0, "mult": [[0]]}
    return (canonical_dumps(model)[:-1] + ',"name":' + "[" * depth
            + "]" * depth + "}")


@pytest.mark.parametrize("table", [False, True], ids=["group", "groupoid"])
def test_every_nesting_depth_loads_or_is_unreadable_json(tmp_path, capsys,
                                                         table):
    """Through the interpreter's recursion limit and past it: a model
    nested at most 100 deep runs, a deeper one is code 10."""
    path = tmp_path / "deep.json"
    for depth in range(1, 1201):
        path.write_text(_nested(depth, table))
        code = main(["verify", str(path)])
        captured = capsys.readouterr()
        assert captured.err == "", depth
        if depth < 100:
            assert code == 0, depth
        else:
            assert (code, json.loads(captured.out)["error"]) == (2, {
                "code": 10, "message": f"{path}: nested too deeply "
                "(more than 100 levels)"}), depth


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_input_nested_100000_deep_is_unreadable_json(tmp_path, stdin):
    raw = ("[" * 100_000 + "]" * 100_000).encode()
    path = tmp_path / "deep.json"
    path.write_bytes(raw)
    proc = _python("-m", "gpdflow.cli", "verify", "-" if stdin else str(path),
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    out, err = proc.communicate(raw if stdin else b"", timeout=120)
    assert err == b""
    assert proc.returncode == 2
    assert json.loads(out)["error"] == {
        "code": 10, "message": f"{'-' if stdin else path}: nested too deeply "
        "(more than 100 levels)"}

def _long_integer(where: str, digits: int) -> bytes:
    """A model with an integer literal of ``digits`` nines: beside a group's
    fields, in its ``mult`` table, or beside a groupoid's canonical
    ``comp`` table, which is decoded from the bytes."""
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import transport_to_json
    number = "9" * digits
    if where == "mult":
        return b'{"kind":"group","order":1,"identity":0,"mult":[[' \
            + number.encode() + b']]}'
    model = transport_to_json(groupoid_of_bundle(
        named_bundles()["point-z2"])) if where == "comp" else \
        {"kind": "group", "order": 1, "identity": 0, "mult": [[0]]}
    return (canonical_dumps(model)[:-1] + ',"x":' + number + "}").encode()


@pytest.mark.parametrize("limit", [None, 0, 640], ids=str)
@pytest.mark.parametrize("where", ["beside", "mult", "comp"])
@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_integer_literal_too_long_is_unreadable_json(tmp_path, capsys,
                                                     monkeypatch, limit,
                                                     where, stdin):
    """Past 4,300 digits an integer literal is code 10, and up to it a
    model loads, whatever digit limit the interpreter was started with
    (``None``: its default); the load leaves that limit as it found it."""
    import io
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before if limit is None else limit)
    try:
        for digits in (5000, 4301, 4300):
            raw = _long_integer(where, digits)
            path = tmp_path / "long.json"
            path.write_bytes(raw)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
            name = "-" if stdin else str(path)
            code, out = run_cli(capsys, ["verify", name])
            assert sys.get_int_max_str_digits() == (
                before if limit is None else limit)
            report = json.loads(out)
            if digits == 4300 and where != "mult":
                assert code == 0, report
            elif digits == 4300:  # a load, and then the entry is too large
                assert (code, report["error"]["code"]) == (2, 12), report
            else:
                assert (code, report["error"]) == (2, {
                    "code": 10, "message": f"{name}: invalid JSON: "
                    "integer of more than 4300 digits"}), digits
    finally:
        sys.set_int_max_str_digits(before)

# --- work done per run ---------------------------------------------------------------


def test_ambit_verifies_the_groupoid_once(tmp_path, capsys, monkeypatch):
    import gpdflow.groupoid
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.serialize import transport_to_json
    calls = []
    scan = gpdflow.groupoid._endpoint_scan

    def counting(gpd):  # one call per scan of the groupoid's axioms
        calls.append(gpd)
        return scan(gpd)
    monkeypatch.setattr(gpdflow.groupoid, "_endpoint_scan", counting)
    gpd_path = tmp_path / "groupoid.json"
    gpd_path.write_text(canonical_dumps(transport_to_json(
        groupoid_of_bundle(named_bundles()["edge-s3"]))))
    verdicts = {}
    for path in (str(gpd_path), write_bundle(tmp_path, "edge-s3")):
        calls.clear()
        code, out = run_cli(capsys, ["ambit", path])
        assert code == 0
        assert len(calls) == 1, path
        verdicts[path] = json.loads(out)["runs"][0]["verdicts"][-1]
    # the action verdict does not depend on who verified the groupoid
    first, second = verdicts.values()
    assert first == second
    assert first["property"] == "groupoid action axioms"


def test_sections_computes_the_fixed_points_once(monkeypatch):
    import gpdflow.amenability
    import gpdflow.cli
    calls = []

    def counting(grp, table):
        calls.append(table)
        return fixed_points(grp, table)
    for module in (gpdflow.amenability, gpdflow.cli):  # wherever it is read
        monkeypatch.setattr(module, "fixed_points", counting, raising=False)
    models = [m for m in fixture_models("sections") if m[0] == "triangle-z1"]
    report = run_command("sections", models)
    assert len(calls) == 1
    assert report["runs"][0]["facts"]["fixed_fiber_points"] == [0]
    assert report["ok"]


def test_semigroup_checks_the_fiber_table_once(monkeypatch):
    """``semigroup --fixtures`` verifies each bundle's group, its vertex
    group and its fiber table once each: the report reads the verdict
    ``fiber_semigroup`` found instead of checking the table again."""
    import gpdflow.algebra
    import gpdflow.cli
    import gpdflow.dynamics
    import gpdflow.groupoid
    import gpdflow.serialize
    from gpdflow.algebra import verify_group
    models = fixture_models("semigroup")  # the preset groups built here
    calls = []

    def counting(table, *args, **kwargs):
        calls.append(table)
        return verify_group(table, *args, **kwargs)
    for module in (gpdflow.algebra, gpdflow.cli, gpdflow.dynamics,
                   gpdflow.groupoid, gpdflow.serialize):
        monkeypatch.setattr(module, "verify_group", counting, raising=False)
    report = run_command("semigroup", models)
    assert report["ok"]
    assert len(models) == 8 and len(calls) == 3 * len(models)
    for run in report["runs"]:
        table = run["facts"]["table"]
        assert sum(t is table for t in calls) == 1, run["input"]


# --- the collector around main -------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_code", [0, 1, 2])
def test_main_restores_the_callers_collector(tmp_path, capsys, monkeypatch,
                                             enabled, exit_code):
    """``main`` leaves the cyclic collector as the caller set it, on or off,
    after a verdict (exit 0 or 1), a load or usage error (exit 2) and
    ``--help``; the model is parsed with the collector paused, by
    ``load_model`` itself (see ``tests/test_serialize.py``)."""
    import gc
    import gpdflow.serialize
    good = tmp_path / "group.json"
    good.write_text(json.dumps({"kind": "group", "order": 2, "identity": 0,
                                "mult": [[0, 1], [1, 0]]}))
    bad = tmp_path / "badgroup.json"
    bad.write_text(json.dumps({"kind": "group", "order": 2, "identity": 0,
                               "mult": [[0, 1], [1, 1]]}))
    argvs = {0: [["ea", "--fixtures"], ["verify", str(good)]],
             1: [["verify", str(bad)]],
             2: [["verify", str(tmp_path / "missing.json")], ["verify"]]
             }[exit_code]
    during = []

    def recording(*args, **kwargs):
        during.append(gc.isenabled())
        return parse_model(*args, **kwargs)
    monkeypatch.setattr(gpdflow.serialize, "parse_model", recording)
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in argvs:
            assert main(argv) == exit_code, argv
            assert gc.isenabled() == enabled, argv
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert during == ([] if exit_code == 2 else [False])


# --- the pipe at medium size, against the plain json encoding ---------------------


def _plain_json(obj) -> str:
    """The reference encoding: ``json`` with every array as a list and
    every row table (an emitted ``comp`` or ``act``) as its triples."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=lambda value: value.triples()
                      if isinstance(value, RowTable) else value.tolist())


def test_medium_pipe_matches_the_plain_json_encoding(tmp_path, capsys,
                                                     monkeypatch):
    """groupoidify | bundleize on a 5-vertex S4 bundle: both stdouts, input
    digests included, are the plain encoding of the same reports."""
    import hashlib
    import io
    from gpdflow.fixtures import large_random_bundle
    from gpdflow.serialize import load_model

    def digest(model):
        return hashlib.sha256(_plain_json(model).encode()).hexdigest()
    bundle = bundle_to_json(large_random_bundle(5, 3, "S4"))
    path = tmp_path / "bundle.json"
    path.write_text(_plain_json(bundle))
    code, out = run_cli(capsys, ["groupoidify", str(path)])
    assert code == 0
    report = run_command("groupoidify", [(str(path), load_model(str(path)))])
    assert out == _plain_json(report) + "\n"
    assert report["inputs"][0]["digest"] == digest(bundle)
    decoded = json.loads(out)
    assert len(decoded["runs"][0]["model"]["comp"]) == 600 * 5 * 24

    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2 = run_cli(capsys, ["bundleize", "-"])
    assert code == 0
    report2 = run_command("bundleize", [("stdin", parse_model(decoded))])
    assert out2 == _plain_json(report2) + "\n"
    assert report2["inputs"][0]["digest"] == \
        digest(decoded["runs"][0]["model"])


# --- the command line as a process ---------------------------------------------------


def _python(*args, unbuffered: bool = False, **kwargs) -> subprocess.Popen:
    """``python ARGS`` with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def _large_bundle_text() -> str:
    """A bundle whose groupoidify report (about 1 MB, its ``comp`` table
    two row blocks) is far larger than a pipe's buffer."""
    from gpdflow.fixtures import large_random_bundle
    return canonical_dumps(bundle_to_json(large_random_bundle(5, 3, "S4")))


@pytest.mark.parametrize("text,code", [
    (canonical_dumps(bundle_to_json(named_bundles()["edge-s3"])), 0),
    ("{not json", 2), (_large_bundle_text(), 0)],
    ids=["valid", "unreadable", "large"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly_with_the_runs_code(text, code,
                                                        unbuffered):
    """The reader closes the pipe before the command has read its input, so
    every write fails (with stdout buffered, only when flushed, or when a
    piece is larger than the buffer): no traceback, empty stderr, the
    run's own code."""
    proc = _python("-m", "gpdflow.cli", "groupoidify", "-",
                   unbuffered=unbuffered, stdin=subprocess.PIPE,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    try:
        proc.stdin.write(text.encode())
        proc.stdin.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        returncode = proc.wait(timeout=60)
    assert err == b""
    assert returncode == code


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_mid_report_exits_quietly(unbuffered, tmp_path):
    """The reader takes the first 4 KiB of a report streamed in pieces and
    closes the pipe: the writes that follow fail, with no traceback, empty
    stderr and the run's own code."""
    path = tmp_path / "bundle.json"
    path.write_text(_large_bundle_text())
    proc = _python("-m", "gpdflow.cli", "groupoidify", str(path),
                   unbuffered=unbuffered, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        returncode = proc.wait(timeout=60)
    assert head.startswith(b'{"command":"groupoidify","inputs":[')
    assert err == b""
    assert returncode == 0


@pytest.mark.parametrize("argv, code", [(["verify", "--fixtures"], 0),
                                        (["verify"], 2)])
def test_a_closed_pipe_points_stdout_at_the_null_device(monkeypatch, argv,
                                                        code):
    """In process: ``sys.stdout`` writes raise ``BrokenPipeError``, as a
    pipe whose reader has gone does, on a file descriptor that is a pipe
    end this test owns.  The run returns its own code, and the descriptor
    then refers to the null device, so the interpreter's last flush at
    exit has nowhere to fail."""
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return write_end

    read_end, write_end = os.pipe()
    try:
        assert not os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(argv) == code
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)


def test_error_after_a_large_run_prints_only_the_error(tmp_path, capsys):
    """The second input fails with a usage error after the first run has
    built a large report: nothing of that run reaches stdout, which holds
    the error report alone."""
    first, second = tmp_path / "bundle.json", tmp_path / "group.json"
    first.write_text(_large_bundle_text())
    second.write_text('{"kind":"group","preset":"S3"}')
    code, out = run_cli(capsys, ["groupoidify", str(first), str(second)])
    assert code == 2
    assert out == canonical_dumps(
        {"command": "groupoidify", "ok": False,
         "error": {"code": 2, "message": "groupoidify needs a bundle model, "
                                         "got group"}}) + "\n"


def test_verify_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma``, which costs start-up time in
    every process that verifies a groupoid."""
    def loaded(code: str) -> str:
        proc = _python("-c", code, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        return out.split()[-1]
    if loaded("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert loaded("import contextlib, io, sys\n"
                  "from gpdflow.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert main(['verify', '--fixtures']) == 0\n"
                  "print('numpy.ma' in sys.modules)\n") == "False"


def test_only_a_large_payload_loads_openssl(tmp_path):
    """``import hashlib`` loads OpenSSL's libcrypto through ``_hashlib``.
    A model of up to ``_LEAN_DIGEST`` bytes (4 MiB), by path, from stdin
    or among the fixtures, is hashed by the interpreter's own sha256 and
    never loads it: a small bundle, the canonical groupoid of the 7-vertex
    S4 bundle (2.8 MB), and that bundle's ambit report (3.2 MB) read back
    by ``orbits -`` from a regular file and through a pipe.  The groupoid
    of the 8-vertex S4 bundle, 4.4 MB, is hashed by ``hashlib``'s and
    loads it."""
    from gpdflow.ehresmann import groupoid_of_bundle
    from gpdflow.fixtures import large_random_bundle
    from gpdflow.serialize import groupoid_to_json

    def loaded(code: str, *argv: str, stdin=None, text=None) -> str:
        proc = _python("-c", code, *argv, stdin=stdin, stdout=subprocess.PIPE,
                       text=True)
        out, _ = proc.communicate(text, timeout=120)
        assert proc.returncode == 0
        return out.split()[-1]
    if loaded("import sys, numpy; print('_hashlib' in sys.modules)") == "True":
        pytest.skip("import numpy alone loads _hashlib")
    small, ambit = tmp_path / "small.json", tmp_path / "ambit.json"
    medium, large = tmp_path / "medium.json", tmp_path / "large.json"
    small.write_text(canonical_dumps(bundle_to_json(named_bundles()["edge-s3"])))
    for n, path in ((7, medium), (8, large)):
        path.write_text(canonical_dumps(groupoid_to_json(groupoid_of_bundle(
            large_random_bundle(n, 3, "S4")).groupoid)))
    bundle = parse_model(bundle_to_json(large_random_bundle(7, 3, "S4")))
    ambit.write_text(canonical_dumps(run_command("ambit", [("b", bundle)])))
    assert 2 << 20 < medium.stat().st_size < ambit.stat().st_size \
        <= 4 << 20 < large.stat().st_size
    code = ("import contextlib, io, sys\n"
            "from gpdflow.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print('_hashlib' in sys.modules)\n")
    with open(small) as stdin:
        assert loaded(code, "verify", "-", stdin=stdin) == "False"
    assert loaded(code, "verify", str(small)) == "False"
    assert loaded(code, "verify", "--fixtures") == "False"
    assert loaded(code, "verify", str(medium)) == "False"
    with open(ambit) as stdin:
        assert loaded(code, "orbits", "-", stdin=stdin) == "False"
    assert loaded(code, "orbits", "-", stdin=subprocess.PIPE,
                  text=ambit.read_text()) == "False"
    assert loaded(code, "verify", str(large)) == "True"


# --- contract fuzz ----------------------------------------------------------------

# values a mutation puts in place of a field, an entry or a row
FUZZ_VALUES = (-1, 0, 1, 2, 9, 1 << 31, True, None, 1.5, "x", [], [0], {})
LONG = "a 5,000-digit integer literal"  # put in the text as it is written


def _paths(value, path=()) -> list[tuple]:
    """Every path into a decoded model: each dict value and list item."""
    out = [path]
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        out += _paths(item, path + (key,))
    return out


def _mutated(model: dict, rng) -> object:
    """The model with one to three seeded edits: a value replaced, a key
    or an item dropped, an item repeated, two items swapped, an integer
    moved by one, or a value replaced by ``LONG``.  An edit at the root
    replaces the whole model."""
    model = json.loads(json.dumps(model))
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        path = rng.choice(_paths(model))
        if not path:
            return rng.choice(FUZZ_VALUES)
        holder = model
        for key in path[:-1]:
            holder = holder[key]
        key, edit = path[-1], rng.choice((0, 1, 2, 3, 3, 4, 4, 4, 5))
        if edit == 1:
            del holder[key]
        elif edit == 2 and isinstance(holder, list):
            holder.append(holder[key])
        elif edit == 3 and isinstance(holder, list):
            other = rng.randrange(len(holder))
            holder[key], holder[other] = holder[other], holder[key]
        elif edit == 4 and type(holder[key]) is int:
            holder[key] += rng.choice((-1, 1))
        elif edit == 5:
            holder[key] = LONG
        else:
            holder[key] = rng.choice(FUZZ_VALUES)
        model = json.loads(json.dumps(model))  # no shared items
    return model


def test_contract_fuzz_over_every_command(tmp_path, capsys):
    """400 seeded cases: a contract model, mutated, written compact or
    indented, bare or in a ``{"model": ...}`` envelope, run by a random
    command at a random basepoint.  Every case exits 0, 1 or 2, prints one
    canonical JSON line and nothing on stderr, and exits 2 exactly when
    the report carries an error, with code 10 wherever ``LONG`` stands.
    Most cases run a command that takes the model's kind; about a quarter
    get past loading to a verdict."""
    rng = random.Random(20)
    models = _contract_models()
    models["group-table.json"] = group_to_json(preset_group("S3"))
    bases = [json.loads(canonical_dumps(m)) for m in models.values()]
    path = tmp_path / "case.json"
    codes, long = set(), 0
    for case in range(400):
        base = rng.choice(bases)
        takes = [c for c in COMMANDS if base["kind"] in sum(
            cli._COMMANDS[c][1:], ())]
        command = rng.choice(takes if rng.random() < 0.8 else COMMANDS)
        model = _mutated(base, rng)
        if rng.random() < 0.2:
            model = {"model": model}
        text = canonical_dumps(model) if rng.random() < 0.8 \
            else json.dumps(model, indent=1)
        path.write_text(text.replace(json.dumps(LONG), "9" * 5000))
        code = main([command, str(path), "--basepoint",
                     str(rng.choice((0, 1, 9)))])
        out, err = capsys.readouterr()
        where = (case, command, path.read_text()[:200])
        assert code in (0, 1, 2) and err == "", where
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True,
                                 separators=(",", ":")) + "\n", where
        assert (code == 2) == ("error" in report), where
        if LONG in text:
            assert report["error"]["code"] == 10, where
            long += 1
        codes.add(code)
    assert codes == {0, 1, 2} and long
