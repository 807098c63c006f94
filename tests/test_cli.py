"""End-to-end behavior of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extcheck.cli import (
    RunConfig,
    UsageError,
    build_parser,
    load_objects,
    main,
    run,
)


def test_default_config_runs_everything_at_bound_1(capsys):
    code = main(["--bound", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: pass" in out
    assert "== validate [finset" in out
    assert "== H [finset" in out


def test_exit_codes_for_usage_errors(capsys):
    assert main(["--bound", "9"]) == 2
    assert "cap of 5" in capsys.readouterr().err
    assert main(["--theorem", "Q"]) == 2
    assert main(["--context", "nope"]) == 2
    assert main(["--closure", "alexandrov"]) == 2  # not on finset
    assert main(["--format", "yaml"]) == 2


def test_single_theorem_selection(capsys):
    code = main(["--theorem", "A", "--bound", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("== A [") == 1
    assert "== B [" not in out


def test_theorem_selection_is_deduplicated_and_ordered(capsys):
    code = main(["--theorem", "B", "--theorem", "A", "--theorem", "B",
                 "--bound", "1"])
    out = capsys.readouterr().out
    assert code == 0
    # run order puts A before B regardless of flag order
    assert out.index("== A [") < out.index("== B [")


def test_closure_selection_narrows_families(capsys):
    code = main(["--context", "finpre", "--theorem", "B",
                 "--closure", "alexandrov", "--bound", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "family alexandrov" in out
    assert "family indiscrete" not in out


def test_structured_report_is_byte_deterministic(tmp_path):
    args = ["--context", "finpre", "--bound", "1", "--format", "structured"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--report", str(p1)]) == 0
    assert main(args + ["--report", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["passed"] is True
    assert doc["context"] == "finpre"
    assert len(doc["verdicts"]) == 27
    assert all("theorem" in v for v in doc["verdicts"])


def test_structured_report_has_no_timings(tmp_path):
    p = tmp_path / "r.json"
    main(["--bound", "1", "--format", "structured", "--report", str(p)])
    doc = json.loads(p.read_text())
    flat = json.dumps(doc)
    assert "seconds" not in flat and "elapsed" not in flat


def test_text_report_written_to_file(tmp_path):
    p = tmp_path / "out.txt"
    code = main(["--theorem", "validate", "--bound", "1",
                 "--report", str(p)])
    assert code == 0
    assert "RESULT: pass" in p.read_text()


def test_objects_file_loading(tmp_path):
    p = tmp_path / "objs.json"
    p.write_text(json.dumps([
        {"name": "three", "carrier": ["a", "b", "c"]},
    ]))
    obs = load_objects(str(p), ordered=False)
    assert len(obs) == 1 and obs[0].size == 3
    code = main(["--objects", str(p), "--theorem", "A", "--bound", "1"])
    assert code == 0


def test_objects_file_reflexive_completion(tmp_path):
    p = tmp_path / "objs.json"
    p.write_text(json.dumps([
        {"name": "chain", "carrier": ["a", "b"], "order": [["a", "b"]]},
    ]))
    obs = load_objects(str(p), ordered=True)
    assert ("a", "a") in obs[0].order
    assert ("a", "b") in obs[0].order


def test_objects_file_errors(tmp_path):
    missing_pair = tmp_path / "bad.json"
    missing_pair.write_text(json.dumps([
        {"carrier": ["a", "b", "c"], "order": [["a", "b"], ["b", "c"]]},
    ]))
    with pytest.raises(UsageError, match=r"missing \(a,c\)"):
        load_objects(str(missing_pair), ordered=True)

    oversize = tmp_path / "big.json"
    oversize.write_text(json.dumps([
        {"carrier": list("abcdef")},
    ]))
    with pytest.raises(UsageError, match="cap"):
        load_objects(str(oversize), ordered=False)

    dupes = tmp_path / "dupes.json"
    dupes.write_text(json.dumps([{"carrier": ["a", "a"]}]))
    with pytest.raises(UsageError, match="duplicate"):
        load_objects(str(dupes), ordered=False)

    order_unordered = tmp_path / "flavor.json"
    order_unordered.write_text(json.dumps([
        {"carrier": ["a"], "order": [["a", "a"]]},
    ]))
    with pytest.raises(UsageError, match="unordered"):
        load_objects(str(order_unordered), ordered=False)

    not_json = tmp_path / "nope.json"
    not_json.write_text("{]")
    with pytest.raises(UsageError, match="valid JSON"):
        load_objects(str(not_json), ordered=False)

    with pytest.raises(UsageError, match="cannot read"):
        load_objects(str(tmp_path / "absent.json"), ordered=False)


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe[", "not valid UTF-8"),
    (b"[" * 200_000, "nests JSON too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_unreadable_objects_file_is_a_usage_error(tmp_path, capsys, content, message):
    p = tmp_path / "objects.json"
    p.write_bytes(content)
    code = main(["--context", "finpre", "--theorem", "validate",
                 "--bound", "0", "--objects", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def test_duplicate_object_names_are_a_usage_error(tmp_path, capsys):
    # Witnesses name objects, so two records named "t" would give one name
    # to two different objects.
    p = tmp_path / "objects.json"
    p.write_text(json.dumps([{"name": "t", "carrier": ["a"]},
                             {"name": "u", "carrier": ["a"]},
                             {"name": "t", "carrier": ["a", "b"]}]))
    code = main(["--context", "finpre", "--theorem", "validate",
                 "--bound", "0", "--objects", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "objects[2]" in err and "objects[0]" in err and "'t'" in err


def test_objects_flag_rejected_at_cli_level(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps([{"carrier": ["a"], "order": [["a", "a"]]}]))
    code = main(["--context", "finset", "--objects", str(p)])
    assert code == 2
    assert "unordered" in capsys.readouterr().err


def test_objects_order_that_is_not_a_list_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "order.json"
    p.write_text(json.dumps([{"carrier": ["a", "b"], "order": 5}]))
    with pytest.raises(UsageError, match="'order' must be a list"):
        load_objects(str(p), ordered=True)
    code = main(["--context", "finpre", "--theorem", "validate",
                 "--bound", "0", "--objects", str(p)])
    assert code == 2
    assert "'order' must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["a,b", "(a", "b)"])
def test_objects_labels_reserved_by_pair_labels_are_rejected(
        tmp_path, capsys, label):
    # pair_label("a", "b,c") == pair_label("a,b", "c"): such carriers would
    # give products and pullbacks two elements with one label.
    p = tmp_path / "labels.json"
    p.write_text(json.dumps([{"carrier": ["a", label, "c"], "order": []}]))
    code = main(["--context", "finpre", "--theorem", "validate",
                 "--bound", "0", "--objects", str(p)])
    assert code == 2
    err = capsys.readouterr().err
    assert repr(label) in err and "pair labels" in err


def test_run_function_returns_verdicts_in_declared_order():
    cfg = RunConfig(context="finset", theorems=("all",), bound=1)
    result = run(cfg)
    order = [v.theorem for v in result.verdicts]
    assert order[0] == "validate"
    assert order.index("A") < order.index("B") < order.index("H")
    assert result.passed


def test_empty_carrier_object_is_initial(tmp_path):
    p = tmp_path / "objs.json"
    p.write_text(json.dumps([{"name": "void", "carrier": []}]))
    obs = load_objects(str(p), ordered=False)
    assert obs[0].size == 0


def test_negative_bound_rejected(capsys):
    assert main(["--bound", "-1"]) == 2


def test_parser_help_mentions_all_flags():
    text = build_parser().format_help()
    for flag in ("--context", "--closure", "--theorem", "--bound",
                 "--objects", "--report", "--format"):
        assert flag in text


def test_order_error_does_not_depend_on_hash_seed(tmp_path):
    # The chain a<=b<=c<=d given without its transitive pairs misses (a,c)
    # via b, (b,d) via c and (a,d); the least missing pair is named, in
    # whatever order the order's frozenset iterates.
    p = tmp_path / "chain.json"
    p.write_text(json.dumps([{"name": "chain4", "carrier": list("abcd"),
                              "order": [["a", "b"], ["b", "c"], ["c", "d"]]}]))
    src = Path(__file__).resolve().parent.parent / "src"
    errors = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-m", "extcheck.cli", "--context", "finpre",
             "--objects", str(p), "--theorem", "validate", "--bound", "1"],
            env=env, capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        errors.append(out.stderr)
    assert errors[0] == errors[1]
    assert "order not transitive: missing (a,c) via b" in errors[0]
