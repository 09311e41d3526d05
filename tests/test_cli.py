import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from virtint import cli, integrate, model, parser, tapn, translate


def run_cli(capsys, *args, env=None):
    old = {}
    env = env or {}
    for key, value in env.items():
        old[key] = os.environ.get(key)
        os.environ[key] = value
    try:
        code = cli.main(list(args))
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    out = capsys.readouterr().out
    return code, out


BSCU = [str(FIXTURES / "bscu" / n)
        for n in ("tc_command1.tcsd", "tc_monitor1.tcsd", "tc_switch.tcsd")]
BSCU_ARCH = str(FIXTURES / "bscu" / "bscu.arch")
REPAIRED = [str(FIXTURES / "bscu_repaired" / n)
            for n in ("tc_command1.tcsd", "tc_monitor1.tcsd", "tc_switch.tcsd")]
REPAIRED_ARCH = str(FIXTURES / "bscu_repaired" / "bscu.arch")


def test_validate_ok(capsys):
    code, out = run_cli(capsys, "validate", *BSCU)
    assert code == 0
    assert out.count("ok ") == 3


def test_validate_rejects_with_clause_name(capsys):
    path = str(FIXTURES / "invalid" / "double_partition.tcsd")
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert "uniqueness" in out


def test_validate_reports_cut_fragment(capsys):
    path = str(FIXTURES / "invalid" / "partition_in_fragment.tcsd")
    code, out = run_cli(capsys, "validate", path)
    assert code == 1
    assert "no-fragment-cutting" in out


def _nested_strict(depth):
    return ("tcsd Deep { sut S test A " + "strict { " * depth
            + "msg A -> S : x msg S -> A : y" + " }" * depth + " }\n")


def test_validate_rejects_nesting_beyond_limit(tmp_path, capsys):
    path = tmp_path / "deep.tcsd"
    path.write_text(_nested_strict(1500), encoding="utf-8")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1
    column = len("tcsd Deep { sut S test A ") + parser.MAX_NESTING * len("strict { ") + 8
    assert out.strip() == "%s:1:%d: blocks nested deeper than %d" % (
        path, column, parser.MAX_NESTING)
    assert "Traceback" not in out


def test_nesting_at_limit_validates_and_translates(tmp_path, capsys):
    path = tmp_path / "deep.tcsd"
    path.write_text(_nested_strict(parser.MAX_NESTING), encoding="utf-8")
    code, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    code, _ = run_cli(capsys, "translate", str(path), "--dot", str(tmp_path / "d.dot"))
    assert code == 0


def test_non_utf8_input_is_io_error_naming_the_path(tmp_path, capsys):
    path = tmp_path / "latin.tcsd"
    path.write_bytes(b"tcsd L { sut S test A msg A -> S : caf\xff }\n")
    for args in (["validate", str(path)], ["translate", str(path)],
                 ["check", str(path), "--arch", BSCU_ARCH],
                 ["check", BSCU[0], "--arch", str(path)]):
        code, out = run_cli(capsys, *args)
        assert code == 2, args
        assert str(path) in out and "UTF-8" in out, out


def test_validate_missing_file_is_io_error(capsys):
    code, out = run_cli(capsys, "validate", str(FIXTURES / "nope.tcsd"))
    assert code == 2


def test_validate_checks_every_file_past_an_unreadable_one(tmp_path, capsys):
    ok, invalid = BSCU[2], str(FIXTURES / "invalid" / "double_partition.tcsd")
    missing, broken = tmp_path / "nope.tcsd", tmp_path / "broken.tcsd"
    broken.write_text("tcsd B { sut S test A msg A -> S }\n", encoding="utf-8")
    violation = ("%s:6:6: uniqueness: 2 partition lines share timestamp 5 [e3 e4 e5 e6]"
                 % invalid)
    code, out = run_cli(capsys, "validate", ok, str(missing), invalid)
    assert code == 2
    assert out.splitlines() == ["ok %s (TC_Switch)" % ok,
                                "%s: No such file or directory" % missing, violation]
    # An unreadable file (2) wins over an invalid one (1) in either order,
    # and a parse error after it is reported too.
    code, out = run_cli(capsys, "validate", invalid, str(tmp_path), str(broken), ok)
    assert code == 2
    lines = out.splitlines()
    assert lines[:2] == [violation, "%s: Is a directory" % tmp_path]
    assert lines[2].startswith("%s:1:" % broken) and lines[3] == "ok %s (TC_Switch)" % ok
    assert len(lines) == 4


def test_translate_writes_deterministic_dot(tmp_path, capsys):
    out1 = tmp_path / "a.dot"
    out2 = tmp_path / "b.dot"
    code, _ = run_cli(capsys, "translate", BSCU[0], "--dot", str(out1))
    assert code == 0
    code, _ = run_cli(capsys, "translate", BSCU[0], "--dot", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_translate_without_outputs_prints_the_dot_file(tmp_path, capsys):
    # stdout is the document --dot writes, with no line added after it.
    for path in BSCU + REPAIRED:
        dot = tmp_path / "net.dot"
        assert run_cli(capsys, "translate", path, "--dot", str(dot)) \
            == (0, "wrote %s\n" % dot)
        code, out = run_cli(capsys, "translate", path)
        assert code == 0 and out.encode("utf-8") == dot.read_bytes(), path


def test_translate_writes_tapaal_xml(tmp_path, capsys):
    out = tmp_path / "net.xml"
    code, _ = run_cli(capsys, "translate", BSCU[2], "--tapaal", str(out))
    assert code == 0
    ET.parse(out)


def test_translate_refuses_invalid_input(tmp_path, capsys):
    path = str(FIXTURES / "invalid" / "double_partition.tcsd")
    code, out = run_cli(capsys, "translate", path, "--dot", str(tmp_path / "x.dot"))
    assert code == 1
    assert "uniqueness" in out
    assert not (tmp_path / "x.dot").exists()


def test_translate_refuses_overwriting_input(capsys):
    code, out = run_cli(capsys, "translate", BSCU[0], "--dot", BSCU[0])
    assert code == 2
    assert "overwrite" in out


def test_translate_refuses_two_outputs_on_one_file(tmp_path, capsys):
    out_path = tmp_path / "out.x"
    code, out = run_cli(capsys, "translate", BSCU[2], "--dot", str(out_path),
                        "--tapaal", str(tmp_path / ".." / tmp_path.name / "out.x"))
    assert code == 2
    assert "two outputs" in out
    assert "wrote" not in out
    assert not out_path.exists()



def test_an_output_linked_to_an_input_or_another_output_is_refused(tmp_path, capsys):
    # A symbolic or a hard link is one more name of a file: writing through
    # it would replace the input, or two outputs would share one file.
    diagram, arch = tmp_path / "a.tcsd", tmp_path / "a.arch"
    diagram.write_bytes(open(BSCU[2], "rb").read())
    arch.write_bytes(open(BSCU_ARCH, "rb").read())
    before = diagram.read_bytes(), arch.read_bytes()
    (tmp_path / "sym.dot").symlink_to(diagram)
    os.link(diagram, tmp_path / "hard.dot")
    (tmp_path / "sym.json").symlink_to(arch)
    for argv in (["translate", diagram, "--dot", "sym.dot"],
                 ["translate", diagram, "--tapaal", "hard.dot"],
                 ["check", *BSCU[:2], diagram, "--arch", arch, "--report", "sym.json"]):
        path = str(tmp_path / argv[-1])
        code, out = run_cli(capsys, *map(str, argv[:-1]), path)
        assert (code, out) == (2, "output path %s would overwrite an input\n" % path), argv
        assert (diagram.read_bytes(), arch.read_bytes()) == before
    # Two outputs on one file: a link to an output yet to be written, and
    # a hard link to one that exists.
    (tmp_path / "out.dot").symlink_to(tmp_path / "out.xml")
    (tmp_path / "old.xml").write_text("")
    os.link(tmp_path / "old.xml", tmp_path / "old.dot")
    for dot, xml in (("out.dot", "out.xml"), ("old.dot", "old.xml")):
        code, out = run_cli(capsys, "translate", BSCU[2], "--dot", str(tmp_path / dot),
                            "--tapaal", str(tmp_path / xml))
        assert (code, out) == (2, "output path %s is named by two outputs\n"
                               % (tmp_path / xml)), dot
    assert not (tmp_path / "out.xml").exists()
    assert (tmp_path / "old.xml").read_text() == ""


def test_translate_to_an_unwritable_path_is_io_error(tmp_path, capsys):
    # Every output is tried before the input is read, so nothing is written.
    missing = tmp_path / "no" / "such" / "dir"
    for outputs in (["--dot", str(missing / "x.dot")], ["--tapaal", str(missing / "x.xml")],
                    ["--dot", str(tmp_path / "ok.dot"), "--tapaal", str(missing / "x.xml")]):
        code, out = run_cli(capsys, "translate", BSCU[2], *outputs)
        assert code == 2, outputs
        assert out == "%s: No such file or directory\n" % outputs[-1], out
    assert not (tmp_path / "ok.dot").exists()
    # A directory where the file should go.
    code, out = run_cli(capsys, "translate", BSCU[2], "--dot", str(tmp_path))
    assert code == 2 and out == "%s: Is a directory\n" % tmp_path, out


def test_check_report_to_an_unwritable_path_is_io_error(tmp_path, capsys):
    # The report's path and why it cannot be written are all that is
    # printed: the exit is 2 before any input is read, whatever the verdict.
    for files, arch in ((REPAIRED, REPAIRED_ARCH), (BSCU, BSCU_ARCH),
                        ([str(tmp_path / "nope.tcsd")], str(tmp_path / "nope.arch"))):
        for report, reason in ((tmp_path / "missing" / "r.json", "No such file or directory"),
                               (tmp_path, "Is a directory")):
            code, out = run_cli(capsys, "check", *files, "--arch", arch,
                                "--report", str(report))
            assert code == 2, (files, report)
            assert out == "%s: %s\n" % (report, reason), out
    assert not (tmp_path / "missing").exists()


def test_an_output_under_a_regular_file_is_not_a_directory(tmp_path, capsys):
    # Writing under a file fails with ENOTDIR, as deep as the path goes,
    # and that is the reason given, before any input is read.
    under = [tmp_path / "empty.arch", FIXTURES / "bscu" / "bscu.arch"]
    under[0].write_text("")
    for parent in under:
        for out in (parent / "x.out", parent / "a" / "b" / "x.out"):
            for argv in (["translate", BSCU[2], "--dot", str(out)],
                         ["translate", str(tmp_path / "nope.tcsd"), "--tapaal", str(out)],
                         ["check", *BSCU, "--arch", BSCU_ARCH, "--report", str(out)],
                         ["check", *REPAIRED, "--arch", str(under[0]), "--report",
                          str(out)]):
                code, printed = run_cli(capsys, *argv)
                assert (code, printed) == (2, "%s: Not a directory\n" % out), argv
    assert under[0].read_text() == ""


class _FullDisk(io.StringIO):
    """A file that every write fails on, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_an_output_that_fails_while_written_is_named_after_the_work(
        tmp_path, capsys, monkeypatch):
    # Only a write can show that the disk is full: the work is done, then
    # the path and the reason are printed, and the exit is 2.
    code, verdicts = run_cli(capsys, "check", *REPAIRED, "--arch", REPAIRED_ARCH)
    assert code == 0
    monkeypatch.setattr(cli, "open", lambda file, mode="r", **kw: _FullDisk()
                        if "w" in mode else open(file, mode, **kw), raising=False)
    report = tmp_path / "r.json"
    code, out = run_cli(capsys, "check", *REPAIRED, "--arch", REPAIRED_ARCH,
                        "--report", str(report))
    assert code == 2 and out == verdicts + "%s: No space left on device\n" % report, out
    dot = tmp_path / "n.dot"
    code, out = run_cli(capsys, "translate", BSCU[2], "--dot", str(dot))
    assert code == 2 and out == "%s: No space left on device\n" % dot, out


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_an_oserror_that_names_no_file_propagates(tmp_path, capsys, monkeypatch):
    # A closed stdout, or any OSError with no file to name, is not turned
    # into "None: reason" and an exit code.
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    for argv in (["validate", BSCU[0]], ["validate", str(tmp_path / "nope.tcsd")],
                 ["check", *REPAIRED, "--arch", REPAIRED_ARCH]):
        with pytest.raises(BrokenPipeError):
            cli.main(argv)
    monkeypatch.undo()

    def fail(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(translate, "translate", fail)
    for argv in (["translate", BSCU[2]], ["check", *REPAIRED, "--arch", REPAIRED_ARCH]):
        with pytest.raises(OSError) as info:
            cli.main(argv)
        assert info.value.errno == errno.EIO and info.value.filename is None
    # validate, which goes on past a file it cannot read, stops at this one.
    monkeypatch.setattr(model, "validate", fail)
    with pytest.raises(OSError) as info:
        cli.main(["validate", BSCU[2], BSCU[0]])
    assert info.value.errno == errno.EIO and info.value.filename is None
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [["validate"], ["translate"], ["check", "--arch", BSCU_ARCH],
                                     ["check", BSCU[0], "--arch"]])
def test_an_unreadable_input_is_named_with_its_reason(tmp_path, capsys, command):
    for path, reason in ((tmp_path / "nope.tcsd", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code, out = run_cli(capsys, *command, str(path))
        assert code == 2, (command, path)
        assert out == "%s: %s\n" % (path, reason), out


def test_validate_rejects_an_integer_longer_than_the_limit(tmp_path, capsys):
    src = tmp_path / "long.tcsd"
    src.write_text("tcsd T {\n  sut S\n  test A\n  msg A -> S : x\n  at %s\n}\n"
                   % ("1" * 5000), encoding="utf-8")
    for command in ("validate", "translate"):
        code, out = run_cli(capsys, command, str(src))
        assert code == 1
        assert out == "%s:5:6: integer of 5000 digits is longer than the limit of %d\n" % (
            src, parser.MAX_INT_DIGITS)

@pytest.mark.parametrize("label,column", [("x\x01y", 16), ("x\\\x01y", 17),
                                          ("x\ufffey", 16)])
def test_translate_rejects_label_xml_cannot_hold(tmp_path, capsys, label, column):
    src = tmp_path / "bad.tcsd"
    src.write_text('tcsd T { sut S test A\nmsg A -> S : "%s" }' % label,
                   encoding="utf-8")
    xml = tmp_path / "bad.xml"
    code, out = run_cli(capsys, "translate", str(src), "--tapaal", str(xml))
    assert code == 1
    assert "%s:2:%d:" % (src, column) in out
    assert "not allowed" in out
    assert not xml.exists()


def test_check_bscu_reports_ordering_deadlock(capsys):
    code, out = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH)
    assert code == 1
    assert "ordering deadlock" in out
    for label in ("Status", "CMD1m", "AntiSkid1m", "CMD1", "AntiSkid1"):
        assert label in out


def test_check_repaired_bscu_consistent(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = run_cli(capsys, "check", *REPAIRED, "--arch", REPAIRED_ARCH,
                        "--report", str(report))
    assert code == 0
    assert "overall: consistent" in out
    assert report.exists()


def test_report_digests_the_bytes_it_analysed_reading_each_input_once(
        tmp_path, capsys, monkeypatch):
    # CRLF line ends in one diagram, lone CRs in the architecture.
    paths = []
    for name, ending in (("windows.arch", b"\r"), ("window_a.tcsd", b"\r\n"),
                         ("window_b.tcsd", b"\n")):
        path = tmp_path / name
        path.write_bytes((FIXTURES / "timing" / name).read_bytes().replace(b"\n", ending))
        paths.append(str(path))
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counted, raising=False)
    report = tmp_path / "report.json"
    code, out = run_cli(capsys, "check", *paths[1:], "--arch", paths[0],
                        "--report", str(report))
    assert code == 1 and "timing conflict" in out
    assert sorted(opened) == sorted(paths + [str(report)])
    inputs = json.loads(report.read_text(encoding="utf-8"))["inputs"]
    assert inputs == [{"path": p, "sha256": hashlib.sha256(open(p, "rb").read()).hexdigest()}
                      for p in paths]


def test_digest_of_read_text_is_the_file_digest(tmp_path):
    path = tmp_path / "input.tcsd"
    for data in (b"\xef\xbb\xbftcsd T { sut S test A msg A -> S : x }\r\n",
                 b"a\r\nb\rc\n\r\n", "\u00e9\u2028\U0001f600 \r".encode(), b""):
        path.write_bytes(data)
        assert cli._sha256(cli._read(str(path))) == hashlib.sha256(data).hexdigest()


def test_byte_order_mark_changes_nothing_but_the_digest(tmp_path, capsys):
    # Editors on Windows often start a UTF-8 file with EF BB BF.
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        d = tmp_path / name
        d.mkdir()
        for f in ("window_a.tcsd", "window_b.tcsd", "windows.arch"):
            data = (FIXTURES / "timing" / f).read_bytes()
            (d / f).write_bytes(prefix + data if f == "window_a.tcsd" else data)
        a = str(d / "window_a.tcsd")
        report = d / "r.json"
        runs = [run_cli(capsys, "validate", a),
                run_cli(capsys, "check", a, str(d / "window_b.tcsd"),
                        "--arch", str(d / "windows.arch"), "--report", str(report))]
        outputs.append([(code, out.replace(str(d), "DIR")) for code, out in runs])
        [digest] = [i["sha256"] for i in json.loads(report.read_text())["inputs"]
                    if i["path"] == a]
        assert digest == hashlib.sha256((d / "window_a.tcsd").read_bytes()).hexdigest()
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[1]] == [0, 1]


def test_check_timing_conflict(capsys):
    files = [str(FIXTURES / "timing" / "window_a.tcsd"),
             str(FIXTURES / "timing" / "window_b.tcsd")]
    code, out = run_cli(capsys, "check", *files, "--arch",
                        str(FIXTURES / "timing" / "windows.arch"))
    assert code == 1
    assert "timing conflict" in out


def test_check_invalid_diagram_is_invalid_input(tmp_path, capsys):
    # A diagram that parses but breaks a well-formedness clause: exit 1,
    # naming the clause, as validate does; nothing is checked.
    invalid = str(FIXTURES / "invalid" / "double_partition.tcsd")
    code, out = run_cli(capsys, "validate", invalid)
    assert code == 1 and "uniqueness" in out
    code, checked = run_cli(capsys, "check", invalid, *BSCU[1:], "--arch", BSCU_ARCH)
    assert code == 1 and checked == out
    assert "overall" not in checked
    # So is an architecture that fails to parse.
    arch = tmp_path / "cut.arch"
    arch.write_text("architecture A { components", encoding="utf-8")
    code, out = run_cli(capsys, "check", *BSCU, "--arch", str(arch))
    assert code == 1 and "cut.arch:1:" in out


def test_check_unbound_diagram(capsys):
    code, out = run_cli(capsys, "check", *BSCU, "--arch",
                        str(FIXTURES / "timing" / "windows.arch"))
    assert code == 2
    assert "TC_Command1" in out


def test_check_require_all_flips_verdict(capsys):
    files = [str(FIXTURES / "require_all" / "tc_twice_a.tcsd"),
             str(FIXTURES / "require_all" / "tc_twice_b.tcsd")]
    arch = str(FIXTURES / "require_all" / "twice.arch")
    code, _ = run_cli(capsys, "check", *files, "--arch", arch)
    assert code == 0
    code, _ = run_cli(capsys, "check", *files, "--arch", arch, "--require-all")
    assert code == 1


_BSCU_LABELS = ["AntiSkid1", "AntiSkid1m", "CMD1", "CMD1m", "Status"]
_BSCU_BLOCKING = "  blocking: " + ", ".join(_BSCU_LABELS)
_BSCU_DEADLOCK = "[0] ordering deadlock%s\noverall: inconsistent (ordering deadlock)\n"


def test_check_inconclusive_with_tiny_bounds(tmp_path, capsys):
    # Only constraints feasible past --max-delay are inconclusive.
    code, out = run_cli(capsys, "check", *_timing_with(tmp_path, 5, 6), "--max-delay", "3")
    assert (code, out) == (3, "[0] bound exceeded\noverall: inconclusive\n")
    # An incomplete causal order is a deadlock under any bound: --max-delay
    # does not reach its search, and --max-states cuts it short, which
    # leaves only `blocking` empty.
    for bounds, blocking in ((("--max-delay", "0"), _BSCU_BLOCKING),
                             (("--max-delay", "3"), _BSCU_BLOCKING),
                             (("--max-states", "5"), ""),
                             (("--max-states", "1", "--max-delay", "1"), "")):
        got = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH, *bounds)
        assert got == (1, _BSCU_DEADLOCK % blocking), bounds


def test_check_duplicate_diagram_usage_error(capsys):
    path = str(FIXTURES / "require_all" / "tc_twice_a.tcsd")
    code, out = run_cli(capsys, "check", path, path, "--arch",
                        str(FIXTURES / "require_all" / "twice.arch"))
    assert code == 2


def test_check_strict_policy_unmatched_occurrences(tmp_path, capsys):
    lean = tmp_path / "tc_lean.tcsd"
    lean.write_text("tcsd TC_TwiceB { sut R test C "
                    "msg C -> R : ping msg C -> R : done }")
    files = [str(FIXTURES / "require_all" / "tc_twice_a.tcsd"), str(lean)]
    arch = str(FIXTURES / "require_all" / "twice.arch")
    code, out = run_cli(capsys, "check", *files, "--arch", arch,
                        "--policy", "strict")
    assert code == 2
    assert "unmatched" in out and "ping" in out
    # The surplus occurrence is tolerated under the default policy.
    code, _ = run_cli(capsys, "check", *files, "--arch", arch)
    assert code == 0


def test_cross_product_mode(tmp_path, capsys):
    # Two alternative diagrams for CompA against one for CompB.
    alt = tmp_path / "tc_alt.tcsd"
    alt.write_text("tcsd TC_TwiceC { sut S test B "
                   "msg S -> B : ping msg S -> B : done msg S -> B : ping }")
    arch = tmp_path / "cross.arch"
    arch.write_text(
        "architecture X { components CompA, CompB "
        "bind TC_TwiceA { sut = CompA B -> CompB } "
        "bind TC_TwiceC { sut = CompA B -> CompB } "
        "bind TC_TwiceB { sut = CompB C -> CompA } }")
    files = [str(FIXTURES / "require_all" / "tc_twice_a.tcsd"), str(alt),
             str(FIXTURES / "require_all" / "tc_twice_b.tcsd")]
    code, out = run_cli(capsys, "check", *files, "--arch", str(arch))
    assert code == 2
    assert "--cross-product" in out
    code, out = run_cli(capsys, "check", *files, "--arch", str(arch),
                        "--cross-product")
    assert code == 0
    assert out.count("== selection:") == 2


def _windows_cross(tmp_path):
    """The timing fixture with two more diagrams for CompA: one consistent
    with TC_WindowB, and one that deadlocks after a free first message."""
    for name in ("window_a.tcsd", "window_b.tcsd"):
        (tmp_path / name).write_bytes((FIXTURES / "timing" / name).read_bytes())
    (tmp_path / "window_ok.tcsd").write_text(
        "tcsd TC_WindowOk { sut S test T msg T -> S : sync msg T -> S : x at 9 }\n")
    (tmp_path / "window_dead.tcsd").write_text(
        "tcsd TC_WindowDead { sut S test T msg T -> S : hello msg T -> S : x "
        "msg T -> S : sync }\n")
    (tmp_path / "cross.arch").write_text(
        "architecture Cross { components CompA, CompB "
        + " ".join("bind TC_Window%s { sut = CompA T -> CompB }" % n for n in ("A", "Ok", "Dead"))
        + " bind TC_WindowB { sut = CompB U -> CompA } }\n")
    return lambda *names: ([str(tmp_path / ("window_%s.tcsd" % n)) for n in names]
                           + [str(tmp_path / "window_b.tcsd"), "--arch",
                              str(tmp_path / "cross.arch"), "--cross-product"])


_OK_SELECTION = (
    "== selection: TC_WindowOk, TC_WindowB\n"
    "[0] consistent  witness: +0 TC_WindowB.T0 +0 TC_WindowB.T1 +0 TC_WindowOk.T0"
    " +0 TC_WindowOk.T1 +0 sync +1 TC_WindowB.T3 +5 TC_WindowB.T4 +0 x +3 TC_WindowOk.T4\n"
    "overall: consistent\n")
_DEAD_SELECTION = ("== selection: TC_WindowDead, TC_WindowB\n"
                   "[0] ordering deadlock  blocking: sync, x\n"
                   "overall: inconsistent (ordering deadlock)\n")
_CUT_DEAD_SELECTION = ("== selection: TC_WindowDead, TC_WindowB\n"
                       "[0] ordering deadlock\n"
                       "overall: inconsistent (ordering deadlock)\n")
_LATE_SELECTION = ("== selection: TC_WindowOk, TC_WindowB\n"
                   "[0] bound exceeded\n"
                   "overall: inconclusive\n")
_CONFLICT_SELECTION = ("== selection: TC_WindowA, TC_WindowB\n"
                       "[0] timing conflict\n"
                       "overall: inconsistent (timing conflict)\n")


def test_cross_product_exit_is_inconsistent_then_inconclusive_then_consistent(
        tmp_path, capsys):
    # Selections run in input order for each component.  The consistent
    # selection needs 9 ticks, so --max-delay 3 leaves it inconclusive;
    # one state is too few to search the deadlock for `blocking`, but it
    # is a deadlock all the same.
    files = _windows_cross(tmp_path)
    for names, options, code, selections in (
            (("ok",), (), 0, [_OK_SELECTION]),
            (("ok",), ("--max-delay", "3"), 3, [_LATE_SELECTION]),
            (("ok", "dead"), (), 1, [_OK_SELECTION, _DEAD_SELECTION]),
            (("ok", "dead"), ("--max-delay", "3"), 1, [_LATE_SELECTION, _DEAD_SELECTION]),
            (("ok", "dead"), ("--max-states", "1"), 1, [_OK_SELECTION, _CUT_DEAD_SELECTION]),
            (("dead", "a"), ("--max-states", "1"), 1,
             [_CUT_DEAD_SELECTION, _CONFLICT_SELECTION]),
            (("a", "dead"), ("--max-states", "1"), 1,
             [_CONFLICT_SELECTION, _CUT_DEAD_SELECTION])):
        got = run_cli(capsys, "check", *files(*names), *options)
        if len(names) == 1:  # one diagram a component: no selection header
            selections = [s.split("\n", 1)[1] for s in selections]
        assert got == (code, "".join(selections)), (names, options)


def test_integration_error_inside_a_selection_is_a_usage_error(tmp_path, capsys):
    # Under the strict policy TC_WindowDead's extra message is unmatched:
    # the first selection's verdicts stand, then the second is refused.
    code, out = run_cli(capsys, "check", *_windows_cross(tmp_path)("ok", "dead"),
                        "--policy", "strict")
    assert code == 2
    assert out == _OK_SELECTION + (
        "== selection: TC_WindowDead, TC_WindowB\n"
        "unmatched message occurrences between TC_WindowDead and TC_WindowB: hello (1 vs 0)\n")


def test_report_with_several_selections_is_refused_before_any_check(tmp_path, capsys):
    report = tmp_path / "r.json"
    files = _windows_cross(tmp_path)
    code, out = run_cli(capsys, "check", *files("ok", "dead"), "--report", str(report))
    assert (code, out) == (2, "--report is not supported together with --cross-product\n")
    assert not report.exists()
    # With one diagram a component there is one selection, and it is reported.
    code, out = run_cli(capsys, "check", *files("ok"), "--report", str(report))
    assert code == 0 and out.endswith("wrote %s\n" % report), out
    assert json.loads(report.read_text())["overall"] == "consistent"


def test_check_warns_when_matchings_are_truncated(capsys):
    files = [str(FIXTURES / "require_all" / n) for n in ("tc_twice_a.tcsd", "tc_twice_b.tcsd")]
    code, out = run_cli(capsys, "check", *files, "--arch",
                        str(FIXTURES / "require_all" / "twice.arch"), "--max-matchings", "1")
    assert code == 0
    assert out == ("[0] consistent  witness: +0 TC_TwiceA.T0 +0 TC_TwiceA.T1 +0 TC_TwiceB.T0"
                   " +0 TC_TwiceB.T1 +0 ping +0 done +0 ping\n"
                   "matching enumeration truncated at --max-matchings=1\n"
                   "overall: consistent\n")


def test_max_matchings_past_sys_maxsize_caps_at_it(capsys):
    # No enumeration reaches sys.maxsize matchings, so any larger cap
    # checks and prints as that one does.
    runs = [run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH, "--max-matchings", value)
            for value in (str(sys.maxsize), str(sys.maxsize + 1), "1" * 30)]
    assert runs[0][0] == 1
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_check_refuses_a_report_over_an_input(capsys):
    before = open(BSCU_ARCH, "rb").read()
    for target in (BSCU_ARCH, BSCU[1]):
        code, out = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH, "--report", target)
        assert (code, out) == (2, "output path %s would overwrite an input\n" % target)
    assert open(BSCU_ARCH, "rb").read() == before


def test_color_env_toggle(capsys):
    code, plain = run_cli(capsys, "validate", BSCU[0], env={"VIRTINT_COLOR": "never"})
    assert "\x1b[" not in plain
    code, colored = run_cli(capsys, "validate", BSCU[0], env={"VIRTINT_COLOR": "always"})
    assert "\x1b[32m" in colored


def test_bad_bounds_rejected(capsys):
    code, out = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH,
                        "--max-states", "0")
    assert code == 2
    code, out = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH, "--max-delay", "-1")
    assert (code, out) == (2, "--max-delay must be >= 0\n")
    # 0 is a bound, and no bound undoes a deadlock.
    code, out = run_cli(capsys, "check", *BSCU, "--arch", BSCU_ARCH, "--max-delay", "0")
    assert (code, out) == (1, _BSCU_DEADLOCK % _BSCU_BLOCKING)


CR_LABEL = 'tcsd T {\n  sut S\n  test A\n  msg A -> S : "a\rb"\n}\n'


def test_carriage_return_in_label_is_kept(tmp_path, capsys):
    path = tmp_path / "cr.tcsd"
    path.write_bytes(CR_LABEL.encode())
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0, out
    xml = tmp_path / "cr.xml"
    assert run_cli(capsys, "translate", str(path), "--tapaal", str(xml))[0] == 0
    labels = {e.get("label") for e in ET.parse(xml).iter()}
    assert "a\rb" in labels


def test_crlf_and_cr_files_report_the_lf_positions(tmp_path, capsys):
    # Parse errors after a comment and after an escaped line end, and
    # validation errors after a comment.
    commented = "# c\ntcsd T {\n  sut S\n  test A\n  msg A -> S : @\n}\n"
    escaped = ('tcsd T {\n  sut S\n  test A\n  msg A -> S : "x\\\ny"\n'
               '  msg A -> S : @\n}\n')
    invalid = (FIXTURES / "invalid" / "double_partition.tcsd").read_text(encoding="utf-8")
    path = tmp_path / "file.tcsd"
    for text, expected in (
            (commented, "file.tcsd:5:16: unexpected character '@'"),
            (escaped, "file.tcsd:6:16: unexpected character '@'"),
            (invalid, "file.tcsd:6:6: uniqueness")):
        outputs = []
        for ending in ("\n", "\r\n", "\r"):
            path.write_bytes(text.replace("\n", ending).encode())
            outputs.append(run_cli(capsys, "validate", str(path)))
        assert outputs[0][0] == 1 and expected in outputs[0][1], outputs[0]
        assert all(output == outputs[0] for output in outputs), outputs


def test_formatted_label_with_carriage_return_validates(tmp_path, capsys):
    tcsd = parser.parse_tcsd(CR_LABEL).tcsd
    path = tmp_path / "formatted.tcsd"
    path.write_bytes(parser.format_tcsd(tcsd).encode())
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0, out


def test_non_decimal_digits_are_a_parse_error(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int(): it used to reach
    # int() and end in a ValueError traceback.
    path = tmp_path / "sup.tcsd"
    path.write_text("tcsd T { sut S test A at ² msg A -> S : x }\n",
                    encoding="utf-8")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "sup.tcsd:1:26: unexpected character '²'" in out
    # Invalid input exits 1 under check too, as under validate and translate.
    code, out = run_cli(capsys, "check", str(path), str(path), "--arch", BSCU_ARCH)
    assert code == 1
    assert "sup.tcsd:1:26: unexpected character '²'" in out
    for ch in "¹³①⑴":
        with pytest.raises(parser.ParseError, match="1:26"):
            parser.parse_tcsd("tcsd T { sut S test A at %s msg A -> S : x }" % ch)
    # Decimal digits of any script are what int() reads.
    tcsd = parser.parse_tcsd("tcsd T { sut S test A at ٣ msg A -> S : x }").tcsd
    assert parser.format_tcsd(tcsd) == parser.format_tcsd(
        parser.parse_tcsd("tcsd T { sut S test A at 3 msg A -> S : x }").tcsd)


def _timing_with(tmp_path, window_a, window_b):
    """The timing fixture with its partition times replaced."""
    paths = []
    for name, old, new in (("window_a.tcsd", "at 2\n", "at %d\n" % window_a),
                           ("window_b.tcsd", "at 6\n", "at %d\n" % window_b)):
        text = (FIXTURES / "timing" / name).read_text(encoding="utf-8")
        assert old in text
        path = tmp_path / name
        path.write_text(text.replace(old, new), encoding="utf-8")
        paths.append(str(path))
    return paths + ["--arch", str(FIXTURES / "timing" / "windows.arch")]


def _bscu_with(tmp_path, timeout):
    """The BSCU fixture with TC_Switch's timeout replaced."""
    for path in (FIXTURES / "bscu").iterdir():
        text = path.read_text(encoding="utf-8")
        if path.name == "tc_switch.tcsd":
            assert "timeout 5 {" in text
            text = text.replace("timeout 5 {", "timeout %d {" % timeout)
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    return [str(tmp_path / n) for n in ("tc_command1.tcsd", "tc_monitor1.tcsd",
                                        "tc_switch.tcsd")] \
        + ["--arch", str(tmp_path / "bscu.arch")]


def test_guard_constant_above_the_search_limit_leaves_blocking_empty(tmp_path, capsys):
    # Delay windows are bit sets as wide as the largest constant: 2e12
    # used to ask for about 250 GB and die with a MemoryError.  The search
    # for an ordering deadlock's `blocking` refuses it at once, and the
    # deadlock stands.
    report = tmp_path / "r.json"
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "check", *_bscu_with(tmp_path, 2 * 10**12),
                        "--report", str(report))
    elapsed = time.perf_counter() - t0
    assert (code, out) == (1, _BSCU_DEADLOCK % "" + "wrote %s\n" % report)
    [verdict] = json.loads(report.read_text())["verdicts"]
    assert (verdict["status"], verdict["blocking"], verdict["states_explored"]) \
        == ("ordering-deadlock", [], 1)
    assert elapsed < 1.0, elapsed
    # A matching whose causal order is complete is decided from its
    # constraints, whatever the constants.
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "check", *_timing_with(tmp_path, 2 * 10**12, 6 * 10**7),
                        "--report", str(report))
    elapsed = time.perf_counter() - t0
    assert code == 0 and "MAX_GUARD" not in out, out
    [verdict] = json.loads(report.read_text())["verdicts"]
    assert verdict["status"] == "consistent" and verdict["states_explored"] == 0
    assert elapsed < 1.0, elapsed
    # Under --max-delay 3 it is bound-exceeded, also from its constraints.
    code, out = run_cli(capsys, "check", *_timing_with(tmp_path, 2 * 10**12, 6 * 10**7),
                        "--max-delay", "3")
    assert (code, out) == (3, "[0] bound exceeded\noverall: inconclusive\n")


def test_guard_constant_limit_is_inclusive(tmp_path, capsys, monkeypatch):
    # At the limit the search runs and lists `blocking`; above it the
    # search is refused, with one state, and the deadlock stands.
    args = [*_bscu_with(tmp_path, 6), "--report", str(tmp_path / "r.json")]
    for limit, labels in ((6, _BSCU_LABELS), (5, [])):
        monkeypatch.setattr(tapn, "MAX_GUARD_CONSTANT", limit)
        code, out = run_cli(capsys, "check", *args)
        blocking = _BSCU_BLOCKING if labels else ""
        assert (code, out) == (1, _BSCU_DEADLOCK % blocking + "wrote %s\n" % args[-1])
        [verdict] = json.loads((tmp_path / "r.json").read_text())["verdicts"]
        assert verdict["blocking"] == labels
        assert verdict["states_explored"] > 1 if labels else verdict["states_explored"] == 1


@pytest.fixture
def gc_seen(monkeypatch):
    """Whether the cyclic collector was on while each diagram was validated
    and each check ran; the collector is switched back on afterwards."""
    seen = []
    validate = model.validate
    monkeypatch.setattr(model, "validate", lambda tcsd: seen.append(gc.isenabled())
                        or validate(tcsd))
    check = cli.integrate.check_consistency
    monkeypatch.setattr(cli.integrate, "check_consistency",
                        lambda *a, **kw: seen.append(gc.isenabled()) or check(*a, **kw))
    yield seen
    gc.enable()


def _gc_exit_paths(tmp_path):
    """(argv, exit code) for every way validate and translate end."""
    bad = tmp_path / "bad.tcsd"
    bad.write_text("tcsd T { sut S test A msg A -> Q : x }\n")
    ok = str(FIXTURES / "bscu" / "tc_switch.tcsd")
    return [
        (["validate", ok], 0),
        (["translate", ok, "--dot", str(tmp_path / "n.dot")], 0),
        (["validate", str(bad)], 1),  # ParseError
        (["translate", str(bad)], 1),
        (["validate", str(FIXTURES / "invalid" / "double_partition.tcsd")], 1),  # a violation
        (["translate", str(FIXTURES / "invalid" / "double_partition.tcsd")], 1),
        (["validate", str(tmp_path / "missing.tcsd")], 2),  # OSError
        (["translate", str(tmp_path / "missing.tcsd")], 2),
        (["translate", ok, "--dot", ok], 2),  # a usage error
        (["translate", ok, "--dot", str(tmp_path / "no" / "such" / "dir.dot")], 2),  # unwritable
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_validate_and_translate_pause_gc_and_restore_it(tmp_path, capsys, monkeypatch, gc_seen,
                                                        enabled):
    for argv, code in _gc_exit_paths(tmp_path):
        (gc.enable if enabled else gc.disable)()
        gc_seen.clear()
        assert cli.main(argv) == code, argv
        assert gc.isenabled() is enabled, argv
        assert not any(gc_seen), argv
    # A TranslationError, and an exception that leaves main.
    monkeypatch.setattr(translate, "MAX_TRANSITIONS", 1)
    (gc.enable if enabled else gc.disable)()
    assert cli.main(["translate", str(FIXTURES / "bscu" / "tc_switch.tcsd")]) == 1
    assert gc.isenabled() is enabled
    assert "translation failed" in capsys.readouterr().out

    def fail(*args):
        raise RuntimeError("translate failed unexpectedly")

    monkeypatch.setattr(translate, "translate", fail)
    with pytest.raises(RuntimeError):
        cli.main(["translate", str(FIXTURES / "bscu" / "tc_switch.tcsd")])
    assert gc.isenabled() is enabled


def test_check_runs_with_gc_as_the_caller_left_it(capsys, gc_seen):
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        gc_seen.clear()
        assert cli.main(["check", *REPAIRED, "--arch", REPAIRED_ARCH]) == 0
        assert gc.isenabled() is enabled
        assert gc_seen and all(seen is enabled for seen in gc_seen)


# -- any input: an exit code in 0-3 and no traceback -------------------------------

# Each fixture set's diagrams and architecture; the invalid set, which has
# no architecture, last.
_SETS = sorted(((sorted(p.read_bytes() for p in d.glob("*.tcsd")),
                 [p.read_bytes() for p in d.glob("*.arch")])
                for d in sorted(FIXTURES.iterdir())), key=lambda s: not s[1])
_NUMBER = re.compile(rb"\d+")
# Integers that keep a loop's unrolling and a search's ages small, and
# ones past the search's guard limit, at and past the parser's digit limit.
_INTEGERS = [b"0", b"1", b"7", b"1" + b"0" * 12, b"9" * 4300, b"9" * 4301]
_HUGE = [str(2 ** 63), "1" * 30]


@st.composite
def _input_file(draw, texts):
    """Random bytes, or one of ``texts`` after up to four edits; the first
    choice of each draw is the one that shrinking moves to."""
    if not texts or draw(st.sampled_from(["text"] * 7 + ["bytes"])) == "bytes":
        return draw(st.binary(max_size=200))
    data = draw(st.sampled_from(texts))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 4]))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["bom", "nul", "bad-utf8", "integer", "deep", "cut",
                                     "bytes"]))
        if edit == "bom":
            data = b"\xef\xbb\xbf" * draw(st.integers(1, 2)) + data
        elif edit == "nul":
            data = data[:at] + b"\x00" + data[at:]
        elif edit == "bad-utf8":
            bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
            data = data[:at] + bad + data[at:]
        elif edit == "integer":
            data = _NUMBER.sub(draw(st.sampled_from(_INTEGERS)), data, count=1)
        elif edit == "deep":  # blocks around the end of the body, at and past the limit
            n = draw(st.sampled_from([3, 100, 101]))
            end = data.rfind(b"}")
            data = data[:end] + b"opt { " * n + b"at 1 " + b"} " * n + data[end:]
        elif edit == "cut":
            data = data[:at]
        else:
            data = data[:at] + draw(st.binary(max_size=20)) + data[at:]
    return data


@st.composite
def _command(draw):
    """A draw mode, a command line and the files it names, as (mode, argv,
    {name: bytes}): ``check`` reads every diagram of a fixture set, each
    perhaps edited; ``bounds`` checks such a set as it is, under bounds
    the command line accepts."""
    command = draw(st.sampled_from(["validate", "translate", "check", "bounds"]))
    if command == "bounds":
        return (command, *draw(_bounded_check()))
    tcsds, archs = draw(st.sampled_from(_SETS))
    if command == "check":
        texts = [draw(_input_file([text])) for text in tcsds]
    else:
        texts = [draw(_input_file(tcsds)) for _ in range(
            1 if command == "translate" else draw(st.integers(1, 3)))]
    files = {"d%d.tcsd" % n: text for n, text in enumerate(texts)}
    argv = [command, *files]
    if command == "translate":
        for flag, name in (("--dot", "out.dot"), ("--tapaal", "out.xml")):
            if draw(st.booleans()):
                argv += [flag, name]
    elif command == "check":
        files["a.arch"] = draw(_input_file(archs))
        argv += ["--arch", "a.arch"]
        for flag in ("--require-all", "--cross-product"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv += ["--policy", "strict"]
        # Each bound also past sys.maxsize, which no search or enumeration reaches.
        for flag, values in (("--max-states", ["5000", "50", "1", "-1"] + _HUGE),
                             ("--max-delay", ["3", "0", "-1"] + _HUGE),
                             ("--max-matchings", ["64", "1", "0"] + _HUGE)):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(values))]
        if draw(st.booleans()):
            argv += ["--report", draw(st.sampled_from(["r.json", "missing/r.json", "d0.tcsd"]))]
    return command, argv, files


@st.composite
def _bounded_check(draw):
    """``check`` of one fixture set with an architecture, its texts intact,
    each bound drawn or left out; every value, ``2**63`` too, is one the
    command line accepts."""
    tcsds, archs = draw(st.sampled_from([s for s in _SETS if s[1]]))
    files = {"d%d.tcsd" % n: text for n, text in enumerate(tcsds)}
    argv = ["check", *files, "--arch", "a.arch"]
    files["a.arch"] = archs[0]
    for flag, values in (("--max-states", ["5000", "50", "1"] + _HUGE),
                         ("--max-delay", ["3", "0"] + _HUGE),
                         ("--max-matchings", ["64", "2", "1"] + _HUGE)):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    for flag in ("--require-all", "--cross-product"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv, files


def test_any_input_exits_0_to_3_without_a_traceback(monkeypatch):
    calls = []
    real = integrate.check_consistency
    monkeypatch.setattr(integrate, "check_consistency",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    bounded = []  # per bounds-mode draw: whether it reached the check, with a huge bound

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_command())
    def run(command):
        mode, argv, files = command
        calls.clear()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                with open(os.path.join(tmp, name), "wb") as fp:
                    fp.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([os.path.join(tmp, a) if a in files or a.endswith(
                        (".dot", ".xml", ".json")) else a for a in argv])
                except SystemExit as exc:  # argparse refusing the command line
                    code = exc.code
        assert code in (0, 1, 2, 3), (argv, out.getvalue(), err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if mode == "bounds":
            bounded.append((bool(calls), any(a in _HUGE for a in argv)))

    run()
    # Bounds are tried only by the draws that reach the check itself.
    assert bounded and 3 * sum(r for r, _ in bounded) >= len(bounded), bounded
    assert (True, True) in bounded
