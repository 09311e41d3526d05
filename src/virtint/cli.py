"""Command line front end: validate, translate, check.

Exit codes: 0 success/consistent, 1 invalid input or inconsistent test
cases, 2 I/O and usage errors (missing files, unbound diagrams), 3
inconclusive analysis (feasible only past --max-delay, or matchings cut
at --max-matchings).
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import os
import stat
import sys

from . import export, integrate, model, parser, translate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _want_color(stream) -> bool:
    mode = os.environ.get("VIRTINT_COLOR", "auto")
    if mode in ("always", "1"):
        return True
    if mode in ("never", "0"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


class _Printer:
    def __init__(self, stream=None):
        self.stream = stream or sys.stdout
        self.color = _want_color(self.stream)

    def _paint(self, text, code):
        if self.color:
            return "\x1b[%sm%s\x1b[0m" % (code, text)
        return text

    def line(self, text=""):
        print(text, file=self.stream)

    def good(self, text):
        self.line(self._paint(text, "32"))

    def bad(self, text):
        self.line(self._paint(text, "31"))

    def warn(self, text):
        self.line(self._paint(text, "33"))


def _read(path: str) -> str:
    """Read a UTF-8 text file; undecodable bytes raise an OSError naming it.

    Line endings are passed through untranslated: the lexer owns them, so
    a carriage return inside a quoted label stays part of the label.
    """
    with open(path, "r", encoding="utf-8", newline="") as fp:
        try:
            return fp.read()
        except UnicodeDecodeError as exc:
            raise OSError(errno.EILSEQ, "not valid UTF-8 (%s)" % exc.reason, path) from exc


def _sha256(text: str) -> str:
    """Digest of the file ``_read`` returned ``text`` for.  Strict UTF-8
    with no newline translation reads back to the file's exact bytes."""
    # Imported here: only check --report needs it, and loading _hashlib is
    # a sizeable part of every command's start-up.
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_tcsd(path: str, read=_read):
    """Parse and validate one diagram file; returns (result, violations)."""
    parsed = parser.parse_tcsd(read(path), filename=path)
    checked = model.validate(parsed.tcsd)
    return parsed, checked


def _print_violations(out: _Printer, path: str, parsed, checked):
    for violation in checked.violations:
        span = None
        for element in violation.elements:
            span = parsed.spans.get(element)
            if span is not None:
                break
        where = str(span) if span else path
        out.bad("%s: %s" % (where, violation))


def _file_error(exc: OSError) -> str:
    """``path: reason`` for an OSError that names a file."""
    return "%s: %s" % (exc.filename, exc.strerror or exc)


def cmd_validate(args, out: _Printer) -> int:
    """Validate each file in turn.  A file that cannot be read or parsed is
    reported like an invalid one, and the next file is checked; an
    unreadable file (exit 2) wins over an invalid one (exit 1)."""
    status = EXIT_OK
    for path in args.files:
        try:
            parsed, checked = _load_tcsd(path)
        except parser.ParseError as exc:
            out.bad(str(exc))
            status = max(status, EXIT_FAIL)
            continue
        except OSError as exc:
            if exc.filename is None:  # not about a file the user named
                raise
            out.bad(_file_error(exc))
            status = EXIT_USAGE
            continue
        if checked.ok:
            out.good("ok %s (%s)" % (path, parsed.tcsd.base.name))
        else:
            _print_violations(out, path, parsed, checked)
            status = max(status, EXIT_FAIL)
    return status


def _file_keys(path: str) -> set:
    """Keys that two names of one file share: its real path, and, if it
    exists, its device and inode, so that a hard link shares one too."""
    keys = {os.path.realpath(path)}
    try:
        st = os.stat(path)
    except OSError:
        return keys
    keys.add((st.st_dev, st.st_ino))
    return keys


def _check_output_paths(outputs, inputs, out: _Printer):
    """False, said why, if two outputs or an output and an input are one
    file, also through a link.  An output whose directory is missing or
    not a directory, or that is a directory, raises the OSError that
    writing it would, before any input is read."""
    outputs = [p for p in outputs if p]
    inputs = set().union(*map(_file_keys, inputs))
    written = set()
    for path in outputs:
        keys = _file_keys(path)
        if not keys.isdisjoint(inputs):
            out.bad("output path %s would overwrite an input" % path)
            return False
        if not keys.isdisjoint(written):
            out.bad("output path %s is named by two outputs" % path)
            return False
        written |= keys
    for path in outputs:
        try:
            parent = os.stat(os.path.dirname(path) or os.curdir)
            code = (errno.ENOTDIR if not stat.S_ISDIR(parent.st_mode)
                    else errno.EISDIR if os.path.isdir(path) else 0)
        except OSError as exc:  # the parent is missing, or under a file
            code = exc.errno
        if code:
            raise OSError(code, os.strerror(code), path)
    return True


def _write(path: str, lines, out: _Printer):
    """Write the strings ``lines`` yields to ``path`` and say so.  An
    OSError names ``path``, also one that only the write itself raised."""
    lines = iter(lines)
    try:
        with open(path, "w", encoding="utf-8") as fp:
            # A few hundred lines per write: a write() per line costs
            # more than making the lines, and no document is held whole.
            while chunk := "".join(itertools.islice(lines, 256)):
                fp.write(chunk)
    except OSError as exc:
        exc.filename = path
        raise
    out.line("wrote %s" % path)


def cmd_translate(args, out: _Printer) -> int:
    if not _check_output_paths([args.dot, args.tapaal], [args.file], out):
        return EXIT_USAGE
    parsed, checked = _load_tcsd(args.file)
    if not checked.ok:
        _print_violations(out, args.file, parsed, checked)
        return EXIT_FAIL
    unit = translate.translate(checked.tcsd, checked.regions)
    del parsed, checked  # the export needs neither the spans nor the region tree
    for path, lines in ((args.dot, export.dot_lines(unit.net, unit.m0)),
                        (args.tapaal, export.tapaal_xml_lines(unit))):
        if path:
            _write(path, lines, out)
    if not args.dot and not args.tapaal:
        out.stream.writelines(export.dot_lines(unit.net, unit.m0))
    return EXIT_OK


def _human_status(status: str) -> str:
    return status.replace("-", " ")


def _run_check(units, imap, args, out: _Printer):
    report = integrate.check_consistency(
        units, imap,
        policy=args.policy,
        require_all=args.require_all,
        max_states=args.max_states,
        max_total_delay=args.max_delay,
        max_matchings=args.max_matchings,
    )
    for n, v in enumerate(report.verdicts):
        line = "[%d] %s" % (n, _human_status(v.status))
        if v.blocking:
            line += "  blocking: %s" % ", ".join(v.blocking)
        if v.status == integrate.CONSISTENT and v.witness is not None:
            line += "  witness: %s" % " ".join(
                "+%d %s" % (s.delay, s.label or s.transition) for s in v.witness
            )
        (out.good if v.status == integrate.CONSISTENT else out.bad)(line)
    if report.matchings_truncated:
        out.warn("matching enumeration truncated at --max-matchings=%d"
                 % args.max_matchings)
    summary = "overall: %s" % report.overall
    classes = report.failure_classes
    if report.overall == "inconsistent" and classes:
        summary += " (%s)" % ", ".join(_human_status(c) for c in classes)
    (out.good if report.overall == "consistent" else out.bad)(summary)
    return report


def cmd_check(args, out: _Printer) -> int:
    inputs = [args.arch] + list(args.files)
    if not _check_output_paths([args.report], inputs, out):
        return EXIT_USAGE
    digests = []  # of each input as it was read, for --report

    def read(path):
        text = _read(path)
        if args.report:
            digests.append(_sha256(text))
        return text

    arch = parser.parse_architecture(read(args.arch), filename=args.arch)
    loaded = []
    for path in args.files:
        parsed, checked = _load_tcsd(path, read)
        if not checked.ok:
            _print_violations(out, path, parsed, checked)
            return EXIT_FAIL
        loaded.append(checked)

    imap = integrate.build_instance_map(arch, [c.tcsd for c in loaded])
    units = [translate.translate(c.tcsd, c.regions) for c in loaded]

    by_component: dict[str, list] = {}
    for u in units:
        by_component.setdefault(imap.sut_components[u.name], []).append(u)
    multi = sorted(c for c, us in by_component.items() if len(us) > 1)
    if multi and not args.cross_product:
        out.bad("two diagrams test the same component: %s (use --cross-product)"
                % ", ".join(multi))
        return EXIT_USAGE
    if multi and args.report:
        out.bad("--report is not supported together with --cross-product")
        return EXIT_USAGE

    # One selection of the units as given, or with --cross-product one
    # for each choice of a diagram per component.
    selections = (itertools.product(*(by_component[c] for c in sorted(by_component)))
                  if multi else [units])
    overalls = set()
    for selection in selections:
        if multi:
            out.line("== selection: %s" % ", ".join(u.name for u in selection))
        report = _run_check(list(selection), imap, args, out)
        overalls.add(report.overall)
    if args.report:
        _write(args.report, [export.to_report_json(report, list(zip(inputs, digests)))], out)
    if "inconsistent" in overalls:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE if "inconclusive" in overalls else EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="virtint",
        description="Virtual integration analysis for timed test-case "
                    "sequence diagrams.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check .tcsd files for well-formedness")
    p_val.add_argument("files", nargs="+", metavar="FILE.tcsd")

    p_tr = sub.add_parser("translate", help="compile one .tcsd into a timed net")
    p_tr.add_argument("file", metavar="FILE.tcsd")
    p_tr.add_argument("--dot", metavar="OUT.dot", help="write a graphviz drawing")
    p_tr.add_argument("--tapaal", metavar="OUT.xml", help="write interchange XML")

    p_chk = sub.add_parser("check", help="merge diagrams and decide consistency")
    p_chk.add_argument("files", nargs="+", metavar="FILE.tcsd")
    p_chk.add_argument("--arch", required=True, metavar="FILE.arch")
    p_chk.add_argument("--policy", choices=["maximal", "strict"], default="maximal")
    p_chk.add_argument("--require-all", action="store_true",
                       help="demand that every synchronization combination passes")
    p_chk.add_argument("--cross-product", action="store_true",
                       help="iterate runs over multiple diagrams per component")
    p_chk.add_argument("--max-states", type=int, default=1_000_000)
    p_chk.add_argument("--max-delay", type=int, default=None,
                       help="cap on the time of the last firing in a matching's "
                       "earliest schedule (default: unlimited)")
    p_chk.add_argument("--max-matchings", type=int, default=64)
    p_chk.add_argument("--report", metavar="OUT.json")
    return ap


def main(argv=None) -> int:
    """Run one command and give its exit code.  Every command's failures
    end here, each as one message and an exit code: a file that cannot be
    read or written, input that fails to parse, an integration error and
    the unroll limit of translation.  Only ``validate`` reports a file it
    cannot read or parse itself, to go on to the next file."""
    args = build_arg_parser().parse_args(argv)
    out = _Printer()
    for name in ("max_states", "max_matchings"):
        if getattr(args, name, 1) < 1:
            out.bad("--%s must be positive" % name.replace("_", "-"))
            return EXIT_USAGE
    if getattr(args, "max_delay", None) is not None and args.max_delay < 0:
        out.bad("--max-delay must be >= 0")
        return EXIT_USAGE
    # validate and translate build trees and make no reference cycles, so
    # they run without the cyclic collector; the caller's setting is kept.
    pause = args.command != "check" and gc.isenabled()
    if pause:
        gc.disable()
    try:
        if args.command == "validate":
            return cmd_validate(args, out)
        if args.command == "translate":
            return cmd_translate(args, out)
        return cmd_check(args, out)
    except OSError as exc:
        if exc.filename is None:  # not about a file the user named
            raise
        out.bad(_file_error(exc))
        return EXIT_USAGE
    except parser.ParseError as exc:
        out.bad(str(exc))
        return EXIT_FAIL
    except integrate.IntegrationError as exc:
        out.bad(str(exc))
        return EXIT_USAGE
    except translate.TranslationError as exc:
        out.bad("translation failed: %s" % exc)
        return EXIT_FAIL
    finally:
        if pause:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
