"""The records are NamedTuples: what importing them costs, and the tuple
semantics callers must keep in mind."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT
from virtint import export, integrate, translate
from virtint.tapn import InputArc, OutputArc, Transition, TransportArc

SUBMODULES = ("cli", "export", "integrate", "model", "parser", "stp", "tapn", "translate")


def test_import_loads_every_submodule_but_not_dataclasses_or_inspect():
    # -S keeps site hooks of the environment out: only virtint's own imports count.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import virtint; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert {"virtint." + name for name in SUBMODULES} <= loaded


@pytest.mark.parametrize("case", ["bscu", "bscu_repaired"])
def test_report_document_holds_no_tuples(case, request):
    # json writes a record, like any tuple, as a list: a document that
    # reads back unchanged holds none.
    tcsds, arch = request.getfixturevalue(case)
    report = integrate.check_consistency([translate.translate(t) for t in tcsds],
                                         integrate.build_instance_map(arch, tcsds))
    assert report.overall == ("consistent" if case == "bscu_repaired" else "inconsistent")
    assert json.loads(export.to_report_json(report)) == export.build_report_document(report)


def test_net_containers_hold_one_record_type(bscu_repaired):
    # Records of different types with equal values compare equal, so a
    # container must never mix them.
    assert OutputArc("t", "p") == Transition("t", "p")
    tcsds, arch = bscu_repaired
    units = [translate.translate(t) for t in tcsds]
    imap = integrate.build_instance_map(arch, tcsds)
    matching = next(integrate.enumerate_matchings(units, imap))
    for unit in units + [integrate.merge(units, matching)]:
        net = unit.net
        for records, kind in ((net.transitions, Transition), (net.input_arcs, InputArc),
                              (net.output_arcs, OutputArc),
                              (net.transport_arcs, TransportArc)):
            assert records and {type(r) for r in records} == {kind}, unit.name
