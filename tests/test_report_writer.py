"""The CLI writes each report in one pass; its bytes are those of the
encoder it replaced (report_reference.py), on drawn reports and on whole
CLI runs."""

import argparse
import collections
import contextlib
import io

from hypothesis import example, given, settings, strategies as st

import report_reference as ref
from pairalg import cli
from pairalg.structio import serialize_structures
from test_congruence_oracle import max_min_pair


class AsJson:
    def __init__(self, value):
        self.value = value

    def as_json(self):
        return self.value


class Opaque:
    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return "Opaque(%r)" % (self.n,)

    def __str__(self):
        return "opaque"


class Label(str):
    pass


# json writes an int or float subclass by int.__repr__ or float.__repr__
class Size(int):
    def __repr__(self):
        return "Size()"


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


Point = collections.namedtuple("Point", "x y")

texts = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", 'say "hi"', "été", " ", "\x00\n\t", "\U0001f600"])
hashable = st.one_of(texts, st.integers(), st.floats(), st.booleans(),
                     st.none(), st.builds(Opaque, st.integers(0, 3)))
leaves = st.one_of(hashable, st.builds(Label, texts), st.builds(Size, st.integers()),
                   st.builds(Ratio, st.floats()), st.just(float("nan")),
                   st.sampled_from([float("inf"), float("-inf"), -0.0, 1e300, 2 ** 70]))
# equal keys after str(): 1 and "1", -1 and "-1"
keys = st.one_of(texts, st.integers(-3, 3), st.sampled_from(["1", "-1", "True", ""]))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=3).map(collections.OrderedDict),
        st.sets(hashable, max_size=4),
        st.frozensets(st.tuples(hashable, hashable), max_size=3),
        st.builds(AsJson, children),
        st.builds(Point, children, children))


reports = st.dictionaries(keys, st.recursive(leaves, containers, max_leaves=10),
                          max_size=6)


def emitted(args, report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.emit(args, report, "summary", 0) == 0
    return out.getvalue()


@settings(max_examples=25, deadline=None)
@given(report=reports, structure=st.booleans())
@example(report={1: "a", "1": "b", "x": [float("nan"), float("inf"), -float("inf"),
                                       Size(3), Ratio(0.5), Opaque(1), {}, [], set()],
                 "s": {3, "é", None}, True: AsJson({"k": (1, 2.5)})},
         structure=True)
def test_emit_writes_the_reference_bytes(report, structure):
    args = argparse.Namespace(command="c")
    head = {"command": "c"}
    if structure:
        args.structure = head["input"] = "in.pair"
    assert emitted(args, report) == ref.dumps({**head, **report}) + "\n"


def cli_stdout_and_reference(monkeypatch, capsys, argv):
    """The CLI's stdout and the reference encoding of the report its
    handler passed to ``emit``."""
    seen = []
    real = cli.emit

    def spy(args, report, summary, code):
        seen.append((args, report))
        return real(args, report, summary, code)

    monkeypatch.setattr(cli, "emit", spy)
    cli.main(argv)
    (args, report), = seen
    head = {"command": args.command, "input": args.structure}
    return capsys.readouterr().out, ref.dumps({**head, **report}) + "\n"


def test_cli_congruences_report_bytes(tmp_path, monkeypatch, capsys):
    p = max_min_pair(5)
    path = tmp_path / "maxmin5.pair"
    path.write_text(serialize_structures({"semiring": p.carrier, "pair": p}))
    out, want = cli_stdout_and_reference(monkeypatch, capsys,
                                         ["congruences", str(path)])
    assert out == want and '"count": 8' in out


def test_cli_verify_report_bytes(monkeypatch, capsys):
    out, want = cli_stdout_and_reference(
        monkeypatch, capsys, ["verify", "supertropical-integers", "--window", "3"])
    assert out == want and '"valid": true' in out
