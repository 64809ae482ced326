"""Plain-text structure files: sectioned key/value format with
whitespace-separated operation tables and {a,b} subset literals for
multivalued addition. Parsing reports line-numbered diagnostics and
serialization of a parsed file is canonical."""

from .errors import StructureError
from .hyper import SemiHyperring, SemiHypergroup
from .pairs import SemiringPair
from .semirings import FiniteSemiring

SECTIONS = ("semiring", "pair", "hyper")

# the keys of a [pair] section that list labels; with no value they list none
LAYERS = ("a0", "tangibles")


class ParseError(StructureError):
    def __init__(self, message, line):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _split_sections(text):
    sections = []
    entries = None
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        bare = line.lstrip()
        if not bare:
            continue
        if bare[0] == "[" and bare[-1] == "]":
            name = bare[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError("unknown section %r" % name, idx)
            entries = []
            sections.append({"name": name, "line": idx, "entries": entries})
            continue
        if entries is None:
            raise ParseError("content before any [section] header", idx)
        entries.append((idx, line))
    return sections


def _section_fields(entries, lists):
    """key = value lines; a key with an empty value collects the following
    indented lines as table rows, or if there are none and the key is in
    ``lists``, has the empty value."""
    fields = {}
    i = 0
    while i < len(entries):
        lineno, line = entries[i]
        if "=" not in line:
            raise ParseError("expected 'key = value', got %r" % line.strip(), lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in fields:
            raise ParseError("duplicate key %r" % key, lineno)
        i += 1
        if value:
            fields[key] = (lineno, value)
            continue
        rows = []
        while i < len(entries) and entries[i][1][0] in " \t":
            rows.append(entries[i])
            i += 1
        if not rows and key not in lists:
            raise ParseError("key %r has no value and no table rows" % key, lineno)
        fields[key] = (lineno, rows or value)
    return fields


def _require(fields, key, section_line):
    if key not in fields:
        raise ParseError("missing required key %r" % key, section_line)
    return fields[key]


def _scalar(fields, key, section_line):
    lineno, value = _require(fields, key, section_line)
    if isinstance(value, list):
        raise ParseError("key %r expects a single value, not a table" % key, lineno)
    return lineno, value


def _lookup(labs, index, where, lineno):
    """Positions of ``labs``; an unknown label is reported as in ``where``."""
    try:
        return list(map(index.__getitem__, labs))
    except KeyError as exc:
        raise ParseError("unknown element label %r in %s"
                         % (exc.args[0], where), lineno) from None


def _subset_row(cells, index, where, lineno):
    row = []
    for cell in cells:
        if not (cell.startswith("{") and cell.endswith("}")):
            raise ParseError("expected subset literal {a,b}, got %r" % cell,
                             lineno)
        parts = [s for s in cell[1:-1].split(",") if s]
        if not parts:
            raise ParseError("empty subset literal in %s" % where, lineno)
        row.append(frozenset(_lookup(parts, index, where, lineno)))
    return row


def _tables(fields, keys, labels, index, read_row, section_line):
    """The n x n tables under ``keys``, each row converted by ``read_row``
    (``_lookup`` or ``_subset_row``) once its length is checked."""
    values = [_require(fields, key, section_line)[1] for key in keys]
    if not all(isinstance(rows, list) for rows in values):
        raise ParseError("add/mul must be tables", section_line)
    n = len(labels)
    tables = []
    for key, rows in zip(keys, values):
        if len(rows) != n:
            raise ParseError("%s table has %d rows, expected %d"
                             % (key, len(rows), n), rows[0][0])
        table, where = [], "%s table" % key
        for lineno, line in rows:
            cells = line.split()
            if len(cells) != n:
                raise ParseError("%s table row has %d entries, expected %d"
                                 % (key, len(cells), n), lineno)
            table.append(read_row(cells, index, where, lineno))
        tables.append(table)
    return tables


def _elements(fields, keys, index, section_line):
    """Positions of the single labels under ``keys`` (zero, one); every key
    is read before any label is looked up."""
    values = [_scalar(fields, key, section_line) for key in keys]
    for key, (lineno, lab) in zip(keys, values):
        if lab not in index:
            raise ParseError("%s label %r not among elements" % (key, lab),
                             lineno)
    return [index[lab] for _, lab in values]


def _header(fields, default_name, section_line):
    """The labels, the position of each and the name of a [semiring] or
    [hyper] section."""
    labels = _scalar(fields, "elements", section_line)[1].split()
    name = (_scalar(fields, "name", section_line)[1] if "name" in fields
            else default_name)
    return labels, dict(zip(labels, range(len(labels)))), name


def parse_structures(text):
    """Returns a dict with any of 'semiring', 'pair', 'hyper'. A pair section
    needs a preceding semiring section."""
    out = {}
    for section in _split_sections(text):
        fields = _section_fields(section["entries"],
                                 LAYERS if section["name"] == "pair" else ())
        sline = section["line"]
        if section["name"] == "semiring":
            labels, index, name = _header(fields, "semiring", sline)
            zero, one = _elements(fields, ("zero", "one"), index, sline)
            add, mul = _tables(fields, ("add", "mul"), labels, index,
                               _lookup, sline)
            out["semiring"] = FiniteSemiring(labels, add, mul, zero, one,
                                             name=name)
            semiring_index = index
        elif section["name"] == "pair":
            if "semiring" not in out:
                raise ParseError("[pair] requires a preceding [semiring]", sline)
            s = out["semiring"]
            lists = []
            for key in LAYERS:
                lineno, value = _scalar(fields, key, sline)
                lists.append(sorted(_lookup(value.split(), semiring_index,
                                            repr(key), lineno)))
            out["pair"] = SemiringPair(s, *lists, name=s.name)
        elif section["name"] == "hyper":
            labels, index, name = _header(fields, "semihyperring", sline)
            zero, = _elements(fields, ("zero",), index, sline)
            hyperadd, = _tables(fields, ("add",), labels, index, _subset_row,
                                sline)
            if "mul" in fields:
                one, = _elements(fields, ("one",), index, sline)
                mul, = _tables(fields, ("mul",), labels, index, _lookup,
                               sline)
                out["hyper"] = SemiHyperring(labels, hyperadd, mul, zero, one,
                                             name=name)
            elif "one" in fields:
                raise ParseError("key 'one' needs a mul table",
                                 fields["one"][0])
            else:
                out["hyper"] = SemiHypergroup(labels, hyperadd, zero,
                                              name=name)
    if not out:
        raise StructureError("no sections found")
    return out


def load_structures(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structures(fh.read())


def _carrier_text(section, c, add_table, add_cell=None):
    """A [semiring] or [hyper] section; ``one`` and ``mul`` only if ``c``
    has a mul table, add cells by ``add_cell`` (default: the label)."""
    label = c.labels.__getitem__
    lines = ["[%s]" % section,
             "name = %s" % c.name,
             "elements = %s" % " ".join(c.labels),
             "zero = %s" % label(c.zero)]
    tables = [("add", add_table, add_cell or label)]
    if hasattr(c, "mul_table"):
        lines.append("one = %s" % label(c.one))
        tables.append(("mul", c.mul_table, label))
    for key, table, cell in tables:
        lines.append("%s =" % key)
        lines += ["  " + " ".join(map(cell, row)) for row in table]
    return "\n".join(lines)


def serialize_structures(structs):
    """Canonical text form; parse(serialize(x)) reproduces x and
    serialize(parse(text)) is a fixpoint on canonical files."""
    chunks = []
    if "semiring" in structs:
        s = structs["semiring"]
        chunks.append(_carrier_text("semiring", s, s.add_table))
    if "pair" in structs:
        p = structs["pair"]
        label = p.carrier.label
        chunks.append("[pair]\na0 = %s\ntangibles = %s" % (
            " ".join(map(label, p.a0_elements())),
            " ".join(map(label, p.tangible_elements()))))
    if "hyper" in structs:
        h = structs["hyper"]
        chunks.append(_carrier_text(
            "hyper", h, h.hyperadd,
            lambda cell: "{%s}" % ",".join(map(h.label, sorted(cell)))))
    return "\n\n".join(chunks) + "\n"
