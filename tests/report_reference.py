"""The report encoder that the CLI's one-pass writer replaced, kept as a
reference: ``jsonable`` turns a report into plain JSON data, and
``json.dumps(..., sort_keys=True, indent=2)`` writes it."""

import json


def jsonable(x):
    if hasattr(x, "as_json"):
        return jsonable(x.as_json())
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


def dumps(report):
    return json.dumps(jsonable(report), sort_keys=True, indent=2)
