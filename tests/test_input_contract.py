"""Input contract: a malformed input file exits 2 or 3 with one 'error:'
line that names the bad field, never a traceback.

Every file a subcommand reads is covered: state, process, instrument,
circuit, counts and config. Each case takes a valid file of one kind and
applies one mutation from MUTATIONS: a dropped key, a wrong type, NaN or
inf, an integer too large for a float, a wrong length, a dimension that
disagrees with the data, a negative value, a duplicate row, a non-square
matrix or a non-Hermitian one. Hypothesis draws the position (list index
or dict key) and the wrong value; the table fixes the field the message
must name.

A second, looser check lets hypothesis draw the node as well: one change
anywhere in a valid file, fed to a command that reads it, must end in exit
0, 2 or 3 without a traceback. Every size change is one element, one key
or a step of 1 or 2, so no mutated file asks for a large allocation.
"""
import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctensor.cli import main
from proctensor.instruments import instrument_by_name, instrument_to_json
from proctensor.linalg import mat_from_json, mat_to_json
from proctensor.process import LEGS, build_common_cause
from proctensor.states import state_by_name
from proctensor.tomography import counts_to_csv, simulate_counts
from proctensor.walk import UNITARY_TOL, circuit_by_name, circuit_to_json

EXAMPLES = settings(max_examples=8, deadline=None, derandomize=True)


def _valid_files():
    g, dims = state_by_name("lambda")
    p = build_common_cause(g, dims, dims[:2])
    buf = io.StringIO()
    counts_to_csv(simulate_counts(g, dims, 2700, seed=0), buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()]
    return {
        "state": {"dims": list(dims), "matrix": mat_to_json(g)},
        "process": {"layout": [[label, d, direction] for (label, direction),
                               d in zip(LEGS, p.choi_dims)],
                    "matrix": mat_to_json(p.matrix)},
        "instrument": instrument_to_json(instrument_by_name("theta")),
        "circuit": circuit_to_json(circuit_by_name("theta")),
        "config": {"preset": "process2", "seed": 3, "format": "json",
                   "output": "out.json",
                   "tolerances": {"non_markovianity": 1.0}},
        "custom": {"preset": "custom",
                   "command": ["instrument", "show", "--name", "z"]},
        "counts": rows,  # header first, then [setting, outcome, count]
    }


VALID = _valid_files()
COMMANDS = {
    "state": ["process", "build", "--state"],
    "process": ["process", "check", "--process"],
    "instrument": ["instrument", "validate", "--name"],
    "circuit": ["walk", "verify", "--target", "theta", "--circuit"],
    "config": ["run", "--config"],
    "custom": ["run", "--config"],
    "counts": ["tomo", "reconstruct", "--counts"],
}

# values of every JSON type but the one a field holds; "whole" is a whole
# number field, "number" any finite number
_VALUES = {
    "str": st.text(max_size=4).filter(lambda t: t != "bitflip"),
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 3),
    "fraction": st.floats(-3, 3).filter(lambda x: not x.is_integer()),
    "list": st.lists(st.integers(0, 3), max_size=2),
    "dict": st.dictionaries(st.sampled_from("ab"), st.integers(0, 3),
                            max_size=1),
}
_OTHER_THAN = {
    "whole": ("str", "null", "bool", "list", "dict", "fraction"),
    "number": ("str", "null", "bool", "list", "dict"),
    "str": ("null", "bool", "int", "fraction", "list", "dict"),
    "list": ("str", "null", "bool", "int", "fraction", "dict"),
    "dict": ("str", "null", "bool", "int", "fraction", "list"),
}


def wrong_value(kind):
    """Values of the wrong type for kind; a trailing '?' marks an optional
    field, where null means absent."""
    return st.one_of(*(_VALUES[k] for k in _OTHER_THAN[kind.rstrip("?")]
                       if not (k == "null" and kind.endswith("?"))))


I, K = "<index>", "<key>"  # positions hypothesis draws

# (file kind, path, mutation, what the mutation needs, field named)
MUTATIONS = [
    ("state", ("dims",), "drop", None, "dims"),
    ("state", ("matrix",), "drop", None, "matrix"),
    ("state", ("dims",), "type", "list", "dims"),
    ("state", ("dims", I), "type", "whole", "dims"),
    ("state", ("dims", I), "nonfinite", None, "dims"),
    ("state", ("dims", I), "negative", None, "dims"),
    ("state", ("dims", I), "shorten", None, "dims"),
    ("state", ("dims", I), "duplicate", None, "dims"),
    ("state", ("dims", I), "bump", None, "dims"),
    ("state", ("matrix",), "type", "dict", "matrix"),
    ("state", ("matrix", K), "drop", None, K),
    ("state", ("matrix", "rows"), "type", "whole", "rows"),
    ("state", ("matrix", "cols"), "nonfinite", None, "cols"),
    ("state", ("matrix", "rows"), "negative", None, "rows"),
    ("state", ("matrix", "re"), "type", "list", "re"),
    ("state", ("matrix", "re", I), "type", "number", "re"),
    ("state", ("matrix", "im", I), "nonfinite", None, "im"),
    ("state", ("matrix", "re", I), "shorten", None, "re"),
    ("state", ("matrix", "im", I), "duplicate", None, "im"),
    ("state", ("matrix",), "nonsquare", None, "rows"),
    ("state", ("matrix",), "nonhermitian", None, "not Hermitian"),
    ("process", ("layout",), "drop", None, "layout"),
    ("process", ("matrix",), "drop", None, "matrix"),
    ("process", ("layout",), "type", "list", "layout"),
    ("process", ("layout", I), "type", "list", "layout"),
    ("process", ("layout", I, 1), "type", "whole", "layout"),
    ("process", ("layout", I, 1), "nonfinite", None, "layout"),
    ("process", ("layout", I, 1), "negative", None, "layout"),
    ("process", ("layout", I, 1), "bump", None, "layout"),
    ("process", ("layout", I, I), "shorten", None, "layout"),
    ("process", ("layout", I), "shorten", None, "layout"),
    ("process", ("layout", I), "duplicate", None, "layout"),
    ("process", ("matrix", "im", I), "nonfinite", None, "im"),
    ("process", ("matrix", "re", I), "shorten", None, "re"),
    ("process", ("matrix",), "nonsquare", None, "rows"),
    ("process", ("matrix",), "nonhermitian", None, "not Hermitian"),
    ("instrument", ("dim",), "drop", None, "dim"),
    ("instrument", ("elements",), "drop", None, "elements"),
    ("instrument", ("dim",), "type", "whole", "dim"),
    ("instrument", ("dim",), "negative", None, "dim"),
    ("instrument", ("dim",), "nonfinite", None, "dim"),
    ("instrument", ("dim",), "bump", None, "dim"),
    ("instrument", ("name",), "type", "str", "name"),
    ("instrument", ("elements",), "type", "list", "elements"),
    ("instrument", ("elements", I), "type", "dict", "elements"),
    ("instrument", ("elements", I), "shorten", None, "elements"),
    ("instrument", ("elements", I), "duplicate", None, "elements"),
    ("instrument", ("elements", I, "re", I), "nonfinite", None, "re"),
    ("instrument", ("elements", I, "im", I), "type", "number", "im"),
    ("instrument", ("elements", I), "nonsquare", None, "elements"),
    ("circuit", ("steps",), "drop", None, "steps"),
    ("circuit", ("ports",), "drop", None, "ports"),
    ("circuit", ("name",), "type", "str", "name"),
    ("circuit", ("steps",), "type", "list", "steps"),
    ("circuit", ("steps", I), "type", "dict", "steps"),
    ("circuit", ("steps", I, "coins"), "drop", None, "coins"),
    ("circuit", ("steps", I, "coins"), "type", "dict", "coins"),
    ("circuit", ("steps", I, "coins", K), "type", "dict", "coins"),
    ("circuit", ("steps", I, "coins", K, "re", I), "nonfinite", None, "re"),
    ("circuit", ("steps", I, "coins", K), "nonsquare", None, "coin"),
    ("circuit", ("ports",), "type", "list", "ports"),
    ("circuit", ("ports", I), "type", "list", "ports"),
    ("circuit", ("ports", I, I), "type", "whole", "ports"),
    ("circuit", ("ports", I, I), "nonfinite", None, "ports"),
    ("circuit", ("ports", I, 1), "negative", None, "ports"),
    ("circuit", ("ports", I, I), "shorten", None, "ports"),
    ("circuit", ("ports", I), "duplicate", None, "ports"),
    ("config", ("preset",), "drop", None, "preset"),
    ("config", ("preset",), "type", "str", "preset"),
    ("config", ("seed",), "type", "whole?", "seed"),
    ("config", ("seed",), "nonfinite", None, "seed"),
    ("config", ("seed",), "negative", None, "seed"),
    ("config", ("format",), "type", "str", "format"),
    ("config", ("output",), "type", "str?", "output"),
    ("config", ("tolerances",), "type", "dict?", "tolerances"),
    ("config", ("tolerances", K), "type", "number", "tolerances"),
    ("config", ("tolerances", K), "nonfinite", None, "tolerances"),
    ("config", ("tolerances", K), "negative", None, "tolerances"),
    ("custom", ("command",), "drop", None, "command"),
    ("custom", ("command",), "type", "list", "command"),
    ("custom", ("command", I), "type", "str", "command"),
    ("custom", ("command", I), "shorten", None, "command"),
    ("custom", ("command", I), "duplicate", None, "command"),
    ("counts", ("column", K), "drop", None, K),
    ("counts", ("cell", I, K), "type", None, K),
    ("counts", ("cell", I, K), "nonfinite", None, K),
    ("counts", ("cell", I, K), "negative", None, K),
    ("counts", ("row", I), "shorten", None, "outcome"),
    ("counts", ("row", I), "duplicate", None, "outcome"),
]
# an integer beyond the float (or, for counts, the int64) range, at every
# place NaN or inf goes
HUGE = 10 ** 400
MUTATIONS += [(k, p, "huge", n, f) for k, p, m, n, f in MUTATIONS
              if m == "nonfinite"]


def _counts_view(rows):
    """The positions of a counts table, for drawing: its columns, the
    number cells of each row and the rows."""
    body = rows[1:]
    return {"column": dict.fromkeys(rows[0]),
            "cell": [dict.fromkeys(("outcome", "count"))] * len(body),
            "row": body}


def _draw_path(data, node, path):
    """path with every <index> and <key> replaced by a drawn position."""
    out = []
    for step in path:
        if step == I:
            step = data.draw(st.integers(0, len(node) - 1))
        elif step == K:
            step = data.draw(st.sampled_from(sorted(node)))
        out.append(step)
        node = node[step] if isinstance(node, (list, dict)) else None
    return out


def _mutate_json(data, doc, path, mutation, kind):
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    if mutation in ("drop", "shorten"):
        del parent[last]
    elif mutation == "type":
        parent[last] = data.draw(wrong_value(kind))
    elif mutation == "nonfinite":
        parent[last] = data.draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    elif mutation == "huge":
        parent[last] = data.draw(st.sampled_from([HUGE, -HUGE]))
    elif mutation == "negative":
        parent[last] = -data.draw(st.integers(1, 5))
    elif mutation == "bump":
        parent[last] += data.draw(st.integers(1, 2))
    elif mutation == "duplicate":
        parent.insert(last, copy.deepcopy(parent[last]))
    elif mutation == "nonsquare":
        m = parent[last]
        m["rows"], m["cols"] = m["rows"] // 2, m["cols"] * 2
    elif mutation == "nonhermitian":  # (1 + i eps) m: same trace and factors
        m, eps = parent[last], data.draw(st.sampled_from([-0.5, 0.05, 1.0]))
        m["re"], m["im"] = ([r - eps * i for r, i in zip(m["re"], m["im"])],
                            [i + eps * r for r, i in zip(m["re"], m["im"])])
    return json.dumps(doc)


def _mutate_counts(data, rows, path, mutation):
    header, body = rows[0], rows[1:]
    if path[0] == "column":
        col = header.index(path[1])
        for row in rows:
            del row[col]
    elif path[0] == "cell":
        body[path[1]][header.index(path[2])] = data.draw({
            "type": st.sampled_from(["a", "1.5", "", "1e3", "0x1", "[1]"]),
            "nonfinite": st.sampled_from(["nan", "inf", "-inf"]),
            "huge": st.just(str(HUGE)),
            "negative": st.integers(-5, -1).map(str),
        }[mutation])
    elif mutation == "shorten":
        del body[path[1]]
    else:  # duplicate
        body.insert(path[1], list(body[path[1]]))
    return "\n".join(",".join(r) for r in [header] + body) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "kind, path, mutation, needs, field", MUTATIONS,
    ids=["-".join([k, *(str(s).strip("<>") for s in p), m])
         for k, p, m, _, _ in MUTATIONS])
@EXAMPLES
@given(data=st.data())
def test_mutated_input_names_its_field(kind, path, mutation, needs, field,
                                       data):
    doc = copy.deepcopy(VALID[kind])
    counts = kind == "counts"
    path = _draw_path(data, _counts_view(doc) if counts else doc, path)
    if field == K:
        field = path[-1]
    text = (_mutate_counts(data, doc, path, mutation) if counts
            else _mutate_json(data, doc, path, mutation, needs))
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "input.csv" if kind == "counts"
                            else "input.json")
        with open(name, "w") as fh:
            fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)  # a config's output file lands here
        try:
            code, out, err = _run(COMMANDS[kind] + [name])
        finally:
            os.chdir(cwd)
    assert code in (2, 3), (text[:300], code, out[:300])
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert field in err, (field, err)


# Every command that reads a file of each kind, the file's path appended.
# Budgets are small, so a valid file after a mutation runs in milliseconds.
READERS = {
    "state": [["process", "build", "--state"],
              ["memory", "strength", "--instrument", "z", "--process"],
              ["tomo", "reconstruct", "--shots", "2700", "--state"]],
    "process": [["process", "check", "--process"],
                ["recover", "build", "--instrument", "theta", "--process"],
                ["memory", "survey", "--samples", "100", "--process"]],
    "instrument": [["instrument", "dual", "--name"],
                   ["memory", "strength", "--process", "lambda",
                    "--instrument"]],
    "circuit": [["walk", "verify", "--target", "theta", "--circuit"]],
    "config": [["run", "--config"]],
    "custom": [["run", "--config"]],
    "counts": [["tomo", "reconstruct", "--counts"],
               ["tomo", "bootstrap", "--resamples", "4", "--counts"]],
}
ANY_VALUE = st.one_of(*_VALUES.values())


def _extra_leg(kind, doc):
    """doc with one more qubit leg, or None where the kind has no legs: the
    state and process matrices gain an I/2 factor, each element an I."""
    if kind in ("state", "process"):
        m = mat_from_json(doc["matrix"])
        doc["matrix"] = mat_to_json(np.kron(m, np.eye(2) / 2))
        if kind == "state":
            doc["dims"].append(2)
        else:
            doc["layout"].append(["D_in", 2, "in"])
    elif kind == "instrument":
        doc["dim"] *= 2
        doc["elements"] = [mat_to_json(np.kron(mat_from_json(e), np.eye(2)))
                           for e in doc["elements"]]
    elif kind == "counts":
        for row in doc[1:]:
            row[0] += "/Z"
    else:
        return None
    return doc


def _position(data, node):
    return (data.draw(st.integers(0, len(node) - 1)) if isinstance(node, list)
            else data.draw(st.sampled_from(sorted(node))))


def _mutate_anywhere(data, kind, doc, mutation):
    """doc with one node mutated, at a path that descends from the root
    while hypothesis draws True; an extra leg where the kind has none is a
    size change."""
    if mutation == "extra_leg" and _extra_leg(kind, doc) is not None:
        return doc
    parent, last = doc, _position(data, doc)
    while (isinstance(parent[last], (list, dict)) and parent[last]
           and data.draw(st.booleans())):
        parent, last = parent[last], _position(data, parent[last])
    node = parent[last]
    if mutation == "missing":
        del parent[last]
    elif mutation == "type":
        parent[last] = data.draw(ANY_VALUE)
    elif mutation == "negative":  # a number's sign, else a negative number
        parent[last] = (
            -abs(node) if type(node) in (int, float) and node
            else "-" + node if isinstance(node, str) and node.isdigit()
            else -data.draw(st.integers(1, 3)))
    elif mutation == "nan":
        parent[last] = data.draw(st.sampled_from([math.nan, math.inf,
                                                  -math.inf]))
    elif isinstance(node, list) and node:  # size: one element more or less
        if data.draw(st.booleans()):
            node.append(copy.deepcopy(node[-1]))
        else:
            del node[-1]
    elif isinstance(node, dict):
        node["extra"] = 1
    elif type(node) in (int, float):
        parent[last] = node + data.draw(st.integers(1, 2))
    else:
        parent[last] = str(node) + "1"
    return doc


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_one_field_mutation_exits_cleanly(kind, data):
    # one change anywhere in a valid file (type, sign, size, NaN, a missing
    # key or an extra leg) ends in exit 0, 2 or 3, never a traceback
    doc = copy.deepcopy(VALID[kind])
    mutation = data.draw(st.sampled_from(
        ["type", "negative", "size", "nan", "missing", "extra_leg"]))
    doc = _mutate_anywhere(data, kind, doc, mutation)
    text = ("\n".join(",".join(map(str, row)) if isinstance(row, list)
                      else str(row) for row in doc) + "\n"
            if kind == "counts" else json.dumps(doc))
    argv = data.draw(st.sampled_from(READERS[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "input.csv" if kind == "counts"
                            else "input.json")
        with open(name, "w") as fh:
            fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)  # a config's output file lands here
        try:
            code, _, err = _run(argv + [name])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (mutation, text[:300], code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["theta", "tetra"])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_coin_check_is_the_only_unitarity_gate(name, data):
    # every coin of a built-in circuit moved by E with ||E||_F <= 0.45 *
    # UNITARY_TOL, so ||U'^dag U' - 1||_F stays under UNITARY_TOL and the
    # coin check passes; the circuit then verifies. Zero entries move only
    # when leak is drawn, and a leak reaches ports the circuit does not
    # declare with probability ~1e-22, below what completeness tolerates
    doc = circuit_to_json(circuit_by_name(name))
    coins = [coin for step in doc["steps"] for coin in step["coins"].values()]
    unit = 0.45 * UNITARY_TOL / math.sqrt(8)
    leak = data.draw(st.booleans())
    shifts = data.draw(st.lists(st.floats(-1, 1), min_size=8 * len(coins),
                                max_size=8 * len(coins)))
    for k, coin in enumerate(coins):
        for part, e in (("re", shifts[8 * k:8 * k + 4]),
                        ("im", shifts[8 * k + 4:8 * k + 8])):
            coin[part] = [v + unit * d if v or leak else v
                          for v, d in zip(coin[part], e)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, _, err = _run(["walk", "verify", "--circuit", path,
                             "--target", name])
    assert code == 0, err
