"""Fuzzed CLI input: the exit-code contract and strict output under arbitrary JSON.

Each JSON argument is a well-formed input, or one in which a single field,
at any depth, is dropped or replaced by an arbitrary JSON value (NaN,
infinities, huge numbers, wrong types).  Whatever the input, ``run`` must
return 0, 1 or 2 without raising; on 0 stdout is strict JSON (or CSV of
finite floats), otherwise stdout is empty.
"""

import contextlib
import copy
import csv
import io
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from bbl.cli import run

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**400, 10**400),
    ANY_FLOAT,
    st.sampled_from([1e308, -1e308, 5e-324]),
    st.text(max_size=4),
    st.lists(ANY_FLOAT, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def fuzzed(draw, valid):
    """A draw of ``valid``, or (one time in four) one with a single field dropped or
    replaced by any JSON value."""
    value = copy.deepcopy(draw(valid))  # st.just hands out one shared object
    if draw(st.integers(0, 3)) > 0:
        return value
    paths = list(_paths(value))
    path = draw(st.sampled_from(paths[1:] + paths[:1]))
    if not path:
        return draw(JUNK)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return value


def _normalised(weights):
    total = math.fsum(weights)
    return [w / total for w in weights]


def _probabilities(n):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(_normalised)


UTILITY = st.one_of(st.just({"kind": "linear"}), st.just({"kind": "log"}),
                    st.fixed_dictionaries({"kind": st.just("power"),
                                           "rho": st.floats(0.1, 5.0).filter(lambda r: r != 1.0)}))
LOTTERY = st.integers(2, 4).flatmap(lambda n: st.fixed_dictionaries(
    {"payoffs": st.lists(st.one_of(st.floats(0.01, 100.0), st.floats(-1e308, 1e308)), min_size=n, max_size=n),
     "probs": _probabilities(n)},
    optional={"utility": UTILITY}))
GAIN_LOSS = st.one_of(st.just({"kind": "linear"}), st.fixed_dictionaries(
    {"kind": st.just("general"), "beta": st.floats(0.1, 0.99), "kappa": st.floats(0.01, 50.0)}))
PREFS = st.fixed_dictionaries({"eta": st.floats(0.05, 1.0), "lambda": st.floats(1.05, 10.0)},
                              optional={"gamma": st.floats(0.0, 1.0), "gain_loss": GAIN_LOSS})
# Linear preferences with a cutoff in (0, 1), as the continuous kernel needs.
CUTOFF_PREFS = st.tuples(st.floats(0.05, 0.95), st.floats(1.05, 10.0)).map(
    lambda pl: {"eta": 1.0 / (pl[1] - pl[0] * (pl[1] - 1.0)), "lambda": pl[1]})
MIXTURE = st.integers(1, 3).flatmap(lambda n: st.tuples(
    _probabilities(n), st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.05, 5.0)),
                                min_size=n, max_size=n)).map(
    lambda wc: [{"w": w, "mean": m, "sd": s} for w, (m, s) in zip(*wc)]))
DIST = st.one_of(
    st.fixed_dictionaries({"normal": st.fixed_dictionaries(
        {"mean": st.floats(-1e308, 1e308), "sd": st.floats(1e-300, 1e307)})}),
    st.fixed_dictionaries({"mixture": MIXTURE}),
    st.just({"tabulated": {"z": [-1.0, 0.0, 2.0], "f": [0.0, 2.0 / 3.0, 0.0]}}),
)
FLOAT_ARG = st.one_of(ANY_FLOAT.map(repr), st.sampled_from(["1e400", "x", ""]))
LAMBDA_ARG = st.one_of(st.floats(1.05, 10.0).map(repr), FLOAT_ARG)
# Short grids only: a valid grid with a tiny step is a legitimately long sweep.
GRID = st.one_of(st.sampled_from(["0.4:0.6:0.1", "0.05:0.95:0.3", "0.5:0.5:0.1"]),
                 st.sampled_from(["0:1:0.5", "0.9:0.1:0.1", "nan:0.5:0.1", "0.1:inf:0.1", "0.1:0.5:-0.1",
                                  "0.1:0.5", "a:b:c", ""]))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(token):
    raise AssertionError(f"non-finite number {token} in output")


def check(argv, csv_output=False):
    code, out, err = invoke(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code != 0:
        assert out == "", argv
    elif csv_output:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["p_star", "eta", "pi_rational", "pi_naive", "pi_sophisticated"]
        assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)
    else:
        json.loads(out, parse_constant=_reject_constant)


def js(value):
    return json.dumps(value)


@given(st.sampled_from(["--eta", "--p-star"]), st.one_of(st.floats(0.05, 1.0).map(repr), FLOAT_ARG),
       LAMBDA_ARG)
def test_pstar(mode, value, lam):
    check(["pstar", f"{mode}={value}", f"--lambda={lam}"])


@given(st.sampled_from(["beliefs", "timing"]), fuzzed(LOTTERY), fuzzed(PREFS))
def test_beliefs_and_timing(command, lottery, prefs):
    check([command, "--lottery", js(lottery), "--prefs", js(prefs)])


@given(fuzzed(DIST), fuzzed(DIST), fuzzed(CUTOFF_PREFS), st.sampled_from(["naive", "sophisticated"]))
def test_compare(dist_a, dist_b, prefs, agent):
    check(["compare", "--dist-a", js(dist_a), "--dist-b", js(dist_b), "--prefs", js(prefs),
           "--agent", agent])


@given(fuzzed(DIST), LAMBDA_ARG, GRID, st.sampled_from(["json", "csv"]))
def test_equilibrium(dist, lam, grid, fmt):
    check(["equilibrium", "--dist", js(dist), f"--lambda={lam}", f"--grid={grid}", "--format", fmt],
          csv_output=fmt == "csv")
