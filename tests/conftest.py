import __future__
import functools
import inspect
import itertools
import linecache
import os
from pathlib import Path

import pytest

from sweeplab import Params, StepWord, enumerate_dyck, make_params
from sweeplab.diagram import RED

# Every parameter set exercised by the acceptance suite; the d > 1 sets
# exercise the rank-tie rules.
PARAM_SETS = [
    (3, 2, 1),
    (5, 2, 1),
    (5, 3, 1),
    (7, 4, 1),
    (7, 5, 1),
    (8, 5, 1),
    (1, 1, 2),
    (2, 1, 2),
    (3, 2, 2),
    (2, 1, 3),
]

# The exhaustive sets plus the three sets of the verify benchmark, d = 2 and
# 3 included.
WIDE_SETS = PARAM_SETS + [(11, 7, 1), (5, 3, 2), (3, 2, 3)]

GOLDEN_DIR = Path(__file__).parent / "golden"


@functools.lru_cache(maxsize=None)
def all_dyck(m: int, n: int, d: int) -> tuple[StepWord, ...]:
    return tuple(enumerate_dyck(make_params(m, n, d)))


def arrangements(m: int, n: int, d: int):
    """Every word with the letter counts of (m, n, d), Dyck or not."""
    params = make_params(m, n, d)
    length = params.step_count
    for norths in itertools.combinations(range(length), params.north_count):
        steps = ["E"] * length
        for i in norths:
            steps[i] = "N"
        yield StepWord("".join(steps), params)


def row_segments(diagram) -> dict[int, list[tuple[int, str]]]:
    """Row -> its (column, color) segments in arrow order, which is left to
    right for a built diagram; only the rows some arrow crosses appear.
    Row j is the band between levels j and j+1, so an up arrow from level
    r crosses rows r..r+m-1 and a down arrow rows r-n..r-1."""
    m, n = diagram.params.m, diagram.params.n
    rows: dict[int, list[tuple[int, str]]] = {}
    for column, color, start in diagram.arrows:
        span = range(start, start + m) if color == RED else range(start - n, start)
        for j in span:
            rows.setdefault(j, []).append((column, color))
    return rows


def rebuilt(module, name: str, old: str, new: str):
    """`module.name` rebuilt from its source with the one occurrence of
    `old` replaced by `new`.  Its globals are the module's own, so the
    names it calls resolve as the original's do, patches included.  Its
    edited source is kept in linecache under a file name of its own, so
    inspect.getsource and tracebacks read the edit."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    source = source.replace(old, new)
    filename = f"<rebuilt {module.__name__}.{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    code = compile(
        source,
        filename,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(module), namespace)
    return namespace[name]


def golden_bytes(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def subprocess_env() -> dict[str, str]:
    """os.environ with the package source and the tests on PYTHONPATH, so a
    child interpreter imports sweeplab and the test modules from this
    checkout."""
    here = Path(__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    )
    return env


@pytest.fixture
def p321() -> Params:
    return make_params(3, 2, 1)


@pytest.fixture
def p112() -> Params:
    return make_params(1, 1, 2)
