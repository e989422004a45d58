"""The contracts of the package's records: Params, StepWord, PathDiagram,
StatTable and CheckResult, each a named tuple.  Their reprs, immutability,
hashing and pickling are pinned, and a Params or StepWord is checked
again when it is unpickled."""

import pickle

import pytest

from sweeplab import (
    NonPositive,
    Params,
    StepWord,
    enumerate_dyck,
    make_params,
    parse_word,
    run_checks,
    start_ranks,
    sweep,
    unsweep,
)
from sweeplab.diagram import build_diagram
from sweeplab.stats import joint_distribution
from sweeplab.sweeping import _inverse_table

P321 = "Params(m=3, n=2, d=1)"
RECORDS = {
    "Params": (lambda: make_params(3, 2), P321),
    "StepWord": (
        lambda: parse_word("NENEE", make_params(3, 2)),
        f"StepWord(steps='NENEE', params={P321})",
    ),
    "PathDiagram": (
        lambda: build_diagram(parse_word("NENEE", make_params(3, 2))),
        f"PathDiagram(params={P321}, arrows=("
        "Arrow(column=1, color='red', start_rank=0), "
        "Arrow(column=2, color='blue', start_rank=3), "
        "Arrow(column=3, color='red', start_rank=1), "
        "Arrow(column=4, color='blue', start_rank=4), "
        "Arrow(column=5, color='blue', start_rank=2)))",
    ),
    "StatTable": (
        lambda: joint_distribution(make_params(3, 2)),
        f"StatTable(params={P321}, counts={{(1, 0): 1, (0, 1): 1}})",
    ),
    "CheckResult": (
        lambda: run_checks(make_params(3, 2))[0],
        "CheckResult(name='image-is-dyck', checked=2, failures=())",
    ),
}


@pytest.mark.parametrize("record", RECORDS)
def test_repr(record):
    build, expected = RECORDS[record]
    assert repr(build()) == expected


@pytest.mark.parametrize("record", RECORDS)
def test_fields_cannot_be_assigned(record):
    value = RECORDS[record][0]()
    for field in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


@pytest.mark.parametrize("record", sorted(set(RECORDS) - {"StatTable"}))
def test_equal_records_hash_equal(record):
    build = RECORDS[record][0]
    one, other = build(), build()
    assert one is not other
    assert one == other and hash(one) == hash(other)


def test_a_stat_table_is_unhashable():
    # its counts are a dict
    one, other = joint_distribution(make_params(3, 2)), joint_distribution(make_params(3, 2))
    assert one == other
    with pytest.raises(TypeError, match="unhashable"):
        hash(one)


@pytest.mark.parametrize(
    "record", [lambda: make_params(5, 3, 2), lambda: run_checks(make_params(3, 2))[0]]
)
def test_pickle_round_trips(record):
    value = record()
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_pickled_word_keeps_its_handed_over_ranks():
    word = list(enumerate_dyck(make_params(5, 3)))[3]
    assert "_ranks" in word.__dict__  # handed over by the enumeration
    copy = pickle.loads(pickle.dumps(word))
    assert copy == word
    assert "_ranks" in copy.__dict__
    assert start_ranks(copy) == start_ranks(word)


def test_unpickling_checks_the_params_again():
    data = pickle.dumps(make_params(3, 2), protocol=2)
    assert data.count(b"K\x03") == 1  # the BININT1 opcode of m = 3
    with pytest.raises(NonPositive, match="m must be a positive integer, got 0"):
        pickle.loads(data.replace(b"K\x03", b"K\x00"))


def test_len_of_a_word_is_its_step_count():
    word = parse_word("NNENEEE", make_params(4, 3))
    assert len(word) == len(word.steps) == 7


def test_unsweep_cache_hits_for_an_equal_fresh_params():
    images = [sweep(word) for word in enumerate_dyck(make_params(5, 3))][:2]
    _inverse_table.cache_clear()
    unsweep(images[0])
    hits = _inverse_table.cache_info().hits
    fresh = StepWord(images[1].steps, Params(5, 3, 1))
    assert fresh.params is not images[1].params
    unsweep(fresh)
    assert _inverse_table.cache_info().hits == hits + 1
