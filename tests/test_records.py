"""The contracts of the package's records: Params, StepWord, PathDiagram,
StatTable and CheckResult, each a named tuple.  Their reprs, immutability,
hashing and pickling are pinned, and a Params or StepWord is checked
again when it is rebuilt by _make or _replace, or unpickled under any
protocol."""

import pickle

import pytest

from sweeplab import (
    BadCounts,
    NonCoprime,
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


P32 = make_params(3, 2)
# record: (a valid value, an invalid field tuple, the error its check raises)
CHECKED = {
    "Params": (P32, (4, 2, 1), NonCoprime),
    "StepWord": (parse_word("NENEE", P32), ("NNN", P32), BadCounts),
}


@pytest.mark.parametrize("record", CHECKED)
def test_make_checks_its_fields(record):
    value, invalid, error = CHECKED[record]
    assert type(value)._make(tuple(value)) == value
    with pytest.raises(error):
        type(value)._make(invalid)


@pytest.mark.parametrize("record", CHECKED)
def test_replace_checks_its_fields(record):
    value, invalid, error = CHECKED[record]
    field = value._fields[0]
    assert value._replace(**{field: value[0]}) == value
    with pytest.raises(error):
        value._replace(**{field: invalid[0]})


def test_replace_refuses_a_zero_slope():
    with pytest.raises(NonPositive, match="m must be a positive integer, got 0"):
        P32._replace(m=0)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("record", CHECKED)
def test_every_pickle_protocol_checks_the_record(record, protocol):
    value, invalid, error = CHECKED[record]
    assert pickle.loads(pickle.dumps(value, protocol=protocol)) == value
    # built past __new__, as no builder of the package can build it
    forged = tuple.__new__(type(value), invalid)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(forged, protocol=protocol))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_pickle_protocol_keeps_a_words_ranks(protocol):
    word = list(enumerate_dyck(make_params(5, 3)))[3]
    copy = pickle.loads(pickle.dumps(word, protocol=protocol))
    assert copy == word
    assert copy.__dict__["_ranks"] == word.__dict__["_ranks"]


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
