"""The repo's pytest settings: every warning is an error, except the
third-party one that Hypothesis's failure report raises, so a failing
property test is reported as a failure and the session runs on."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_a_failing_property_test_does_not_end_the_session(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        test_property="""
        import warnings

        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 1

        def test_passes():
            pass

        def test_other_warnings_stay_errors():
            warnings.warn("still an error", DeprecationWarning)
        """
    )
    result = pytester.runpytest_subprocess("test_property.py", timeout=120)
    result.assert_outcomes(failed=2, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.stdout.fnmatch_lines([
        "FAILED test_property.py::test_fails - *",
        "FAILED test_property.py::test_other_warnings_stay_errors - DeprecationWarning*",
    ])
