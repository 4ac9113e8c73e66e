"""The suite's own settings: a failing test is reported as a failure, and
the tests after it still run."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_leaves_the_later_tests_running(pytester):
    # On a failure hypothesis's pytest plugin imports its patch module, whose
    # libcst import warns through mypy_extensions; under filterwarnings =
    # error that warning ended the session with INTERNALERROR (exit code 3),
    # and no later test ran. This runs the suite's own ini in a fresh process
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_two="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None, max_examples=5)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_runs_after():
            pass
    """)
    result = pytester.runpytest_subprocess("test_two.py", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
