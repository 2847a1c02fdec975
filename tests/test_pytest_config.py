"""The test suite's own pytest settings."""

pytest_plugins = ["pytester"]


def test_failing_property_does_not_abort_the_run(pytester, request):
    # Hypothesis imports libcst to report a failing example, and libcst
    # warns on import; under the project's warnings-as-errors that warning
    # must not stop the run before the next test
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
