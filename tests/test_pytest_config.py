"""The repo's pytest settings: a failing hypothesis property fails its own
test and the run goes on."""

pytest_plugins = ["pytester"]


def test_failing_property_fails_one_test_not_the_run(pytester, request):
    # A fresh interpreter, so the warnings of a first libcst import fire.
    filters = "".join(f"\n    {f}" for f in request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property(x):
            assert x < 5

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
