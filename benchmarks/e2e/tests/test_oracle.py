"""The page oracle stays sound when requests to one page overlap."""

from benchmarks.e2e.oracle import PageOracle


def test_one_caller_is_a_shadow_map():
    oracle = PageOracle(blank=b"\0")
    read = oracle.read_issued(3)
    assert oracle.read_matches(read, b"\0")
    oracle.write_acked(oracle.write_issued(3, b"a"))
    oracle.write_acked(oracle.write_issued(3, b"b"))
    assert oracle.final_matches(3, b"b")
    assert not oracle.final_matches(3, b"a")
    assert not oracle.read_matches(oracle.read_issued(3), b"a")
    assert oracle.read_matches(oracle.read_issued(3), b"b")
    assert oracle.pages() == [3]


def test_overlapping_writes_may_land_in_either_order():
    oracle = PageOracle(blank=b"\0")
    first = oracle.write_issued(0, b"a")
    second = oracle.write_issued(0, b"b")   # issued before `first` is acked
    oracle.write_acked(first)
    oracle.write_acked(second)
    assert oracle.final_matches(0, b"a") and oracle.final_matches(0, b"b")
    # A later write that starts after both were acked displaces both.
    oracle.write_acked(oracle.write_issued(0, b"c"))
    assert oracle.final_matches(0, b"c")
    assert not oracle.final_matches(0, b"a")
    assert not oracle.final_matches(0, b"b")


def test_read_may_see_writes_issued_while_it_was_in_flight():
    oracle = PageOracle(blank=b"\0")
    oracle.write_acked(oracle.write_issued(0, b"old"))
    read = oracle.read_issued(0)
    oracle.write_acked(oracle.write_issued(0, b"new"))
    assert oracle.read_matches(read, b"new")
    read = oracle.read_issued(0)
    assert not oracle.read_matches(read, b"old")  # superseded before issue


def test_failed_write_stays_possible_and_failed_read_never_matches():
    oracle = PageOracle(blank=b"\0")
    oracle.write_acked(oracle.write_issued(0, b"kept"))
    oracle.write_issued(0, b"maybe")  # never acknowledged
    assert oracle.final_matches(0, b"kept")
    assert oracle.final_matches(0, b"maybe")
    assert not oracle.read_matches(oracle.read_issued(0), None)
