"""The event-trace half of the kernel differentials: both kernels must
record the same canonical (pid-normalized) event stream, event for
event.  Shared by the ``ref``-vs-``soa`` tests that already run both
kernels, so the trace comparison costs no extra simulation."""


def assert_same_events(want, got, label):
    """``want`` and ``got`` (``EventTrace.canonical_lines()`` of the
    reference and of the soa run) are equal; otherwise fail naming the
    first event that differs."""
    if want == got:
        return
    i = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
             min(len(want), len(got)))

    def line(lines):
        return repr(lines[i]) if i < len(lines) else "<end of trace>"

    raise AssertionError(
        f"trace drift ({label}) at event {i} of {len(want)} ref / "
        f"{len(got)} soa:\n  ref: {line(want)}\n  soa: {line(got)}")
