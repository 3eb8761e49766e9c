"""Edits of a stored sealed record that a reader must not trust.

A result-cache entry is ``{"format", "key", "body", "sha256"}`` and a
journal ``done`` record carries the same ``body`` and ``sha256``
(:func:`repro.experiments.journal.seal`).  Every edit here leaves the
record valid JSON, so only the checksum over the stored body can catch
it.  Shared by the cache, journal and Fig. 6 tests.
"""


def bump_digit(text):
    """``text`` with its first digit after the first ``:`` changed - one
    character, and a JSON number stays a JSON number."""
    start = text.index(":")
    i = next(i for i in range(start, len(text)) if text[i].isdigit())
    digit = "8" if text[i] == "9" else str(int(text[i]) + 1)
    return text[:i] + digit + text[i + 1:]


def _body(record):
    record["body"] = bump_digit(record["body"])


def _sha256(record):
    sha = record["sha256"]
    record["sha256"] = ("e" if sha[0] == "f" else "f") + sha[1:]


#: name -> in-place edit of a parsed sealed record.
TAMPER = {"body": _body, "sha256": _sha256}
