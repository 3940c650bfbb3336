"""Property test for the command line: every subcommand, given random
flags and values (NaN, infinities, negatives, non-numbers, repeated
flags), exits through `cli.run` with 0, 1 or 2 and never raises, and the
same options written to a config file exit with the same code.  Valid
sizes stay small (N, X <= 60, Q <= 8, trials <= 2) and --threads stays in
1-4.  Needs hypothesis, a development dependency; the module is skipped
without it."""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sievelab import cli  # noqa: E402

# values no flag accepts, or only some: specials, signs, non-numbers and
# strings that argparse itself refuses
JUNK = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-2.5", "1e400", "", "abc",
                        "0x10", "1,2", "--", "-Q", "1.5e", "None"])
# a file flag's values: missing, empty, and a directory
PATHS = st.sampled_from(["no-such-file.cfg", "", "."])


def _number(hi, integer=False):
    """A value for a size flag: a valid one of at most hi, or junk."""
    valid = st.integers(1, hi).map(str)
    if not integer:
        valid = st.one_of(valid, st.floats(1, hi).map(repr))
    return st.one_of(valid, JUNK)


COMMON = {
    "-Q": _number(8),
    "-k": _number(6, integer=True),
    "-T": _number(16),
    "-N": _number(60),
    "--seed": st.one_of(st.integers(-(10**30), 10**30).map(str), JUNK),
    "--tol": st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), JUNK),
    "--format": st.sampled_from(["csv", "json", "xml", ""]),
    "--threads": st.integers(1, 4).map(str),
    "--config": PATHS,
    "--out": st.sampled_from(["", "."]),
}
FLAGS = {
    "verify": {**COMMON, "--suites": st.one_of(
        st.lists(st.sampled_from(sorted(cli.SUITES) + ["bogus", ""]), min_size=1, max_size=3)
        .map(",".join), JUNK)},
    "norm": {**COMMON, "--family": st.sampled_from(["multiplicative", "additive", "rational",
                                                    "bogus"])},
    "scan": {**COMMON, "--family": st.sampled_from(["multiplicative", "additive", "rational"]),
             "--plot-out": st.sampled_from(["", "."])},
    "sieve": {**COMMON, "--trials": _number(2, integer=True), "--plan": PATHS},
    "bdh": {**COMMON, "-X": _number(60, integer=True), "--trials": _number(2, integer=True)},
}


def _draw(command, data):
    """The drawn flags of one run, as (flag, value) pairs in order."""
    flags = FLAGS[command]
    names = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=6), label="flags")
    if command == "verify" and "--suites" not in names:
        names.append("--suites")  # the full suite list is covered elsewhere, and slow
    return [(name, data.draw(flags[name], label=name)) for name in names]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code


def _one_line(flag, value):
    """Whether `key=value` reads back as the flag's one value: a comma
    splits a value, and an empty one is none, except for --suites, whose
    flag splits its commas too."""
    return flag == "--suites" or (value and value.strip() == value and not set(value) & set(",#"))


def _attached(flag, value):
    # -Q-1e16 and --tol=-1e16 give argparse a value that it would take for
    # a flag when it stands apart
    return flag + value if len(flag) == 2 else f"{flag}={value}"


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_every_subcommand_exits_with_a_code_and_never_raises(command, data):
    drawn = _draw(command, data)
    # SIEVELAB_THREADS would override a file's threads and not a flag
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("SIEVELAB_THREADS", None)
        _run([command] + [s for pair in drawn for s in pair])
        options = [(flag, value) for flag, value in drawn if flag != "--config"]
        if not all(_one_line(flag, value) for flag, value in options):
            return
        code = _run([command] + [_attached(flag, value) for flag, value in options])
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{flag.lstrip('-').replace('-', '_')}={value}\n"
                          for flag, value in options)
        assert _run([command, "--config", path]) == code, options
