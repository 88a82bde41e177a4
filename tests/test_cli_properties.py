"""Property test: malformed input to compute, volume and hodge never ends in
a traceback; every run exits 0 (a value), 1 (a failed lookup) or 2 (a parse
error)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import run  # noqa: E402
from wprec.hodge import LAMBDA_G, LAMBDA_G_GM1  # noqa: E402

# Mostly the characters of well-formed values, so that the drawn text reaches
# the numeric checks and the engines, not only the parsers; now and then any
# character at all.
FREE_TEXT = st.text(
    st.sampled_from("0123456789,:-/ ") | st.characters(), max_size=8
)


@st.composite
def command_lines(draw):
    """compute, volume or hodge with a genus in -2..4, a point count in -1..6
    for volume, and free text for those of --psi, --kappa and --decimal that
    are drawn. Each text goes in as --option=TEXT, so a leading '-' stays a
    value."""
    command = draw(st.sampled_from(("compute", "volume", "hodge")))
    argv = [command, "-g", str(draw(st.integers(-2, 4)))]
    if command == "volume":
        argv += ["-n", str(draw(st.integers(-1, 6)))]
    if command == "hodge":
        argv += ["--tag", draw(st.sampled_from((LAMBDA_G, LAMBDA_G_GM1)))]
    for option in ("psi", "kappa", "decimal"):
        if option == "psi" and command == "volume":
            continue
        text = draw(st.none() | FREE_TEXT)
        if text is not None:
            argv.append(f"--{option}={text}")
    return argv


NO_SHRINK = tuple(p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink)


@hypothesis.settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    phases=NO_SHRINK,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
# argparse before Python 3.13 reads --kappa=-- as [], which once ended in
# an AttributeError traceback.
@hypothesis.example(["volume", "-g", "2", "-n", "0", "--kappa=--"])
@hypothesis.example(["compute", "-g", "1", "--psi=--", "--decimal=--"])
@hypothesis.given(command_lines())
def test_malformed_input_exits_with_a_documented_code(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2), argv
