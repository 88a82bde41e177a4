"""Property tests: malformed input to compute, volume, hodge, verify and
table never ends in a traceback; every run exits 0 (a value or a passing
check), 1 (a failed lookup or check) or 2 (a parse error)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import run  # noqa: E402
from wprec.cli import SUITES  # noqa: E402
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


# A size is small, or text that the size parser refuses, so that no sweep
# runs past its small default.
SIZE = st.integers(0, 2).map(str) | FREE_TEXT.filter(lambda text: not text.isdecimal())


@st.composite
def sweep_lines(draw):
    """verify with one suite (--suite NAME, --oracle or --shift), or table
    with --constants or --volumes; then up to two of its options, a size
    drawn as SIZE and --cache or --provider as free text."""
    if draw(st.booleans()):
        argv = ["verify"] + draw(
            st.sampled_from(tuple(SUITES)).map(lambda name: ["--suite", name])
            | st.sampled_from((["--oracle"], ["--shift"]))
        )
        sizes = ("max-dim", "cutoff", "s-vars", "t-vars", "max-genus")
        paths = ("cache", "provider")
    else:
        argv = ["table"] + draw(
            st.sampled_from(("alpha", "gamma_odd", "gamma_fact")).map(
                lambda name: ["--constants", name]
            )
            | st.just(["--volumes"])
        )
        sizes, paths = ("max-weight", "max-genus", "max-n"), ()
    options = st.sampled_from(sizes + paths)
    for option in draw(st.lists(options, max_size=2, unique=True)):
        text = draw(SIZE if option in sizes else FREE_TEXT)
        argv.append(f"--{option}={text}")
    return argv


NO_SHRINK = tuple(p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink)
SETTINGS = hypothesis.settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    phases=NO_SHRINK,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)


@SETTINGS
# argparse before Python 3.13 reads --kappa=-- as [], which once ended in
# an AttributeError traceback.
@hypothesis.example(["volume", "-g", "2", "-n", "0", "--kappa=--"])
@hypothesis.example(["compute", "-g", "1", "--psi=--", "--decimal=--"])
@hypothesis.given(command_lines())
def test_malformed_input_exits_with_a_documented_code(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2), argv


@SETTINGS
@hypothesis.given(sweep_lines())
def test_malformed_sweep_options_exit_with_a_documented_code(
    capsys, monkeypatch, argv
):
    monkeypatch.delenv("WPREC_CACHE", raising=False)
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2), argv
