"""How a command-line run ends, launched in fresh interpreters.

``python -m shufflealg.cli`` calls ``main()`` with no argument list, which
runs the atexit handlers, flushes stdio and calls ``os._exit``;
``sys.exit(main(sys.argv[1:]))`` returns the code and lets the interpreter
tear itself down.  Both must give the same stdout bytes, stderr bytes and
exit code, also when stdout is closed, full or a broken pipe.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import shufflealg
from shufflealg.rigidity import save_presentation, shuffle_presentation

# stdout is block-buffered, as under the benchmark, so that the output is
# written by the flush at exit; a fixed hash seed makes two launches alike
ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    "PYTHONPATH": str(Path(shufflealg.__file__).parents[1]),
    "PYTHONHASHSEED": "0",
}
OWN_EXIT = [sys.executable, "-m", "shufflealg.cli"]
TEARDOWN = [sys.executable, "-c", "import sys; from shufflealg.cli import main; sys.exit(main(sys.argv[1:]))"]
# a launcher that registers an atexit handler, holds an object that prints when
# the interpreter's teardown collects it, and calls main
HOOKED = """import atexit, sys
class Collected:
    def __del__(self):
        print("collected")
kept = Collected()
atexit.register(print, "atexit ran")
from shufflealg.cli import main
sys.exit({})"""


def _launch(cmd, stdout=subprocess.PIPE):
    done = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, env=ENV, timeout=60)
    return done.stdout, done.stderr, done.returncode


def _both(argv, launch=_launch) -> tuple:
    """The (stdout, stderr, code) of ``argv`` from each launcher, run side by side."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        own, teardown = pool.map(launch, [OWN_EXIT + argv, TEARDOWN + argv])
    return own, teardown


def test_command_lines_end_alike_with_and_without_teardown(tmp_path):
    save_presentation(shuffle_presentation({1: 1, 2: 1}, 2), tmp_path / "sh2.json")
    corpus = [
        (["product", "star", "21|11", "12|12"], 0),
        (["product", "biword-prec", "12|ab", "21|cd", "--json"], 0),
        (["coproduct", "full", "213|121"], 0),
        (["coproduct", "deconcat", "a1.b2", "--json"], 0),
        (["pi", "6", "--route", "closed"], 0),
        (["pi", "6", "--route", "alternating", "--json"], 0),
        (["pi", "6", "--route", "recursive"], 0),
        (["dims", "40", "--series-cutoff", "40"], 0),
        (["dims", "40", "--series-cutoff", "40", "--json"], 0),
        (["membership", "213|111 + 231|111"], 0),
        (["membership", "213|111", "--json"], 1),
        (["verify", "tau", "3"], 0),
        (["verify", "dendriform", "2"], 2),
        (["decompose", str(tmp_path / "sh2.json"), "a1.a1", "--roundtrip", "--json"], 0),
        (["product", "star", "2x|11", "1"], 2),  # a parse error
        (["product", "warble", "a", "b"], 2),  # a usage error
        (["--help"], 0),
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two pairs, four interpreters at a time
        runs = list(pool.map(lambda case: _both(case[0]), corpus))
    for (argv, code), (own, teardown) in zip(corpus, runs):
        assert own == teardown, argv
        assert own[2] == code, (argv, own)
        assert own[0] if code != 2 else own[1], argv


def _closed(cmd):
    return _launch(["sh", "-c", 'exec "$@" >&-', "sh", *cmd], stdout=None)


def _full(cmd):
    with open("/dev/full", "wb") as full:
        return _launch(cmd, stdout=full)


def _all_full(cmd):
    with open("/dev/full", "wb") as full:
        return subprocess.run(cmd, stdout=full, stderr=full, env=ENV, timeout=60).returncode


def _broken_pipe(cmd):
    read, write = os.pipe()
    os.close(read)  # before the child writes
    try:
        return _launch(cmd, stdout=write)
    finally:
        os.close(write)


_STDOUT_REPORT = b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w'"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, code", [
    (["pi", "6", "--json"], 0),
    (["dims", "40", "--series-cutoff", "40"], 0),
    (["membership", "213|111"], 1),
])
def test_a_failed_stdout_ends_alike_with_and_without_teardown(argv, code):
    outcomes = {
        "closed": (_closed, code, b""),
        "full": (_full, 120, b"OSError: [Errno 28] No space left on device\n"),
        "broken pipe": (_broken_pipe, 120, b"BrokenPipeError: [Errno 32] Broken pipe\n"),
    }
    for stream, (launch, expected, last_line) in outcomes.items():
        own, teardown = _both(argv, launch)
        assert own == teardown, (argv, stream)
        _, err, got = own
        assert got == expected, (argv, stream, err)
        if last_line:  # the interpreter's one report of the failed flush, whatever the command returned
            assert err.startswith(_STDOUT_REPORT) and err.endswith(last_line) and err.count(b"\n") == 2, err
        else:
            assert err == b"", (argv, stream)
    # with stderr full too, the report is lost and the code is still 120
    assert _both(argv, _all_full) == (120, 120), argv


def test_main_runs_the_atexit_handlers_and_skips_the_teardown():
    argv = ["pi", "3", "--json"]
    own = _launch([sys.executable, "-c", HOOKED.format("main()"), *argv])
    teardown = _launch([sys.executable, "-c", HOOKED.format("main(sys.argv[1:])"), *argv])
    assert own[1:] == teardown[1:] == (b"", 0)
    assert own[0].decode().splitlines()[1:] == ["atexit ran"]
    assert teardown[0] == own[0] + b"collected\n"


def test_cprofile_still_prints_its_statistics():
    out, err, code = _launch([sys.executable, "-m", "cProfile", "-m", "shufflealg.cli", "pi", "6", "--json"])
    assert code == 0 and err == b"", err
    first, *rest = out.decode().splitlines()
    assert first.startswith('[{"coeff_num"') and any("function calls" in line for line in rest), out
