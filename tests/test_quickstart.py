"""The quickstart in the ``repro`` package docstring runs as written."""

import itertools
import textwrap

import repro


def test_package_docstring_quickstart_runs(capsys):
    lines = repro.__doc__.split("Quickstart", 1)[1].splitlines()[1:]
    block = itertools.takewhile(lambda line: not line or line[0] == " ",
                                lines)
    exec(compile(textwrap.dedent("\n".join(block)), "quickstart", "exec"),
         {})
    counts = capsys.readouterr().out
    assert "'reference'" in counts and "'associate'" in counts
