"""Frozen copy of the toilcast library, the benchmark's timing reference.

These modules are src/toilcast as it stood when the benchmark was defined
(cli.py and svgplot.py left out). run.py times every piece of work twice,
once with the program in src/ and once with this copy, back to back on the
same core, and reports the program's time as a ratio to this copy's, so that
a change of the host's speed, which both see, cancels. Do not edit these
files: a change here moves every ratio the benchmark reports.
"""

__version__ = "0.1.0"
