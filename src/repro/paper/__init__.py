"""Paper reproduction that no query path runs.

Everything here exists to reproduce a figure, a table or a baseline of the
EDBT 2017 paper -- the Section 6 analysis (:mod:`~repro.paper.analysis`), the
Section 7 figure sweeps (:mod:`~repro.paper.bench`), the r-tree and the
indexed single-machine baseline built on it (:mod:`~repro.paper.rtree`,
:mod:`~repro.paper.indexed_baseline`) and the HDFS storage simulator
(:mod:`~repro.paper.hdfs`).  It imports the engine; nothing the engine, the
servers or the CLI load at import time may import it back
(``tests/test_import_graph.py``): ``repro analyze`` and ``repro experiments``
reach it lazily, from inside their command functions.  ``docs/paper-map.md``
lists what belongs here and why.
"""
