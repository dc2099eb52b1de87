"""Import shim: the raw-stream oracle is test code (``tests/raw_oracle.py``).

The bench gates that check identity against an *independent* reference --
not against ``SPQEngine.execute``, which is the index path they are
checking -- import it from here::

    from _oracle import raw_execute, reference_execute
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from raw_oracle import raw_execute, reference_execute  # noqa: E402,F401
