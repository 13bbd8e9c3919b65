"""Set-up cost from a fresh interpreter: import ptopt.cli, then ingest a CSV.

    python3 perfbench/probe_setup.py PRICES.csv FIRST_TEST_YEAR

Prints the seconds from just before ``import ptopt.cli`` to the end of
``yearly_splits``; interpreter start-up is not ptopt's.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
START = time.perf_counter()

import ptopt.cli  # noqa: E402  (the import is what is being timed)

table = ptopt.cli.clean_and_return(ptopt.cli.load_csv(sys.argv[1]))
ptopt.cli.yearly_splits(table, int(sys.argv[2]))
print(repr(time.perf_counter() - START))
