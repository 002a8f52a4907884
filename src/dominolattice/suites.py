"""Names of the verification suites, in report order, and the flags each reads.

They live apart from `verify` so that the CLI can list them in its parser
without loading the suites themselves; `verify` runs them.
"""

SUITES = ("fundamental", "coordinates", "iso", "solver", "structure", "transport")

# The `verify` flags each suite reads; `--suite all` reads every one.
SUITE_FLAGS = {"fundamental": ("--seed",), "coordinates": ("-k", "-N"), "iso": ("-k", "-N"),
               "solver": ("-k", "-N", "--seed"), "structure": ("-k", "-N"),
               "transport": ("-k", "-N")}
