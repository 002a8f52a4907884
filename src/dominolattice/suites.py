"""Names of the verification suites, in report order.

They live apart from `verify` so that the CLI can list them in its parser
without loading the suites themselves; `verify` runs them.
"""

SUITES = ("fundamental", "coordinates", "iso", "solver", "structure", "transport")
