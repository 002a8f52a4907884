"""The one declaration of the verification suites, their flags and defaults.

It lives apart from `verify` so that the CLI can build its parser from it
without loading the suites themselves; `verify.run_suite` runs them.
"""

# The `verify` flags each suite reads, in the order its function takes
# them (-k as k, -N as N, --seed as seed); `--suite all` reads every one.
SUITE_FLAGS = {"fundamental": ("--seed",), "coordinates": ("-k", "-N"), "iso": ("-k", "-N"),
               "solver": ("-k", "-N", "--seed"), "structure": ("-k", "-N"),
               "transport": ("-k", "-N")}
SUITES = tuple(SUITE_FLAGS)
DEFAULTS = {"-k": 2, "-N": 5, "--seed": 0}
