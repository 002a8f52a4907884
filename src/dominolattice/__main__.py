"""`python -m dominolattice ARGS` is `python -m dominolattice.cli ARGS`."""

if __name__ == "__main__":
    from .cli import main
    raise SystemExit(main())
