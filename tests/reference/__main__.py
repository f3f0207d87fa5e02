"""``python -m reference regen NAME… --reason TEXT``: see :mod:`.pins`."""

import argparse

from reference import pins


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m reference")
    verbs = parser.add_subparsers(dest="verb", required=True)
    regen = verbs.add_parser("regen", help="rewrite digests from the code")
    regen.add_argument("names", nargs="+", choices=[*pins.DIGESTS, "all"])
    regen.add_argument("--reason", required=True,
                       help="why the pins move, recorded in each file")
    regen.add_argument("--dir", default=pins.HERE,
                       help="where the JSON files are (default: here)")
    args = parser.parse_args(argv)
    pins.regen(list(pins.DIGESTS) if "all" in args.names else args.names,
               args.reason, args.dir)


if __name__ == "__main__":
    main()
