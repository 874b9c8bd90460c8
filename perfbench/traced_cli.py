"""Run one hvacdisagg command in this process with layer spans recorded.

    python3 perfbench/traced_cli.py --spans OUT.json --run-id ID -- \
        validate --config bundle/run.conf

`hvacdisagg` must be importable (PYTHONPATH=src). The command runs through
`hvacdisagg.cli.main`, inside a root span named `cli.<command>`. OUT.json
gets the spans, the time `import hvacdisagg.cli` took in this fresh
interpreter, and the command's exit code, which is also this process's.
"""

import argparse
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--run-id", required=True, help="id shared by the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="hvacdisagg arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        parser.error("no hvacdisagg command given")

    start = time.perf_counter()
    import hvacdisagg.cli as cli
    import_s = time.perf_counter() - start

    # imported only now, so that its own imports are not timed as the CLI's
    from tracer import Tracer

    tracer = Tracer(args.run_id)
    tracer.install()
    code = 1
    try:
        code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    finally:
        tracer.dump(args.spans, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
