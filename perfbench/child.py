"""One gausszonoids CLI invocation in a fresh interpreter, with time stamps.

    python child.py TIMES_FILE [--spans SPANS_FILE] -- ARGV...
    python child.py --about ABOUT_FILE
    python child.py --reference

Stamps are time.perf_counter() values (CLOCK_MONOTONIC, so the parent can
subtract its own spawn stamp): when ``import gausszonoids.cli`` returned and
when ``cli.main(ARGV)`` started and ended.  The CLI writes to this process's
stdout and stderr unchanged.  With --spans the tracer wraps the library
after the import and before main; without it the library runs unmodified.

--reference imports the third-party modules the library imports and exits:
a fixed job, independent of the library's code, whose wall time measures
the host's speed at that moment.
"""
import json
import sys
import time


def _about(path: str) -> int:
    import gausszonoids.cli  # noqa: F401  (warms bytecode and file caches)
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    about = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    with open(path, "w") as fh:
        json.dump(about, fh)
    return 0


def main(args: list[str]) -> int:
    if args[0] == "--about":
        return _about(args[1])
    if args[0] == "--reference":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.optimize  # noqa: F401
        import scipy.special  # noqa: F401

        return 0
    times_file = args.pop(0)
    spans_file = None
    if args[0] == "--spans":
        spans_file = args[1]
        del args[:2]
    if args.pop(0) != "--":
        raise SystemExit("usage: child.py TIMES_FILE [--spans FILE] -- ARGV...")

    import gausszonoids.cli as cli

    import_done = time.perf_counter()
    tracer = None
    if spans_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_start = time.perf_counter()
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    main_end = time.perf_counter()
    sys.stdout.flush()
    with open(times_file, "w") as fh:
        json.dump(
            {"import_done": import_done, "main_start": main_start, "main_end": main_end, "code": code},
            fh,
        )
    if tracer is not None:
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
