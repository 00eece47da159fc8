"""Fresh-interpreter side of the benchmark; run.py starts it.

  child.py setup WORKLOAD SEED WORKDIR
      import symtest, build the workload's inputs into WORKDIR and write
      WORKDIR/manifest.json (the inputs plus the import time).
  child.py cli TRACE_OUT ARGS...
      import symtest.cli, trace its layers (spans.py), run `symtest ARGS`
      and write the trace plus the import time to TRACE_OUT.

symtest is found through PYTHONPATH, which run.py points at the
checkout's src directory.
"""

import json
import os
import sys
import time


def setup(workload, seed, workdir):
    t0 = time.perf_counter()
    import symtest  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    import workloads
    manifest = workloads.build(workload, int(seed), workdir)
    manifest["import_s"] = import_s
    with open(os.path.join(workdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return 0


def cli(trace_out, argv):
    t0 = time.perf_counter()
    import symtest.cli
    import_s = time.perf_counter() - t0
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rc = symtest.cli.main(argv)
    finally:
        tracer.uninstall()
        out = tracer.to_json()
        out["import_s"] = import_s
        with open(trace_out, "w") as fh:
            json.dump(out, fh)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(*sys.argv[2:5]))
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    sys.exit("unknown mode %r" % mode)
