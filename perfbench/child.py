"""What the benchmark runs in a fresh interpreter.

    python3 perfbench/child.py OUT.json setup
    python3 perfbench/child.py OUT.json cli [--trace] CLI-ARGS...

`setup` times `import pairbundles; bundle_graph()`.  `cli` times
`pairbundles.cli.main(CLI-ARGS)` with its import, as the console script
runs it, and with --trace also records spans.  Each mode runs the
host-speed probe with the kernel that suits its work.  OUT.json receives
the times, the process's peak resident memory and, when traced, the
per-layer metrics; the command's own output is left as it is.
"""
from __future__ import annotations

import json
import sys
import time

from probe import Probe


def peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ru_maxrss it starts afresh at exec,
    so the parent's size at fork does not leak in."""
    with open("/proc/self/status") as fh:
        kb = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    return int(kb[0]) / 1024


def main(argv: list[str]) -> int:
    out_path, mode, args = argv[0], argv[1], argv[2:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    # numpy_kernel loads numpy, so `cli` is timed from after that import
    probe = Probe("python" if mode == "setup" else "numpy").start()
    t = time.perf_counter()
    code, tracer = 0, None
    if mode == "setup":
        import pairbundles
        pairbundles.bundle_graph()
    else:
        from pairbundles import cli
        if trace:
            from spans import Tracer
            tracer = Tracer().install()
        code = cli.main(args)
    elapsed = time.perf_counter() - t
    probe.stop()
    work_s, adjusted_s = probe.split(elapsed)
    layers = None
    if tracer is not None:
        tracer.restore()
        trials = int(args[args.index("--trials") + 1])
        layers = tracer.layer_metrics(1, trials, probe)
        tracer.write_csv(out_path[:-len(".json")] + ".csv")
    with open(out_path, "w") as fh:
        json.dump({"work_s": work_s, "adjusted_s": adjusted_s,
                   "peak_rss_mb": peak_rss_mb(), "layers": layers}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
