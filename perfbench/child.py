"""Child processes of the benchmark; one mode per kind of child.

    child.py setup --scale S --seed N --output-dir DIR
        generate a desk city's input files (set-up of a report workload)
    child.py setup --seeds 1,2,3
        import the sweep's modules and check its configs (set-up of
        validate-desk)
    child.py sweep --seeds 1,2,3 --out FILE
        run the planted-truth sweep and write its per-seed results
    child.py report --input-dir DIR --output-dir DIR
        ``crowdcdr report``, run in this process

``--spans FILE`` records spans around crowdcdr's public functions (the
traced pass).  ``--peaks FILE --peak-names a,b`` records the peak
allocations of the named functions (the memory pass).  The untraced
report runs do not come here: they start ``python -m crowdcdr.cli``.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def _seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "sweep", "report"))
    parser.add_argument("--scale", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", type=_seeds)
    parser.add_argument("--input-dir")
    parser.add_argument("--output-dir")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--peaks")
    parser.add_argument("--peak-names", default="")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer(run=args.mode) if args.spans else None
    peaks = tracing.PeakRecorder() if args.peaks else None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def instrument():
        if tracer:
            tracer.install()
        if peaks:
            peaks.install({name: tracing.PEAK_TARGETS[name]
                           for name in args.peak_names.split(",") if name})

    rc = 0
    if args.mode == "report":
        with span("cli.import"):
            import crowdcdr.cli as cli
        instrument()
        with span("cli.main"):
            rc = cli.main(["report", "--input-dir", args.input_dir,
                           "--output-dir", args.output_dir])
    elif args.mode == "sweep":
        with span("sweep.import"):
            import sweep
        instrument()
        results = []
        for seed in args.seeds:
            with span("sweep.seed"):
                results.append(sweep.analyse_seed(seed))
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    elif args.seeds is not None:
        import sweep
        for seed in args.seeds:
            sweep.synth.desk_scenario(seed).validate()
    else:
        from crowdcdr import synth
        instrument()
        synth.generate(synth.desk_scenario(args.seed, scale=args.scale),
                       args.output_dir)

    if tracer:
        blob = tracer.dump()
        blob["process_start"] = PROCESS_START
        blob["process_end"] = time.monotonic()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
    if peaks:
        with open(args.peaks, "w", encoding="utf-8") as fh:
            json.dump({"peak_mb": peaks.peak_mb, "absent": peaks.absent}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
