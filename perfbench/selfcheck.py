#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny input sizes.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the metrics run.py reports.
2. Every workload, untraced and traced, prints each named metric with
   its unit, and its outputs pass the oracles.
3. Each oracle rejects a corrupted output: a `frequent --csv` answer
   with one row dropped, a daemon final answer with one row dropped, and
   a consensus tree with one cluster flipped.

Exits 0 when every check passes; prints each failed check and exits 1
otherwise.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 1
failures = []


def expect(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect(sorted(w["name"] for w in bench["workloads"]) ==
           sorted(run.GATED), "BENCHMARK.json workloads match run.py")


def check_workloads():
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            record = run.run_workload(workload, SEED, 1, trace, tiny=True)
            units = run.PER_LAYER if trace else run.END_TO_END
            printed = record["metrics"]
            missing = [name for name, unit in units.items()
                       if name not in printed
                       or printed[name]["unit"] != unit
                       or not isinstance(printed[name]["value"], (int, float))]
            expect(not missing, "%s trace=%d prints every metric with its "
                   "unit %s" % (workload, trace, missing or ""))
            expect(record["attempted"] > 0 and record["failed"] == 0,
                   "%s trace=%d outputs pass the oracles (%d/%d failed)"
                   % (workload, trace, record["failed"], record["attempted"]))


def drop_row(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1] + lines[2:])


def check_frequent_oracle():
    cache, _ = run.prepare_inputs("forest_dense", SEED, tiny=True)
    ref = run.read_bytes(os.path.join(cache, "ref.csv")).decode()
    forest = os.path.join(cache, "forest.nwk")
    out = subprocess.run([run.CLI, "frequent", forest, "--csv"],
                         capture_output=True, text=True).stdout
    expect(out == ref, "frequent oracle accepts the CLI answer")
    expect(drop_row(out) != ref,
           "frequent oracle rejects a CSV with one row dropped")


def check_daemon_oracle():
    # The daemon oracle compares the final QUERY answer with a batch run
    # over the acknowledged batches; here the warm state stands in.
    cache, _ = run.prepare_inputs("daemon_feed", SEED, tiny=True)
    batch = subprocess.run([run.CLI, "frequent",
                            os.path.join(cache, "forest.nwk"), "--csv"],
                           capture_output=True, text=True).stdout
    final = run.read_bytes(os.path.join(cache, "ref.csv")).decode()
    expect(final == batch, "daemon oracle accepts the batch answer")
    expect(drop_row(final) != batch,
           "daemon oracle rejects a final answer with one row dropped")


def flip_cluster(newick):
    """Swaps the first and last taxon names, which moves both taxa into
    each other's clusters."""
    names = list(re.finditer(r"[A-Za-z_][A-Za-z0-9_]*", newick))
    first, last = names[0], names[-1]
    return (newick[:first.start()] + last.group() +
            newick[first.end():last.start()] + first.group() +
            newick[last.end():])


def check_consensus_oracle():
    cache, _ = run.prepare_inputs("consensus_bootstrap", SEED, tiny=True)
    forest = os.path.join(cache, "forest.nwk")
    outdir = os.path.join(run.BUILD, "selfcheck")
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for method in ("majority", "strict", "semi", "greedy", "Adams"):
        paths[method.lower()] = os.path.join(outdir, method + ".nwk")
        with open(paths[method.lower()], "w") as out:
            subprocess.run(
                [run.CLI, "consensus", forest, "--method=" + method],
                stdout=out, check=True)
    flags = ["--%s=%s" % (m, p) for m, p in paths.items()]
    report = run.tool("check-consensus", forest, *flags)
    expect(not report["failures"], "consensus oracle accepts the CLI trees")
    with open(paths["majority"]) as f:
        flipped = flip_cluster(f.read())
    with open(paths["majority"], "w") as f:
        f.write(flipped)
    report = run.tool("check-consensus", forest, *flags)
    expect(any(f.startswith("majority:") for f in report["failures"]),
           "consensus oracle rejects a majority tree with one cluster "
           "flipped %s" % report["failures"])


def main():
    try:
        run.build()
        check_benchmark_json()
        check_frequent_oracle()
        check_daemon_oracle()
        check_consensus_oracle()
        check_workloads()
    except (run.BenchError, OSError, subprocess.SubprocessError) as e:
        failures.append(str(e))
        print("FAIL %s" % e)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
