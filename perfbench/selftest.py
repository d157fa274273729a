"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs a tiny size of each workload twice, untraced and traced, and requires
every output to pass the workload's own checks. Then runs every `large`
pipeline through `kerneltri.cli.main` on the same descriptor and requires
the bytes to be equal, so the benchmark measures what the CLI does. Exits 1
on any failure.
"""

import json
import sys
import tempfile

import run


def check_workloads() -> list:
    from tracing import Tracer, plain_call
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        wl = cls(seed=7, tiny=True)
        wl.warmup(plain_call)
        outcomes = run.Outcomes(wl)
        run.run_rounds(wl, plain_call, [outcomes], rounds=2)
        tracer = Tracer()
        run.run_rounds(wl, tracer, [outcomes], rounds=2, tracer=tracer)
        outcomes.finish()
        busy, _ = tracer.layer_times()
        print(f"{name}: {outcomes.attempted} ops, {outcomes.failed} failed, layers {sorted(busy)}")
        if outcomes.failed:
            problems.append(f"{name}: {outcomes.failed} failed operations")
    return problems


def check_cli_bytes() -> list:
    from kerneltri.cli import main as cli_main
    from tracing import plain_call
    from workloads import Large

    wl = Large(seed=7, tiny=True)
    problems = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for cmd, d in wl.round(0):
            op, cert, out = f"{tmp}/op.json", f"{tmp}/cert.json", f"{tmp}/out.json"
            with open(op, "w") as fh:
                json.dump(d.desc, fh)
            argv = [cmd, "--in", op, "--out", out]
            if cmd == "triangularize":
                argv += ["--kind", "scc"]
            if cmd == "verify":
                with open(cert, "w") as fh:
                    json.dump(d.cert, fh)
                argv += ["--cert", cert]
            code = cli_main(argv)
            with open(out) as fh:
                cli_text = fh.read()
            if code not in (0, 1) or cli_text != wl.run_op((cmd, d), plain_call)["text"]:
                problems.append(f"large {cmd} {d.key}: CLI output differs (exit {code})")
    print(f"large: {len(wl.round(0))} pipelines compared with kerneltri.cli.main")
    return problems


def main() -> int:
    run.import_package()
    problems = check_workloads() + check_cli_bytes()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
