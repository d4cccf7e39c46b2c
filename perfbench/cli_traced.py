"""`python -m gausspml.cli` with spans around the package's public functions.

    PERFBENCH_SPANS=out.jsonl python3 perfbench/cli_traced.py --config cfg.json

Runs the CLI's main() in this process under one `bench.op` span and
writes the spans to the file named by PERFBENCH_SPANS. The import of the
package happens before the wrappers exist; run.py measures it apart with
`python -X importtime`.
"""

import os
import sys

import gausspml.cli

import spans


def main():
    rec = spans.Recorder().install()
    with rec.span(spans.OP):
        code = gausspml.cli.main(sys.argv[1:])
    sys.stdout.flush()
    spans.write(os.environ["PERFBENCH_SPANS"], rec.records())
    return code


if __name__ == "__main__":
    sys.exit(main())
