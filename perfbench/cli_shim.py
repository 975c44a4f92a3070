"""Child process of the traced cold-cli run.

    python -X importtime perfbench/cli_shim.py SPANS_JSON SUBCOMMAND [ARGS...]

Times `import matterwave.cli`, installs the span wrappers, runs the CLI
once exactly as `python -m matterwave.cli` would, and writes the spans to
SPANS_JSON.  The exit code is the CLI's.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.current_item = 0
    # __import__, unlike importlib.import_module, is what `-X importtime` times
    tracer.call("import.matterwave", __import__, "matterwave.cli")
    cli = sys.modules["matterwave.cli"]
    tracer.install()
    code = tracer.call("cli.run", cli.run, argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
