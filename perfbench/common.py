"""Shared pieces of the benchmark: the run context, child processes,
output parsing and the result record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

CSV_MAGIC = "# matterwave-csv v1"


class CheckFailed(Exception):
    """An output did not pass its check; the item counts as failed."""


class Bench:
    """Where a run writes, and the environment its children start with."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)


class Child:
    """A finished child process: exit code, wall time and peak RSS."""

    def __init__(self, code: int, wall_s: float, maxrss_kb: int, stdout: str, stderr: str):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr


def spawn(argv: list, bench: Bench, out_path: str, err_path: str) -> Child:
    """Run one child to completion, timed from spawn to reaped exit."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=bench.env, cwd=bench.workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss, out_path, err_path)


def import_in_child(bench: Bench, importtime: bool) -> tuple[float, str]:
    """Seconds a fresh interpreter spends in `import matterwave`.

    With importtime, also returns the `-X importtime` report.
    """
    code = ("import time; t = time.perf_counter(); import matterwave.cli; "
            "print(repr(time.perf_counter() - t))")
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    child = spawn(argv, bench, bench.path("import.out"), bench.path("import.err"))
    if child.code != 0:
        raise RuntimeError("import matterwave failed in a child: see %s" % child.stderr)
    with open(child.stdout) as fh:
        seconds = float(fh.read().strip())
    with open(child.stderr) as fh:
        report = fh.read()
    return seconds, report


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_sections(path: str) -> dict:
    """Split a matterwave output file into its `# matterwave-csv v1 <name>`
    sections: name -> list of lines after the magic line."""
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise CheckFailed("%s: truncated (no final newline)" % os.path.basename(path))
    sections = {}
    current = None
    for line in text.split("\n")[:-1]:
        if line.startswith("#"):
            if not line.startswith(CSV_MAGIC + " "):
                raise CheckFailed("unexpected comment line %r" % line[:60])
            current = line[len(CSV_MAGIC) + 1:]
            if current in sections:
                raise CheckFailed("section %s repeated" % current)
            sections[current] = []
        elif current is None:
            raise CheckFailed("%s: missing '%s' header" % (os.path.basename(path), CSV_MAGIC))
        else:
            sections[current].append(line)
    if not sections:
        raise CheckFailed("%s: empty output" % os.path.basename(path))
    return sections


def csv_rows(sections: dict, name: str, header: tuple, nrows: int) -> list:
    """Rows of a CSV section as float lists, after checking header and size."""
    if name not in sections:
        raise CheckFailed("missing section %s" % name)
    lines = sections[name]
    if not lines or lines[0] != ",".join(header):
        raise CheckFailed("%s: bad column header" % name)
    if len(lines) - 1 != nrows:
        raise CheckFailed("%s: %d rows, expected %d" % (name, len(lines) - 1, nrows))
    rows = []
    width = len(header)
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise CheckFailed("%s: row with %d cells" % (name, len(cells)))
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise CheckFailed("%s: non-numeric cell in %r" % (name, line[:60]))
    return rows


def record(sections: dict, name: str) -> dict:
    """A `key = value` section as a dict of strings."""
    if name not in sections:
        raise CheckFailed("missing section %s" % name)
    out = {}
    for line in sections[name]:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckFailed("%s: bad record line %r" % (name, line[:60]))
        out[key] = value
    return out


def data_rows(sections: dict) -> int:
    """Rows a matterwave output holds: record lines, and CSV lines after
    each section's column header."""
    rows = 0
    for lines in sections.values():
        is_record = bool(lines) and " = " in lines[0]
        rows += len(lines) if is_record else max(len(lines) - 1, 0)
    return rows


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    """pytest.approx semantics: |a - b| <= max(rel*|b|, abs_tol)."""
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    """The context a result belongs to."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def count_check(result, check, *args) -> tuple:
    """One attempted item: check(*args) returns (rows out, rows in, bytes
    out) or raises CheckFailed, which counts the item as failed."""
    result.attempted += 1
    try:
        return check(*args)
    except CheckFailed as exc:
        result.fail(str(exc))
        return 0, 0, 0


class Result:
    """Attempted and failed items of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)
