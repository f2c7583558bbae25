"""Per-layer timing of wordlab from outside: wrap each module's public
functions and sum self time (span minus child spans) and work counts.

A wrapper replaces every attribute through which callers reach the
function: rauzy imports factors_of_length by name and wordgen imports
distinct_counts by name, so both module attributes are swapped, and
prefix is patched on each source class. Functions a later wordlab no
longer has are listed as unresolved, and the metrics only they produce
are absent from the stats, never 0.

Work is counted after a span has ended, and that time is charged to no
layer: it is tracing overhead, reported apart as count_s.
"""

import importlib
from time import perf_counter

# (module, function) -> (time key, calls key, work counter); keys are
# metric names, and a counter names a Tracer._count_* method
SPANS = {
    ("wordgen", "stabilized_prefix"): ("wordgen.certify_s", "wordgen.certify_calls", "certify"),
    ("factorcount", "distinct_counts"): ("factorcount.count_s", "factorcount.count_calls", "rounds"),
    ("complexity", "factors_of_length"): ("complexity.enumerate_s", "complexity.enumerate_calls", "distinct"),
    ("complexity", "factor_positions"): ("complexity.enumerate_s", None, "windows"),
    ("complexity", "profile"): ("complexity.profile_self_s", None, None),
    ("complexity", "rows_to_csv"): ("complexity.csv_s", None, None),
    ("closure", "classify"): ("closure.classify_s", "closure.classify_calls", "classify"),
    ("kernels", "frontier_length"): ("kernels.frontier_length_s", "kernels.frontier_length_calls", "bytes"),
    ("kernels", "border_table"): ("kernels.border_table_s", "kernels.border_table_calls", "bytes"),
    ("kernels", "occurrences"): ("kernels.occurrences_s", "kernels.occurrences_calls", "bytes"),
    ("rauzy", "check_frontier_distance"): ("rauzy.frontier_distance_s", "rauzy.check_calls", None),
    ("rauzy", "check_closed_neighbor_uniqueness"): ("rauzy.neighbors_s", "rauzy.check_calls", None),
    ("rauzy", "check_closed_path_frontiers"): ("rauzy.path_frontiers_s", "rauzy.check_calls", None),
    ("rauzy", "rauzy_graph"): ("rauzy.graph_s", None, None),
    ("rauzy", "special_factors"): ("rauzy.specials_s", None, None),
    ("rauzy", "to_dot"): ("rauzy.dot_s", None, None),
    ("returns", "report"): ("returns.report_s", None, "occurrences"),
}
# the stats each work counter adds to; "bytes" adds to <layer>_bytes
COUNTS = {
    "prefix": ("wordgen.prefix_symbols",),
    "certify": ("wordgen.certified_symbols",),
    "rounds": ("factorcount.count_symbols", "wordgen.certify_rounds"),
    "windows": ("complexity.windows_scanned",),
    "distinct": ("complexity.distinct_factors",),
    "classify": ("closure.classify_symbols",),
    "occurrences": ("returns.occurrences_found",),
}
# every CLI command, so that a workload without one reads 0 s in it
COMMANDS = ("profile", "rauzy", "returns", "verify")
MODULES = (
    "cli",
    "closure",
    "complexity",
    "factorcount",
    "kernels",
    "rauzy",
    "returns",
    "verify",
    "wordgen",
)


class Tracer:
    def __init__(self):
        self.stats = {f"cli.{command}_s": 0.0 for command in COMMANDS}
        self.unresolved = []
        self.count_s = 0.0
        self._stack = [[None, 0.0]]  # open spans: [time key, child time]
        self._classified = set()

    def wrap(self, fn, time_key, calls_key=None, counter=None):
        """fn, adding its self time to stats[time_key], its calls to
        stats[calls_key], and its work through self._count_<counter>."""
        tracer, stats, stack = self, self.stats, self._stack
        count = getattr(self, f"_count_{counter}") if counter else None
        stats.setdefault(time_key, 0.0)
        if calls_key:
            stats.setdefault(calls_key, 0)
        if counter == "bytes":
            stats.setdefault(time_key[: -len("_s")] + "_bytes", 0)
        for key in COUNTS.get(counter, ()):
            stats.setdefault(key, 0)

        def traced(*args, **kwargs):
            frame = [time_key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                stack[-1][1] += span
                stats[time_key] += span - frame[1]
                if calls_key:
                    stats[calls_key] += 1
            if count is not None:
                begin = perf_counter()
                count(time_key, args, result)
                counted = perf_counter() - begin
                stack[-1][1] += counted  # charged to no layer
                tracer.count_s += counted
            return result

        return traced

    def install(self):
        """Swap the wrappers into the imported wordlab modules."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"wordlab.{name}")
            except ModuleNotFoundError:
                self.unresolved.append(f"wordlab.{name}")
        replace = {}
        for (module, name), spec in SPANS.items():
            fn = getattr(modules.get(module), name, None)
            if fn is None:
                self.unresolved.append(f"{module}.{name}")
            else:
                replace[id(fn)] = (fn, self.wrap(fn, *spec))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(module, attr, replace[id(value)][1])
        wordgen = modules.get("wordgen")
        sources = [
            cls
            for cls in (vars(wordgen).values() if wordgen else ())
            if isinstance(cls, type) and "prefix" in vars(cls)
        ]
        if not sources:
            self.unresolved.append("wordgen.<source class>.prefix")
        for cls in sources:
            cls.prefix = self.wrap(
                vars(cls)["prefix"], "wordgen.prefix_s", "wordgen.prefix_calls", "prefix"
            )
        if "verify" in modules:
            verify = modules["verify"]
            checks = []
            for check_name, fn in verify.CHECKS:
                traced = self.wrap(fn, f"verify.{check_name}_s")
                # run_verify_suite tells checks apart by identity
                if getattr(verify, fn.__name__, None) is fn:
                    setattr(verify, fn.__name__, traced)
                checks.append((check_name, traced))
            verify.CHECKS = type(verify.CHECKS)(checks)

    def op(self, main, command):
        """main, traced as the top-level span of one CLI op."""
        return self.wrap(main, f"cli.{command}_s")

    def result(self):
        """The stats, what could not be wrapped, and the counting time."""
        stats = dict(self.stats)
        calls = stats.get("closure.classify_calls")
        if calls is not None:
            stats["closure.classify_unique_ratio"] = len(self._classified) / calls if calls else 0.0
        return {"stats": stats, "unresolved": self.unresolved, "count_s": self.count_s}

    def _add(self, key, amount):
        self.stats[key] = self.stats.get(key, 0) + amount

    def _count_prefix(self, time_key, args, result):
        self._add("wordgen.prefix_symbols", len(result))

    def _count_certify(self, time_key, args, result):
        self._add("wordgen.certified_symbols", len(result.data))

    def _count_rounds(self, time_key, args, result):
        self._add("factorcount.count_symbols", len(args[0]))
        if self._stack[-1][0] == "wordgen.certify_s":
            self._add("wordgen.certify_rounds", 1)

    def _count_windows(self, time_key, args, result):
        buf, n = args[0], args[1]
        self._add("complexity.windows_scanned", max(0, len(buf.data) - n + 1))

    def _count_distinct(self, time_key, args, result):
        self._add("complexity.distinct_factors", len(result))

    def _count_classify(self, time_key, args, result):
        self._add("closure.classify_symbols", len(args[0]))
        self._classified.add(args[0])

    def _count_bytes(self, time_key, args, result):
        moved = sum(len(a) for a in args if isinstance(a, (bytes, bytearray)))
        self._add(time_key[: -len("_s")] + "_bytes", moved)

    def _count_occurrences(self, time_key, args, result):
        self._add("returns.occurrences_found", len(result.positions))
