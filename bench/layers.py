"""Which end-to-end metric, on which workload, each per-layer metric should move.

Written down before measuring, so that a change to one layer can be held
to the end-to-end numbers it predicts.  Entries are (glob over per-layer
names, [(end-to-end metric, workload), ...], note); the first matching
entry applies.  An empty list means the metric moves nothing end to end,
and the note says why it is kept.
"""

from fnmatch import fnmatchcase

MOVES = [
    ("cli.import_s",
     [("pass_s.p50", "cli"), ("tasks_per_s", "cli"), ("setup_s", "oracle"), ("setup_s", "kernels")],
     "start-up is most of a cold CLI pass; warm workloads pay it in set-up only"),
    ("cli.process_s", [("pass_s.p50", "cli"), ("tasks_per_s", "cli")], "one cold invocation"),
    ("cli.main_s.*", [("pass_s.p50", "cli")],
     "in-process experiment time; only oracle-compare and expansion-check are above 2 ms"),
    ("oracle.evolve_norm_s.grid_frozen", [("pass_s.p50", "oracle"), ("pass_s.p50", "cli")],
     "the oracle-compare template runs the frozen back end cold"),
    ("oracle.evolve_norm_s.*", [("pass_s.p50", "oracle"), ("tasks_per_s", "oracle")],
     "each back end by its share of an oracle pass"),
    ("oracle.max_dev.*", [],
     "accuracy, not time: a change may move it only while every check still passes"),
    ("oracle.*", [("pass_s.p50", "oracle")], "bath set-up, references, fits and computed sizes"),
    ("laws.evolve_density_short_time_s", [("pass_s.p50", "kernels"), ("peak_rss_mb", "kernels")],
     "the density path is the largest and most memory-hungry kernel"),
    ("laws.density_cells", [("pass_s.p50", "kernels"), ("peak_rss_mb", "kernels")],
     "computed size of the density block"),
    ("laws.*", [("pass_s.p50", "kernels")], "quadratures, under 1% of a pass"),
    ("packets.*", [("pass_s.p50", "kernels")], "density block build and its quadrature norm"),
    ("spin.coherent_vector_s", [("pass_s.p50", "oracle")], "a small part of the spin curves"),
    ("spin.*", [("pass_s.p50", "kernels")], "Monte-Carlo spin norm"),
    ("expansion.*", [("pass_s.p50", "kernels"), ("pass_s.p50", "cli")],
     "the expansion check, also run cold by the expansion-check template"),
    ("bench.*", [], "harness figures: work moved into first calls, and what tracing costs"),
]


def moves(name):
    """(pairs, note) of the first MOVES entry matching ``name``, or None."""
    for pattern, pairs, note in MOVES:
        if fnmatchcase(name, pattern):
            return pairs, note
    return None
