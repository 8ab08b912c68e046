"""The three-sequence corpus shared by ``serve`` and ``stream``.

A near-static drive, a volatile drive and a sparse urban log: adaptive
budget is wasted on the first and pays off on the second.  The worlds
match the repository's serving and streaming benches.
"""

from __future__ import annotations

from perfbench.base import REFERENCE_SEED
from perfbench.common import quality

STATIC_WORLD = (
    ("base_spawn_rate", 0.15),
    ("intensity_amplitude", 0.05),
    ("mean_lifetime", 90.0),
    ("ego_speed_mean", 1.5),
    ("ego_speed_amplitude", 0.3),
    ("burst_rate", 0.0),
    ("yaw_rate_sigma", 0.005),
    ("speed_noise", 0.05),
)
VOLATILE_WORLD = (
    ("base_spawn_rate", 1.6),
    ("mean_lifetime", 10.0),
    ("intensity_period", 30.0),
    ("burst_rate", 0.15),
    ("ego_speed_mean", 12.0),
    ("yaw_rate_sigma", 0.1),
)


def corpus_specs(long_frames: int, short_frames: int) -> list:
    """Sequence recipes of the corpus at the given lengths."""
    from repro.corpus import SequenceSpec

    return [
        SequenceSpec(
            "semantickitti", 0, n_frames=long_frames,
            name="static-drive", world_overrides=STATIC_WORLD,
        ),
        SequenceSpec(
            "semantickitti", 1, n_frames=long_frames,
            name="volatile-drive", world_overrides=VOLATILE_WORLD,
        ),
        SequenceSpec("once", 0, n_frames=short_frames, name="sparse-urban"),
    ]


def scoped_texts(names, queries) -> list[str]:
    """Query texts cycling over each sequence scope, then a corpus fan-out."""
    texts = []
    for position, query in enumerate(queries):
        which = position % (len(names) + 1)
        text = query.describe()
        texts.append(f"{text} IN SEQUENCE {names[which]}" if which < len(names) else text)
    return texts


def shard_quality(sequences: dict, answer_for, model) -> tuple[list[float], list[float]]:
    """Per-query F1 and aggregate error of every shard against its Oracle.

    ``answer_for(name)`` returns the callable answering queries on shard
    ``name``; the paper's 130-query workload runs on each shard.
    """
    from repro.evalx.runner import oracle_truth
    from repro.query.workload import generate_workload

    workload = generate_workload(rng=REFERENCE_SEED)
    f1: list[float] = []
    error: list[float] = []
    for name, sequence in sequences.items():
        truth = oracle_truth(sequence, model, workload)
        shard_f1, shard_error = quality(answer_for(name), truth)
        f1 += shard_f1
        error += shard_error
    return f1, error
