"""``fit``: a closed loop of ``MASTPipeline.fit`` over the paper's shapes.

The only workload where sampling, ST-PC matching (Hungarian) and index
build do most of the work.  One round fits four 1,000-frame sequences at
the default 10 % budget: SemanticKITTI-like (10 Hz), ONCE-like (2 Hz),
SynLiDAR-like, and a dense KITTI world (spawn rate 4.0, ~32 objects a
frame).  The worlds are fixed; the seed picks the sampler seed of every
round, so a run averages over several sampling trajectories.  Every fit
starts from an empty detection store, so each one pays for detection.
Latency, the rates (medians over rounds) and ``model_invocations`` are
per round: one fit of each shape, so every sample does the same mix of
work.
"""

from __future__ import annotations

import numpy as np

from perfbench.base import BUDGET, MODEL_SEED, REFERENCE_SEED, Workload, op_span
from perfbench.common import Window, answer_digest, median, now, quality

#: (name, dataset, sequence index, world overrides)
SHAPES = (
    ("kitti", "semantickitti", 0, ()),
    ("once", "once", 0, ()),
    ("synlidar", "synlidar", 0, ()),
    ("kitti-dense", "semantickitti", 1, (("base_spawn_rate", 4.0),)),
)
FRAMES = 1000


class FitWorkload(Workload):
    name = "fit"
    primary = "frames"

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self._rng = np.random.default_rng([self.seed, 11])
        self._round_invocations: list[int] = []

    def setup(self) -> None:
        from repro.corpus import SequenceSpec
        from repro.models import pv_rcnn

        self.model = pv_rcnn(seed=MODEL_SEED)
        self.sequences = [
            SequenceSpec(
                dataset, index, n_frames=FRAMES, name=name, world_overrides=overrides
            ).build()
            for name, dataset, index, overrides in SHAPES
        ]

    def window(self, seconds, tracer) -> Window:
        from repro.core import MASTConfig
        from repro.core.pipeline import MASTPipeline
        from repro.inference import DetectionStore
        from repro.utils.timing import STAGE_MODEL

        window = Window()
        # Few rounds fit in a window, so their latencies form one chunk.
        rounds: list[float] = []
        start = now()
        while True:
            config = MASTConfig(
                budget_fraction=BUDGET, seed=int(self._rng.integers(1, 2**31))
            )
            invocations = 0
            round_began = now()
            fits = frames = 0
            for sequence in self.sequences:
                window.attempted += 1
                store = DetectionStore()
                try:
                    with op_span(tracer, window.attempted):
                        with MASTPipeline(config, detection_store=store) as pipeline:
                            pipeline.fit(sequence, self.model)
                except Exception as error:
                    window.fail(1, f"fit {sequence.name}: {error!r}")
                    continue
                billed = pipeline.ledger.invocations(STAGE_MODEL)
                if billed != store.stats().misses:
                    window.fail(
                        1,
                        f"fit {sequence.name}: {billed} invocations billed "
                        f"but {store.stats().misses} store misses",
                    )
                invocations += billed
                self.sim_model_s += pipeline.ledger.total(STAGE_MODEL)
                fits += 1
                frames += len(sequence)
            round_s = now() - round_began
            rounds.append(round_s)
            window.chunk(fits, round_s, frames, round_s)
            self._round_invocations.append(invocations)
            if now() - start >= seconds:
                break
        window.latency_chunks.append(rounds)
        return window

    def quality(self, window) -> tuple[float, float]:
        """Reference fits scored against the Oracle; tiled ≡ flat checked on them."""
        from repro.core import MASTConfig
        from repro.core.pipeline import MASTPipeline
        from repro.evalx.runner import oracle_truth
        from repro.query.workload import generate_workload

        workload = generate_workload(rng=REFERENCE_SEED)
        config = MASTConfig(budget_fraction=BUDGET, seed=REFERENCE_SEED)
        flat_config = config.with_overrides(spatial_index=False)
        f1: list[float] = []
        error: list[float] = []
        for sequence in self.sequences:
            with MASTPipeline(config) as tiled, MASTPipeline(flat_config) as flat:
                tiled.fit(sequence, self.model)
                flat.fit_from_sampling(sequence, self.model, tiled.sampling_result)
                for query in workload.all_queries():
                    window.attempted += 1
                    if answer_digest(tiled.query(query)) != answer_digest(flat.query(query)):
                        window.fail(
                            1, f"{sequence.name}: tiled != flat for {query.describe()}"
                        )
                truth = oracle_truth(sequence, self.model, workload, engine=tiled.engine)
                sequence_f1, sequence_error = quality(tiled.query, truth)
            f1 += sequence_f1
            error += sequence_error
        return float(np.mean(f1)), float(np.mean(error))

    def model_invocations(self) -> float:
        return median(self._round_invocations)
