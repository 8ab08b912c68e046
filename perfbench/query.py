"""``query``: one analyst sending ad-hoc queries to a pre-fitted index.

A single client in a closed loop queries one SemanticKITTI-like index
(4,541 frames, ~42.7k indexed rows) fitted once in set-up with the
reference sampler seed.  Every query carries object filters never seen
before in the run: random ``REGION`` / ``SECTOR`` / ``DIST`` / ``TILE`` /
``CONF`` clauses over every label, all aggregate operators, compound
``AND`` / ``OR`` conditions and ``WITHIN`` scopes.  The working set
therefore exceeds every count-series cache and each query pays for
parsing, a count-series build and, for spatial filters, the tile walk.

The per-index count-series memo keeps every series it computes.  The
client starts a new session every :data:`SESSION_QUERIES` queries by
clearing it, so memory stays flat whatever the throughput; with filters
that never repeat the clear changes no hit rate.
"""

from __future__ import annotations

import numpy as np

from perfbench.base import BUDGET, MODEL_SEED, REFERENCE_SEED, Workload, op_span
from perfbench.common import Window, answer_digest, now, quality

SESSION_QUERIES = 256
LABELS = ("Car", "Pedestrian", "Cyclist", "Truck", "*")
SPATIAL_CLAUSES = ("DIST", "SECTOR", "REGION", "TILE", "CONF")


class AdHocQueries:
    """Seeded query texts whose object filters never repeat."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 23])
        self._seen: set[str] = set()

    def _tile(self) -> str:
        # A 16-64 m tile next to the sensor: descend from a root quadrant
        # towards the origin, then take one or two free digits.
        rng = self._rng
        quadrant = int(rng.integers(4))
        free = int(rng.integers(1, 3))
        return str(quadrant) + str(3 - quadrant) * int(rng.integers(6, 8)) + "".join(
            str(int(d)) for d in rng.integers(4, size=free)
        )

    def _clause(self, kind: str) -> str:
        rng = self._rng
        if kind == "DIST":
            return f"DIST {rng.choice(['<=', '>='])} {rng.uniform(2.0, 40.0):.3f}"
        if kind == "SECTOR":
            start = rng.uniform(-180.0, 180.0)
            return f"SECTOR {start:.2f} {start + rng.uniform(20.0, 200.0):.2f}"
        if kind == "REGION":
            x, y = rng.uniform(-60.0, 30.0, size=2)
            w, h = rng.uniform(5.0, 60.0, size=2)
            return f"REGION {x:.2f} {y:.2f} {x + w:.2f} {y + h:.2f}"
        if kind == "TILE":
            return f"TILE {self._tile()}"
        return f"CONF {rng.uniform(0.3, 0.7):.4f}"

    def _filter(self) -> str:
        rng = self._rng
        while True:
            kinds = rng.choice(SPATIAL_CLAUSES, size=int(rng.integers(1, 3)), replace=False)
            text = " ".join([str(rng.choice(LABELS)), *(self._clause(k) for k in kinds)])
            if text not in self._seen:
                self._seen.add(text)
                return text

    def _within(self) -> str:
        rng = self._rng
        if rng.random() >= 0.2:
            return ""
        if rng.random() < 0.5:
            return f" WITHIN TILE {self._tile()}"
        x, y = rng.uniform(-70.0, 0.0, size=2)
        return f" WITHIN REGION ({x:.2f}, {y:.2f}, {x + 70.0:.2f}, {y + 70.0:.2f})"

    def next(self) -> str:
        rng = self._rng
        kind = rng.random()
        if kind < 0.35:
            text = (
                f"SELECT FRAMES WHERE COUNT({self._filter()}) "
                f"{rng.choice(['<=', '>='])} {int(rng.integers(0, 8))}"
            )
        elif kind < 0.55:
            text = (
                f"SELECT FRAMES WHERE COUNT({self._filter()}) >= {int(rng.integers(1, 5))} "
                f"{rng.choice(['AND', 'OR'])} "
                f"COUNT({self._filter()}) <= {int(rng.integers(0, 6))}"
            )
        elif kind < 0.65:
            text = (
                f"SELECT COUNT FRAMES WHERE COUNT({self._filter()}) "
                f">= {int(rng.integers(1, 6))}"
            )
        else:
            operator = rng.choice(["AVG", "MED", "MIN", "MAX"])
            text = f"SELECT {operator} OF COUNT({self._filter()})"
        return text + self._within()


class QueryWorkload(Workload):
    name = "query"
    primary = "ops"

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self._queries = AdHocQueries(self.seed)
        self._answers: list[tuple[str, bytes]] = []
        self.pipeline = None

    def setup(self) -> None:
        from repro.core import MASTConfig
        from repro.core.pipeline import MASTPipeline
        from repro.models import pv_rcnn
        from repro.simulation import build_sequence, dataset_spec

        self.model = pv_rcnn(seed=MODEL_SEED)
        self.sequence = build_sequence(dataset_spec("semantickitti"), 0, with_points=False)
        self.config = MASTConfig(budget_fraction=BUDGET, seed=REFERENCE_SEED)
        self.pipeline = MASTPipeline(self.config).fit(self.sequence, self.model)

    def teardown(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None

    def window(self, seconds, tracer) -> Window:
        window = Window()
        n_frames = len(self.sequence)
        start = session_began = now()
        session: list[float] = []
        while now() - start < seconds:
            text = self._queries.next()
            window.attempted += 1
            try:
                with op_span(tracer, window.attempted):
                    began = now()
                    result = self.pipeline.query(text)
                    session.append(now() - began)
            except Exception as error:
                window.fail(1, f"{text}: {error!r}")
                continue
            self._answers.append((text, answer_digest(result)))
            if len(self._answers) % SESSION_QUERIES == 0:
                _clear_series(self.pipeline)
                self._close_session(window, session, now() - session_began, n_frames)
                session_began, session = now(), []
        # A cut-off last session is kept only when it is the only one.
        if session and not window.op_rates:
            self._close_session(window, session, now() - session_began, n_frames)
        return window

    @staticmethod
    def _close_session(window, latencies, seconds, n_frames) -> None:
        """One analyst session is one chunk of the window."""
        n = len(latencies)
        window.chunk(n, seconds, n * n_frames, seconds, latencies)

    def verify(self, window) -> None:
        """Every tiled answer must equal a flat-scan index's on the same sampling."""
        from repro.core.pipeline import MASTPipeline

        flat_config = self.config.with_overrides(spatial_index=False)
        with MASTPipeline(flat_config) as flat:
            flat.fit_from_sampling(self.sequence, self.model, self.pipeline.sampling_result)
            for position, (text, digest) in enumerate(self._answers, start=1):
                if answer_digest(flat.query(text)) != digest:
                    window.fail(1, f"tiled != flat for {text}")
                if position % SESSION_QUERIES == 0:
                    _clear_series(flat)
        self._answers.clear()

    def quality(self, window) -> tuple[float, float]:
        from repro.evalx.runner import oracle_truth
        from repro.query.workload import generate_workload

        truth = oracle_truth(
            self.sequence, self.model, generate_workload(rng=REFERENCE_SEED)
        )
        f1, error = quality(self.pipeline.query, truth)
        return float(np.mean(f1)), float(np.mean(error))

    def model_invocations(self) -> float:
        from repro.utils.timing import STAGE_MODEL

        return self.pipeline.ledger.invocations(STAGE_MODEL)


def _clear_series(pipeline) -> None:
    """Start a new analyst session: drop every memoized count series."""
    for provider in pipeline.providers.values():
        provider.clear_count_cache()
