"""The paper's ablations as engine variants (Tables 5 and 6).

Table 5 replaces UCT by uniform random join-order selection and keeps
everything else — time slicing, the slice-budget schedule, progress
tracking, result merging — as it is; Table 6 also turns Skinner-C's join
indexes off.  Both are experiments run *on* SkinnerDB, not ways to run it,
so they live here, as subclasses of the product's engines that each replace
one hook:

* Skinner-C's next order (``SkinnerCTask.next_order``): a random task picks
  each slice's order by :func:`random_order`.  UCT's second looks are part
  of UCT's choice, so it takes none; it reports no final join order and is
  not warm-startable.
* Skinner-C's pre-processing (``SkinnerCTask.preprocess``): a task without
  indexes builds no join maps, so no position hash-jumps; a position bands
  where a band applies and scans otherwise.
* The learning run Skinner-G/H build (``SkinnerG.learning_run``): a random
  run picks each iteration's order by the same walk, seeded by the
  iteration.

The two Skinner-C switches combine freely (:class:`SkinnerCVariant`).  A
variant runs single-process whatever ``parallel_workers`` says: the
morsel-parallel coordinator runs plain Skinner-C tasks, which would drop the
ablation without a word.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.engine.meter import CostMeter
from repro.engine.task import GenericEngine, OrderPrior, run_to_completion
from repro.query.join_graph import JoinGraph
from repro.query.query import Query
from repro.query.udf import UdfRegistry
from repro.result import QueryResult
from repro.skinner.preprocessor import PreprocessedQuery, preprocess
from repro.skinner.skinner_c import SkinnerC, SkinnerCTask
from repro.skinner.skinner_g import GenericLearningRun, SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog
from repro.uct.tree import UctJoinTree


def random_order(graph: JoinGraph, rng: random.Random) -> tuple[str, ...]:
    """A uniformly random join order that avoids needless Cartesian products."""
    prefix: list[str] = []
    while len(prefix) < len(graph.aliases):
        prefix.append(rng.choice(graph.eligible_next(prefix)))
    return tuple(prefix)


# ----------------------------------------------------------------------
# Skinner-C
# ----------------------------------------------------------------------
class RandomOrderTask(SkinnerCTask):
    """Skinner-C choosing every slice's join order at random (Table 5)."""

    warm_startable = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._rng = random.Random(self._config.seed)

    def next_order(self) -> tuple[str, ...]:
        return random_order(self.query.join_graph(), self._rng)

    def metric_fields(self) -> dict[str, Any]:
        fields = super().metric_fields()
        if self._forced is None:
            fields["final_join_order"] = None
        return fields


class NoJoinMapsTask(SkinnerCTask):
    """Skinner-C without join indexes (Table 6): no position hash-jumps."""

    def preprocess(
        self,
        catalog: Catalog,
        query: Query,
        udfs: UdfRegistry | None,
        meter: CostMeter,
        restrict_positions: Mapping[str, np.ndarray] | None,
    ) -> PreprocessedQuery:
        return preprocess(catalog, query, udfs, meter, build_hash_maps=False,
                          restrict_positions=restrict_positions)


class RandomNoJoinMapsTask(RandomOrderTask, NoJoinMapsTask):
    """Both ablations: Table 6's "none" row."""


#: The task class of each ``(random_orders, join_maps)`` combination.
_SKINNER_C_TASKS: dict[tuple[bool, bool], type[SkinnerCTask]] = {
    (False, True): SkinnerCTask,
    (True, True): RandomOrderTask,
    (False, False): NoJoinMapsTask,
    (True, False): RandomNoJoinMapsTask,
}


class SkinnerCVariant(SkinnerC):
    """Skinner-C with random order selection and/or without join indexes,
    always single-process."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: UdfRegistry | None = None,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        random_orders: bool = False,
        join_maps: bool = True,
    ) -> None:
        super().__init__(catalog, udfs, config)
        self._task_class = _SKINNER_C_TASKS[random_orders, join_maps]
        labels = ["random"] * random_orders + ["no-index"] * (not join_maps)
        self._name = f"skinner-c({', '.join(labels)})" if labels else "skinner-c"

    @property
    def name(self) -> str:
        return self._name

    def task(
        self,
        query: Query,
        *,
        trace: bool = False,
        order_prior: Sequence[OrderPrior] | None = None,
    ) -> SkinnerCTask:
        return self._task_class(
            self._catalog, query, self._udfs, self._config,
            engine_name=self.name, trace=trace, order_prior=order_prior,
        )

    def execute_with_order(self, query: Query, order: tuple[str, ...]) -> QueryResult:
        return run_to_completion(self._task_class(
            self._catalog, query, self._udfs, self._config,
            engine_name=f"{self.name}(forced)", order=tuple(order),
        ))


# ----------------------------------------------------------------------
# Skinner-G/H
# ----------------------------------------------------------------------
class RandomLearningRun(GenericLearningRun):
    """A Skinner-G learning run choosing every iteration's order at random."""

    def next_order(self, tree: UctJoinTree) -> tuple[str, ...]:
        seed = None if self.config.seed is None else self.config.seed + self.iterations
        return random_order(self.query.join_graph(), random.Random(seed))


class _RandomLearning:
    """Builds a :class:`RandomLearningRun` where Skinner-G/H build theirs."""

    def learning_run(self, query: Query, substrate: GenericEngine) -> GenericLearningRun:
        return RandomLearningRun(self._catalog, query, self._udfs, self._config, engine=substrate)


class RandomSkinnerG(_RandomLearning, SkinnerG):
    """Skinner-G with random join-order selection (Table 5)."""


class RandomSkinnerH(_RandomLearning, SkinnerH):
    """Skinner-H with random join-order selection (Table 5)."""
