"""The host memos hold what their traffic reuses, and no more.

Every paper figure runs once, in ``ALL_FIGURES`` order, from empty memos
at tiny sizes (the data sets and stream keys are the grid's; only the
request counts shrink):

* the data-set memo never holds more than two images, counting the one
  being built — SysBench and TPC-C share an image with Hadoop's between
  their uses, so two is the grid's reuse distance, and seven images
  cost seven builds;
* a multi-VM stream is one stream-memo entry, so Figure 15 generates
  each of its five VM streams once for its five systems.
"""

import pytest

from repro.experiments import figures
from repro.workloads import base as workload_base
from repro.workloads import content
from repro.workloads.base import SyntheticWorkload

N_REQUESTS = 60
PER_VM_REQUESTS = 60


@pytest.fixture(scope="module")
def grid_traffic():
    """Run every figure and record, per figure, the images held at each
    build and after each data-set lookup, and the requests generated."""
    figures.clear_cache()
    content.clear_dataset_cache()
    workload_base.clear_stream_cache()
    held, generated = {}, {}
    current, building = [None], [False]

    sprinkle = content.sprinkle_family_noise

    def sprinkle_while_building(dataset, rows, rng):
        if building[0]:
            # The image under construction is not in the memo yet.
            held[current[0]].append(len(content._dataset_cache) + 1)
        return sprinkle(dataset, rows, rng)

    build = content.ContentModel.build_dataset

    def build_and_count(self):
        building[0] = True
        try:
            dataset = build(self)
        finally:
            building[0] = False
        held[current[0]].append(len(content._dataset_cache))
        return dataset

    next_request = SyntheticWorkload._next_request

    def count_request(self):
        generated[current[0]] += 1
        return next_request(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(content, "sprinkle_family_noise",
                      sprinkle_while_building)
        patch.setattr(content.ContentModel, "build_dataset",
                      build_and_count)
        patch.setattr(SyntheticWorkload, "_next_request", count_request)
        for name, fn in figures.ALL_FIGURES.items():
            current[0] = name
            held[name], generated[name] = [], 0
            if name in ("figure15", "figure16"):
                fn(per_vm_requests=PER_VM_REQUESTS)
            else:
                fn(n_requests=N_REQUESTS)
        stats = content.dataset_cache_stats()
    figures.clear_cache()
    content.clear_dataset_cache()
    workload_base.clear_stream_cache()
    return held, generated, stats


def test_dataset_memo_holds_two_images(grid_traffic):
    held, _, stats = grid_traffic
    over = {name: max(counts) for name, counts in held.items()
            if counts and max(counts) > 2}
    assert not over, f"data-set memo held more than two images: {over}"
    assert (stats["misses"], stats["hits"]) == (7, 73)


def test_multi_vm_stream_is_generated_once(grid_traffic):
    _, generated, _ = grid_traffic
    # Five VM streams, generated once, replayed for the other systems.
    assert generated["figure15"] == 5 * PER_VM_REQUESTS
    assert generated["figure16"] == 5 * PER_VM_REQUESTS
