"""The host memos hold what their traffic reuses, and each image's bytes
are held once.

Every paper figure runs once, in ``ALL_FIGURES`` order, from empty memos
at tiny sizes (the data sets and stream keys are the grid's; only the
request counts shrink):

* the data-set memo never holds more than one image, counting the one
  being built — a miss drops the held image first.  The grid's one reuse
  at a distance, SysBench's image coming back for TPC-C after Figure
  8(a)'s Hadoop, costs one more build: eight images in 80 lookups;
* a multi-VM stream is one stream-memo entry, so Figure 15 generates
  each of its five VM streams once for its five systems.

A workload built from warm memos never draws its family table, and a
multi-VM workload's VM images are read-only views of its one composed
image.
"""

import numpy as np
import pytest

from repro.experiments import figures
from repro.workloads import MultiVMWorkload, TPCCWorkload
from repro.workloads import base as workload_base
from repro.workloads import content
from repro.workloads.base import SyntheticWorkload

N_REQUESTS = 60
PER_VM_REQUESTS = 60

#: What a drawn family table puts in a content model's ``__dict__``,
#: as one table or, as every constructor once drew it, three arrays.
FAMILY_TABLE_ATTRS = ("_family_table", "_bases", "family_of",
                      "_unique_mask")


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


def test_dataset_memo_holds_one_image(grid_traffic):
    held, _, stats = grid_traffic
    over = {name: max(counts) for name, counts in held.items()
            if counts and max(counts) > 1}
    assert not over, f"data-set memo held more than one image: {over}"
    assert (stats["misses"], stats["hits"]) == (8, 72)


def test_multi_vm_stream_is_generated_once(grid_traffic):
    _, generated, _ = grid_traffic
    # Five VM streams, generated once, replayed for the other systems.
    assert generated["figure15"] == 5 * PER_VM_REQUESTS
    assert generated["figure16"] == 5 * PER_VM_REQUESTS


def test_warm_workload_never_draws_its_family_table():
    content.clear_dataset_cache()
    workload_base.clear_stream_cache()
    cold = TPCCWorkload(scale=0.1, n_requests=200)
    cold_stream = list(cold.requests())
    warm = TPCCWorkload(scale=0.1, n_requests=200)
    warm_stream = list(warm.requests())
    drawn = [name for name in FAMILY_TABLE_ATTRS
             if name in vars(warm.content)]
    assert not drawn, f"a warm workload drew its family table: {drawn}"
    assert warm_stream == cold_stream
    assert np.array_equal(np.asarray(warm.shadow), np.asarray(cold.shadow))
    # Drawn on first use, it is the table the cold build drew.
    for drawn_late, drawn_first in zip(warm.content._family_table,
                                       cold.content._family_table):
        assert np.array_equal(drawn_late, drawn_first)
    content.clear_dataset_cache()
    workload_base.clear_stream_cache()


def test_vm_images_are_read_only_views_of_the_composed_image():
    multivm = MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.1,
                              n_requests_per_vm=20)
    composed = multivm.build_dataset()
    assert not composed.flags.writeable
    for index, vm in enumerate(multivm.vms):
        image = vm.build_dataset()
        assert not image.flags.writeable
        assert np.shares_memory(image, composed)
        with pytest.raises(ValueError):
            image.flags.writeable = True
        start = index * multivm.vm_blocks
        assert np.array_equal(image,
                              composed[start:start + multivm.vm_blocks])
