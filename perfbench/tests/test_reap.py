import multiprocessing
import time
from multiprocessing import resource_tracker

from perfbench import run


def test_reap_stops_children_and_the_resource_tracker():
    context = multiprocessing.get_context("spawn")
    proc = context.Process(target=time.sleep, args=(30,), daemon=True)
    proc.start()
    assert resource_tracker._resource_tracker._pid is not None
    run._reap()
    assert not proc.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
