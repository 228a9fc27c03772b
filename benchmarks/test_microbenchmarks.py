"""Microbenchmarks: the published latency/bandwidth numbers of section 4.

Paper values: deliberate-update one-word latency 6 us; automatic-update
one-word latency 3.71 us; user-level DMA send overhead < 2 us; bulk DU
bandwidth EISA-limited (~23 MB/s measured on the real machine).
"""

from repro.study import micro
from conftest import emit


def _measure_all():
    return {
        "du_word_latency_us": micro.du_word_latency(),
        "au_word_latency_us": micro.au_word_latency(),
        "du_send_overhead_us": micro.du_send_overhead(),
        "du_bulk_bandwidth_mbs": micro.du_bulk_bandwidth(),
        "au_bulk_bandwidth_mbs": micro.au_bulk_bandwidth(),
    }


def test_micro_latencies(benchmark):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    emit(
        "Microbenchmarks (paper: DU 6 us, AU 3.71 us, UDMA < 2 us, ~23 MB/s):\n"
        f"  DU one-word latency : {results['du_word_latency_us']:6.2f} us\n"
        f"  AU one-word latency : {results['au_word_latency_us']:6.2f} us\n"
        f"  DU send overhead    : {results['du_send_overhead_us']:6.2f} us\n"
        f"  DU bulk bandwidth   : {results['du_bulk_bandwidth_mbs']:6.1f} MB/s\n"
        f"  AU bulk bandwidth   : {results['au_bulk_bandwidth_mbs']:6.1f} MB/s"
    )
    # Shape: the published relationships hold.
    assert 5.5 < results["du_word_latency_us"] < 6.5
    assert 3.3 < results["au_word_latency_us"] < 4.1
    assert results["au_word_latency_us"] < results["du_word_latency_us"]
    assert results["du_send_overhead_us"] < 2.0
    assert results["du_bulk_bandwidth_mbs"] > results["au_bulk_bandwidth_mbs"]
