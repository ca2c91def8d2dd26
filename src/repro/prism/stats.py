"""Server observability: one snapshot of where a run's time went.

:func:`server_report` gathers the counters every layer already
maintains — backend utilization, engine op counts, port utilizations,
free-list depths, recycler progress — into one dict, so benchmarks and
the CLI can show *why* a configuration saturates (CPU vs TX bytes vs RX
bytes vs buffer starvation) instead of just that it did.
"""


def server_report(server, elapsed_us):
    """Snapshot a :class:`~repro.prism.server.PrismServer`'s counters.

    ``elapsed_us`` is the simulated window the utilizations cover.
    Free lists are keyed by id: two may share a name.
    """
    host = server.fabric.host(server.host_name)
    backend = server.backend
    return {
        "host": server.host_name,
        "service": server.service,
        "backend": backend.label,
        "elapsed_us": elapsed_us,
        "requests": backend.requests_processed,
        "engine_ops": server.engine.ops_executed,
        "tx_utilization": host.tx.utilization(elapsed_us),
        "rx_utilization": host.rx.utilization(elapsed_us),
        # Port byte counters are direction-neutral totals: the RX
        # pipe's is bytes *received* by this host.
        "tx_bytes": host.tx.bytes_total,
        "rx_bytes": host.rx.bytes_total,
        "connections": len(server.connections),
        "requests_dropped": server.requests_dropped,
        "freelists": {
            freelist_id: {
                "name": qp.name,
                "free": len(qp),
                "popped": qp.total_popped,
                "posted": qp.total_posted,
            }
            for freelist_id, qp in server.freelists.items()
        },
        "backend_utilization": backend.utilization(elapsed_us),
    }


def bottleneck(report, cpu_threshold=0.85, wire_threshold=0.85):
    """A one-word guess at the binding constraint of a saturated run."""
    backend_util = report.get("backend_utilization", 0.0)
    if backend_util >= cpu_threshold:
        return "compute"
    if report["rx_utilization"] >= wire_threshold:
        return "rx-wire"
    if report["tx_utilization"] >= wire_threshold:
        return "tx-wire"
    for stats in report["freelists"].values():
        if stats["free"] == 0 and stats["popped"] > 0:
            return "buffers"
    return "load"


def format_report(report):
    """Human-readable multi-line rendering."""
    lines = [
        f"server {report['host']} ({report['backend']}) over "
        f"{report['elapsed_us']:.0f} µs:",
        f"  requests={report['requests']}  engine_ops={report['engine_ops']}"
        f"  connections={report['connections']}",
        f"  utilization: backend={report.get('backend_utilization', 0):.2f}"
        f"  tx={report['tx_utilization']:.2f}"
        f"  rx={report['rx_utilization']:.2f}",
        f"  bottleneck guess: {bottleneck(report)}",
    ]
    for stats in report["freelists"].values():
        lines.append(
            f"  freelist {stats['name']}: free={stats['free']} "
            f"popped={stats['popped']} posted={stats['posted']}")
    return "\n".join(lines)
