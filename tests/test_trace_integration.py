"""System-level tracing: a traced scenario records every layer."""

from repro.experiments.scenario import ScenarioConfig, build_network


def test_traced_scenario_records_all_layers():
    config = ScenarioConfig(
        protocol="nlr", grid_nx=3, grid_ny=3, n_flows=2,
        sim_time_s=8.0, warmup_s=1.0, seed=13, trace_spec={},
    )
    net = build_network(config)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    ring = net.trace_ring
    assert net.tracer.recorded == len(ring) > 0
    categories = {r.category for r in ring}
    assert {"phy", "mac", "net", "app"} <= categories
    # MAC data transmissions and PHY receptions were both traced
    assert ring.count(category="mac", event="data_tx") > 0
    assert ring.count(category="phy", event="rx_ok") > 0
    # routing traced discovery activity
    assert ring.count(category="net", event="rreq_originate") >= 2
    # app deliveries traced at the destination nodes
    assert ring.count(category="app", event="deliver") > 0
    # records are time-ordered per the engine's execution order
    times = [r.time for r in ring]
    assert times == sorted(times)


def test_untraced_scenario_records_nothing():
    config = ScenarioConfig(
        protocol="aodv", grid_nx=3, grid_ny=3, n_flows=1,
        sim_time_s=5.0, warmup_s=1.0, seed=13,
    )
    net = build_network(config)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    assert net.tracer.recorded == 0 and net.trace_ring is None
