"""Synthetic multi-machine case: WSCC-9 tiles joined by tie lines into a ring.

Tile k copies the bundled ``wscc9`` case with bus ids ``10*k + b``. Only tile
0 keeps its slack bus; the other tiles' bus-1 machines become PV machines.
Each tile gets a seeded load scale and a seeded dispatch scale for its bus-2
and bus-3 machines, and its bus-1 machine is set so the tile covers its own
scaled load plus the base case's losses, which keeps tie-line flows small.
Tie lines run from bus 5 of tile k to bus 9 of tile k+1, closing a ring.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from cfsync import (
    Event,
    LineSpec,
    LoadSpec,
    NetworkCase,
    bundled_case_path,
    solve_power_flow,
)
from cfsync.fileio import load_case

TIE = dict(r=0.01, x=0.1, b_sh=0.1)


def _bus_id(tile: int, bus: int) -> int:
    return 10 * tile + bus


def tiled_case(n_tiles: int, seed: int) -> NetworkCase:
    """Ring of ``n_tiles`` seeded WSCC-9 tiles with one slack bus."""
    if not 2 <= n_tiles <= 30:
        raise ValueError("n_tiles must be in [2, 30]")
    base = load_case(bundled_case_path("wscc9"))
    rng = np.random.default_rng(seed)
    p_load0 = sum(ld.p for ld in base.loads)
    p_gen0 = sum(g.p_set for g in base.generators)
    losses0 = p_gen0 - p_load0
    buses, lines, gens, loads, subnets = [], [], [], [], {}
    for k in range(n_tiles):
        load_scale = float(rng.uniform(0.85, 1.15))
        dispatch_scale = float(rng.uniform(0.85, 1.15))
        for b in base.buses:
            kind = "pv" if (b.kind == "slack" and k > 0) else b.kind
            buses.append(dataclasses.replace(
                b, id=_bus_id(k, b.id), kind=kind, subnet=f"T{k}{b.subnet}"))
        for ln in base.lines:
            lines.append(dataclasses.replace(
                ln, from_bus=_bus_id(k, ln.from_bus),
                to_bus=_bus_id(k, ln.to_bus)))
        for ld in base.loads:
            loads.append(LoadSpec(bus=_bus_id(k, ld.bus), p=ld.p * load_scale,
                                  q=ld.q * load_scale))
        scaled = {g.bus: g.p_set * dispatch_scale for g in base.generators
                  if g.bus != 1}
        scaled[1] = p_load0 * load_scale + losses0 - sum(scaled.values())
        for g in base.generators:
            gens.append(dataclasses.replace(g, bus=_bus_id(k, g.bus),
                                            p_set=scaled[g.bus]))
        for name, members in base.subnets.items():
            subnets[f"T{k}{name}"] = [_bus_id(k, m) for m in members]
    for k in range(n_tiles):
        lines.append(LineSpec(from_bus=_bus_id(k, 5),
                              to_bus=_bus_id((k + 1) % n_tiles, 9), **TIE))
    case = NetworkCase(s_base=base.s_base, f_nominal=base.f_nominal,
                       buses=buses, lines=lines, generators=gens,
                       loads=loads, subnets=subnets, events=[])
    case.validate()
    pf = solve_power_flow(case)  # raises PowerFlowError if it diverges
    if pf.max_mismatch > 1e-8:
        raise ValueError(f"tiled power flow mismatch {pf.max_mismatch:.3e}")
    return case


def _connected(bus_ids: list[int], edges: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {b: [] for b in bus_ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {bus_ids[0]}
    frontier = [bus_ids[0]]
    while frontier:
        for nxt in adj[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(bus_ids)


def non_bridge_lines(case: NetworkCase) -> list[LineSpec]:
    """Lines whose removal leaves every bus connected."""
    ids = [b.id for b in case.buses]
    live = [ln for ln in case.lines if ln.in_service]
    keys = [ln.key for ln in live]
    return [ln for i, ln in enumerate(live)
            if _connected(ids, keys[:i] + keys[i + 1:])]


def trip_scenarios(case: NetworkCase, n: int, seed: int,
                   t_trip: float = 1.0) -> list[NetworkCase]:
    """``n`` copies of ``case``, each tripping one seeded non-bridge line."""
    candidates = non_bridge_lines(case)
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(len(candidates), size=n, replace=False)
    out = []
    for i in sorted(int(p) for p in picks):
        ln = candidates[i]
        ev = Event(time=t_trip, kind="line_trip",
                   params={"from": ln.from_bus, "to": ln.to_bus},
                   description=f"trip line {ln.from_bus}-{ln.to_bus}")
        out.append(dataclasses.replace(case, events=[ev]))
    return out
