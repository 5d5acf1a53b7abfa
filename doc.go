// Package nwsenv reproduces "Automatic Deployment of the Network
// Weather Service Using the Effective Network View" (Legrand & Quinson,
// LIP RR-2003-42 / IPPS 2004 workshops) as a Go library: a discrete-event
// network simulator standing in for the 2003 ENS-Lyon testbed, a complete
// NWS implementation (name server, memory servers, sensors, forecaster
// battery, token-ring measurement cliques), the ENV application-level
// network mapper, and the automatic deployment planner that ties them
// together.
//
// The entry point for the paper's pipeline is internal/core.Pipeline:
// a staged Map → Plan → Apply API over the platform abstraction of
// internal/platform, so the same code path drives the simulated testbed
// (SimPlatform) and real loopback TCP sockets (TCPPlatform).
// Above the pipeline, internal/reconcile runs §4.3's "possible platform
// evolution" as a self-healing control plane: it watches a live
// deployment, detects drift (dead sensors, partitioned or degraded
// links, churning machines) by probing liveness and re-running ENV,
// re-plans, and applies only the delta, with deterministic seeded fault
// scenarios and recovery scoring in internal/scenlab making every repair
// claim assertable. Client traffic enters through
// the versioned query plane: internal/query is the batching, caching
// client facade over the NWS services, and internal/nws/gateway the
// deployable Query Gateway role fronting it for end users (planned,
// applied and re-homed like the name server). The benchmark harness in
// bench_test.go regenerates every figure and quantitative claim of the
// paper (see EXPERIMENTS.md, the ledger rendered from the committed
// artifacts, including its "§4.3 platform evolution" fault-scenario
// table and its "Query plane" section); README.md holds the API
// quickstart, the "Querying a deployment" guide and the nwsmanager
// -watch guide.
package nwsenv
