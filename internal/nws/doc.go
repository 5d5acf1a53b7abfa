// Package nws groups the Network Weather Service reproduction: the wire
// protocol and transports (proto; one binary codec under a batch query
// vocabulary), the directory (nameserver; its client owns the one
// registration-refresh lifecycle every long-lived role rides), series
// storage (memory), measurement processes (sensor), the statistical
// forecasting core as a dependency-free leaf package (predict), the
// forecaster role serving predictions through the unified query plane
// (forecast), the token-ring measurement cliques (clique), the per-host
// agent (host), and the deployable query gateway fronting the query
// plane for end users (gateway). The tests in this directory run the
// full stack over real loopback TCP sockets and hold the cross-role
// discovery conformance suite, which pins that memory fetch, forecaster
// resolution and gateway discovery all share query.Client semantics.
package nws
