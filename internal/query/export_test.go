package query

import "time"

// Test access to the two tunables no product caller sets: the tests of
// package query_test shorten the discovery TTL and narrow the worker
// pool through these instead of through exported options.

func (c *Client) SetTTL(d time.Duration) { c.ttl = d }
func (c *Client) SetWorkers(n int)       { c.workers = n }
