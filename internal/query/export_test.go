package query

import "time"

// Test access to a tunable no product caller sets: the tests of package
// query_test shorten the discovery TTL through it instead of through an
// exported option.

func (c *Client) SetTTL(d time.Duration) { c.ttl = d }
