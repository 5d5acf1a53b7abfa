// Package releasehook holds the switch of proto's poison mode, a test
// hook. Only packages under internal/nws/proto can import it, and of
// those only prototest.PoisonMessages sets it, so no product package
// can turn the mode on.
package releasehook

import "sync/atomic"

// Poison, while set, makes every proto runtime built then poison the
// messages released to its free list instead of reusing them, and makes
// its stations check each message they are handed for poison.
var Poison atomic.Bool
