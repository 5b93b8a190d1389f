package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// holdFits makes every ridge fit of srv's models that finishes from now
// on wait, inside the model's once, until release runs, and counts those
// fits. A reader of a held version waits too. release may run more than
// once.
func holdFits(srv *Server) (release func(), fits *atomic.Int64) {
	gate, fits := make(chan struct{}), new(atomic.Int64)
	hold := func() {
		fits.Add(1)
		<-gate
	}
	srv.fitHook.Store(&hold)
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, fits
}

// limitCategories lets the process-wide category dictionary take only n
// more values until restore runs.
func limitCategories(n int) (restore func()) { return ring.LimitCategories(n) }
