package serve

import (
	"testing"

	"repro/internal/value"
	"repro/internal/view"
)

// TestBatcherCollectSteadyStateAllocs pins the scratch-buffer contract
// of the batcher's collect step: once the shard's reusable update
// buffer has grown to the flush size, collecting a multi-message round
// must not allocate for the update slice at all — the only per-round
// allocations are the done list, which escapes into the batch and
// cannot be reused. The budget is therefore a small constant,
// independent of how many updates flow through the round (here 3
// messages × 64 updates; a per-update or per-copy allocation would blow
// the budget immediately).
func TestBatcherCollectSteadyStateAllocs(t *testing.T) {
	const msgs, perMsg = 3, 64
	sh := &shard{rel: "R", arity: 2, ch: make(chan ingestMsg, msgs)}
	ups := make([]view.Update, perMsg)
	for i := range ups {
		ups[i] = view.Update{Rel: "R", Tuple: value.T(i, i), Mult: 1}
	}
	done := make(chan struct{})
	run := func() {
		for i := 0; i < msgs; i++ {
			sh.ch <- ingestMsg{ups: ups, done: done}
		}
		first := <-sh.ch
		got, dones, _, closed := sh.collect(first, 8192)
		if closed {
			t.Fatal("channel unexpectedly closed")
		}
		if len(got) != msgs*perMsg || len(dones) != msgs {
			t.Fatalf("collected %d updates / %d done channels, want %d / %d", len(got), len(dones), msgs*perMsg, msgs)
		}
	}
	run() // grow sh.buf to the steady-state capacity
	allocs := testing.AllocsPerRun(100, run)
	// The done list is 1–2 allocations (append growth); anything above
	// a small constant means the update buffer reuse regressed.
	if allocs > 4 {
		t.Errorf("steady-state collect allocates %.0f times per round, want <= 4 (update slice must reuse sh.buf)", allocs)
	}
}

// TestBatcherCollectSingleMessagePassthrough asserts the zero-copy
// fast path: a round with nothing queued behind the first message must
// hand the ingester's slice through untouched (no copy into the shard
// buffer).
func TestBatcherCollectSingleMessagePassthrough(t *testing.T) {
	sh := &shard{rel: "R", arity: 2, ch: make(chan ingestMsg, 1)}
	ups := []view.Update{{Rel: "R", Tuple: value.T(1, 2), Mult: 1}}
	got, dones, _, closed := sh.collect(ingestMsg{ups: ups}, 8192)
	if closed || len(dones) != 1 {
		t.Fatalf("unexpected collect result: closed=%v dones=%d", closed, len(dones))
	}
	if &got[0] != &ups[0] {
		t.Error("single-message round copied the ingester's slice instead of passing it through")
	}
}
