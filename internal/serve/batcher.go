package serve

import (
	"time"

	"repro/internal/view"
	"repro/internal/wal"
)

// runBatcher drains one relation's shard channel. Each round it greedily
// collects whatever is queued (up to MaxBatch raw updates) and prebuilds
// the delta relation — all off the maintenance thread. The raw updates
// feed the delta build directly: BuildDelta merges same-tuple updates
// under the ring addition as it goes (an insert and a delete of one
// tuple cancel before any view work), so a separate view.Coalesce pass
// over the batch would only coalesce the same data twice. Building
// deltas here only touches immutable tree metadata
// (fivm.AnyEngine.BuildDelta), so batchers run concurrently with the
// writer.
func (s *Server) runBatcher(sh *shard) {
	defer s.batchers.Done()
	for msg := range sh.ch {
		// The first message is the flush's oldest — its wait bounds the
		// batcher-induced queueing latency for the whole flush.
		wait := time.Since(msg.at)
		ups, dones, refs, chClosed := sh.collect(msg, s.cfg.MaxBatch)
		s.met.batcherWait.Observe(wait.Seconds())
		s.met.batchRaw.Observe(float64(len(ups)))
		t0 := time.Now()
		delta, err := s.eng.BuildDelta(sh.rel, ups)
		build := time.Since(t0)
		s.met.stageBuild.Observe(build.Seconds())
		if err != nil {
			// Unreachable: the relation was validated at admission and
			// the updates carry no schema. Release the callers and drop.
			closeAll(dones)
			continue
		}
		// Write-ahead: the batch is logged before the writer can apply
		// it, so anything the engine ever saw is in the log. An append
		// failure poisons the shard and crashes the pipeline — the batch
		// is dropped unapplied and its done channels never close, keeping
		// acknowledged == logged == recoverable.
		var seq uint64
		if sh.wal != nil {
			if seq, err = sh.wal.AppendRefs(ups, refs); err != nil {
				s.walFail(err)
				return
			}
		}
		// The writer exits early on a crash; select so this send cannot
		// block forever against it.
		select {
		case s.batches <- batch{rel: sh.rel, delta: delta, raw: len(ups), seq: seq, dones: dones, wait: wait, build: build}:
		case <-s.crashed:
			return
		}
		if chClosed {
			return
		}
	}
}

// collect greedily gathers whatever is queued behind first (up to max
// raw updates) into one flush. A single-message round passes the
// ingester's slice through untouched; as soon as a second message
// arrives the updates are accumulated into the shard's reusable buffer,
// so steady-state flushing allocates nothing for the update slice
// (asserted by TestBatcherCollectSteadyStateAllocs). The done list is
// NOT reused: it escapes into the batch handed to the writer, which
// closes the channels after the next publish, possibly while this
// batcher already collects the next round.
// Batch refs of identified messages (see ingestMsg.ref) accumulate into
// the shard's reusable refbuf — AppendRefs encodes them into the WAL
// record without retaining the slice, so it too is free by the next
// flush.
func (sh *shard) collect(first ingestMsg, max int) (ups []view.Update, dones []chan struct{}, refs []wal.BatchRef, chClosed bool) {
	ups = first.ups
	dones = append(dones, first.done)
	sh.refbuf = sh.refbuf[:0]
	if !first.ref.ID.IsZero() {
		sh.refbuf = append(sh.refbuf, first.ref)
	}
	buffered := false
	for len(ups) < max {
		select {
		case m2, ok := <-sh.ch:
			if !ok {
				return ups, dones, sh.refbuf, true
			}
			if !buffered {
				sh.buf = append(sh.buf[:0], ups...)
				buffered = true
			}
			sh.buf = append(sh.buf, m2.ups...)
			ups = sh.buf
			dones = append(dones, m2.done)
			if !m2.ref.ID.IsZero() {
				sh.refbuf = append(sh.refbuf, m2.ref)
			}
		default:
			return ups, dones, sh.refbuf, false
		}
	}
	return ups, dones, sh.refbuf, false
}

// runWriter is the single goroutine allowed to mutate the engine. It
// applies queued delta batches — at most MaxBatchesPerPublish per round,
// so one snapshot refit amortizes over a backlog — publishes a fresh
// snapshot, and only then closes the batches' done channels, giving
// IngestBatch's done channel read-your-writes semantics.
func (s *Server) runWriter() {
	defer close(s.writerDone)
	for {
		select {
		case <-s.crashed:
			// A WAL append failed somewhere: stop applying immediately.
			// Queued batches stay unapplied — recovery replays them from
			// the log, where they all made it before the failing one.
			return
		case req := <-s.exec:
			req.fn(s.eng)
			close(req.done)
		case b, ok := <-s.batches:
			if !ok {
				if s.dirty {
					s.publish()
				}
				return
			}
			dones := s.applyBatch(b)
			chClosed := false
			n := 1
		drain:
			for n < s.cfg.MaxBatchesPerPublish {
				select {
				case b2, ok2 := <-s.batches:
					if !ok2 {
						chClosed = true
						break drain
					}
					dones = append(dones, s.applyBatch(b2)...)
					n++
				default:
					break drain
				}
			}
			s.publish()
			closeAll(dones)
			if chClosed {
				return
			}
		}
	}
}

// applyBatch applies one delta to the engine and returns the done
// channels to close after the next publish.
func (s *Server) applyBatch(b batch) []chan struct{} {
	t0 := time.Now()
	err := s.eng.ApplyBuilt(b.rel, b.delta)
	apply := time.Since(t0)
	s.met.stageApply.Observe(apply.Seconds())
	if err != nil {
		s.nApplyErrs++
		s.lastErr = err.Error()
	} else {
		s.nDeltaTuples += uint64(b.delta.Len())
	}
	s.nBatches++
	s.nApplied += uint64(b.raw)
	if b.seq != 0 {
		// Advance the position watermark the next checkpoint will stamp.
		// Per-shard sequence order holds because each shard has a single
		// batcher and batches reach the writer in send order.
		s.walPos.Shards[b.rel] = b.seq
		s.walPos.Applied += uint64(b.raw)
		s.walPos.Batches++
		s.walApplied.Store(s.walPos.Applied)
		s.walBatches.Store(s.walPos.Batches)
	}
	s.dirty = true
	if s.cfg.TraceLog != nil {
		s.cfg.TraceLog.Printf("batch rel=%s raw=%d delta=%d wait=%s build=%s apply=%s err=%v",
			b.rel, b.raw, b.delta.Len(), b.wait, b.build, apply, err != nil)
	}
	return b.dones
}

func closeAll(dones []chan struct{}) {
	for _, d := range dones {
		close(d)
	}
}
