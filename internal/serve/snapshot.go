package serve

import (
	"bytes"
	"strconv"
	"sync"
	"time"

	"repro/fivm"
	"repro/internal/value"
)

// Snapshot is an immutable view of the served state at one point of the
// update stream: the engine's published fivm.Model (a deep copy sharing
// nothing with the engine) plus serving counters. Once published,
// nothing the writer does afterwards can change it, so any number of
// readers may use it concurrently without coordination.
//
// The Model's concrete type depends on the hosted engine kind:
// *fivm.AnalysisModel for analysis engines (ridge Predict, Covar, MI,
// ChowLiu), *fivm.TableModel for count/float engines, and
// *fivm.CovarModel for the scalar COVAR engine.
type Snapshot struct {
	// Version increments with every publish; version 1 is the state the
	// Server was created with.
	Version uint64
	// At is the publish time; time.Since(At) is the snapshot's age,
	// the staleness signal /v1/healthz and /metrics report.
	At time.Time
	// Kind is the hosted engine kind.
	Kind fivm.Kind
	// Model is the engine's published model.
	Model fivm.Model
	// Stats are the serving counters as of this publish.
	Stats Stats
	// Covered is the applied-update counter the model covers (with a
	// WAL cumulative across restarts), Partial's X-Fivm-Applied.
	Covered uint64

	partialOnce sync.Once
	partial     []byte
	partialErr  error
}

// Partial returns the model's result in the binary partial format,
// encoded once on the first caller's goroutine (never the writer's) for
// both GET /v1/partial and the partial=1 update ack.
func (ms *Snapshot) Partial() ([]byte, error) {
	ms.partialOnce.Do(func() {
		var buf bytes.Buffer
		ms.partialErr = ms.Model.WritePartial(&buf)
		ms.partial = buf.Bytes()
	})
	return ms.partial, ms.partialErr
}

// publish builds a fresh snapshot from the engine and swaps it in. Only
// the constructor and the writer goroutine call it.
func (s *Server) publish() {
	t0 := time.Now()
	s.nSnapshots++
	s.dirty = false
	var prev fivm.Model
	if p := s.snap.Load(); p != nil {
		prev = p.Model
	}
	model := s.eng.PublishModel(prev)
	if am, ok := model.(*fivm.AnalysisModel); ok && am.Model != nil {
		s.met.ridgeIters.Observe(float64(am.Model.Iterations))
		if !am.Model.Converged {
			s.nUnconverged++
		}
	}
	ms := &Snapshot{
		Version: s.nSnapshots,
		Kind:    s.eng.Kind(),
		Model:   model,
		Stats: Stats{
			Ingested:         s.ingested.Load(),
			Applied:          s.nApplied,
			Batches:          s.nBatches,
			DeltaTuples:      s.nDeltaTuples,
			Snapshots:        s.nSnapshots,
			ApplyErrors:      s.nApplyErrs,
			LastError:        s.lastErr,
			RidgeUnconverged: s.nUnconverged,
			View:             s.eng.Stats(),
		},
		Covered: s.nApplied,
	}
	if s.cfg.WAL != nil {
		ms.Covered = s.walPos.Applied
	}
	ms.At = time.Now()
	s.snap.Store(ms)
	s.lastPublish = time.Since(t0)
	s.met.stagePublish.Observe(s.lastPublish.Seconds())
	if s.cfg.TraceLog != nil {
		s.cfg.TraceLog.Printf("publish version=%d applied=%d took=%s", ms.Version, ms.Stats.Applied, s.lastPublish)
	}
}

// Predict evaluates the snapshot's model on the given feature values.
// Engines that publish no predictive model return an error.
func (ms *Snapshot) Predict(x map[string]value.Value) (float64, error) {
	return ms.Model.Predict(x)
}

// Count returns the model's scalar summary (see fivm.Model.Count).
func (ms *Snapshot) Count() float64 { return ms.Model.Count() }

// ParseValue converts external text (query parameters, CSV cells) to a
// typed value: integer, then float, then string; "null" (any case) and
// "" parse to NULL.
func ParseValue(s string) value.Value {
	switch s {
	case "", "null", "NULL", "Null":
		return value.Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return value.Float(f)
	}
	return value.String(s)
}
